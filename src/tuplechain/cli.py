"""Command line front end: build, bench, audit, equiv, gen."""

from __future__ import annotations

import argparse
import sys

from .bench import (ALGOS, BenchConfig, run_audit, run_bench, run_equiv,
                    make_classifier)
from .model import FieldSchema
from .workload import (TupleProfile, gen_rules, gen_trace, gen_updates,
                       parse_classbench, parse_generic, parse_trace,
                       parse_updates, write_generic, write_trace,
                       write_updates)


def _load_rules(args):
    if args.format == "classbench":
        return parse_classbench(args.rules)
    return parse_generic(args.rules)


def _emit(text, args):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_io_flags(p, trace_required=False):
    p.add_argument("--rules", required=True, help="rule set file")
    p.add_argument("--format", choices=("classbench", "generic"),
                   default="generic")
    p.add_argument("--trace", required=trace_required, help="trace file")
    p.add_argument("--updates", help="update stream file")
    p.add_argument("--algo", choices=ALGOS, default="tc")
    p.add_argument("--min-head-bits", type=int, default=4)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")


def _config(args, need_trace=True):
    rs = _load_rules(args)
    trace = parse_trace(args.trace, rs.schema) if args.trace else []
    if need_trace and not trace:
        raise SystemExit("a non-empty --trace is required")
    updates = parse_updates(args.updates) if args.updates else None
    return BenchConfig(
        algo=args.algo, ruleset=rs, trace=trace, updates=updates,
        min_head_bits=args.min_head_bits)


def cmd_build(args) -> int:
    rs = _load_rules(args)
    clf = make_classifier(args.algo, rs, args.min_head_bits)
    violations = clf.audit()
    body = {"rules": len(rs.rules), "probe_bound": clf.probe_bound(),
            "memory_bytes": clf.memory_bytes(),
            "audit_violations": len(violations)}
    if args.algo == "tc":
        st = clf.stats()
        body.update(tuples=st.tuple_count, chains=st.chain_count,
                    entries=st.entry_total,
                    owner_links=st.owner_link_total)
    elif args.algo == "etc":
        body["groups"] = clf.group_count
    if args.report == "json":
        import json
        _emit(json.dumps(body, indent=2, sort_keys=True), args)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in body.items()), args)
    return 1 if violations else 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    rep = run_bench(cfg)
    _emit(rep.to_json() if args.report == "json" else rep.to_text(), args)
    return 1 if rep.bound_violations else 0


def cmd_audit(args) -> int:
    cfg = _config(args, need_trace=False)
    rep = run_audit(cfg)
    _emit(rep.to_text(), args)
    return 0 if rep.ok else 1


def cmd_equiv(args) -> int:
    cfg = _config(args)
    rep = run_equiv(cfg)
    _emit(rep.to_text(), args)
    return 0 if rep.ok else 1


def cmd_gen(args) -> int:
    schema = FieldSchema(tuple(args.widths))
    profile = TupleProfile(num_masks=args.masks, num_chains=args.chains,
                           loose_masks=args.loose_masks)
    rs = gen_rules(args.seed, args.count, schema, profile)
    write_generic(rs.rules, schema, args.rules)
    if args.trace:
        keys = gen_trace(rs.rules, args.seed + 1, args.trace_count,
                         args.hit_ratio, schema)
        write_trace(keys, schema, args.trace)
    if args.updates:
        ups = gen_updates(rs.rules, args.seed + 2, args.update_count,
                          args.insert_ratio, schema)
        write_updates(ups, args.updates)
    print(f"wrote {len(rs.rules)} rules to {args.rules}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tuplechain",
        description="chained-tuple flow table lookup toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build a classifier and report stats")
    _add_io_flags(p)

    p = sub.add_parser("bench", help="replay a trace, updates spread "
                       "evenly through it")
    _add_io_flags(p, trace_required=True)

    p = sub.add_parser("audit", help="structural invariant audit")
    _add_io_flags(p)

    p = sub.add_parser("equiv", help="cross-check algorithms on a trace")
    _add_io_flags(p, trace_required=True)

    p = sub.add_parser("gen", help="generate synthetic rules/trace/updates")
    p.add_argument("--rules", required=True, help="output rules file")
    p.add_argument("--trace", help="output trace file")
    p.add_argument("--updates", help="output update stream file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--widths", type=int, nargs="+", default=[16, 16])
    p.add_argument("--masks", type=int, default=32)
    p.add_argument("--chains", type=int, default=8)
    p.add_argument("--loose-masks", type=int, default=0)
    p.add_argument("--trace-count", type=int, default=1000)
    p.add_argument("--hit-ratio", type=float, default=0.8)
    p.add_argument("--update-count", type=int, default=1000)
    p.add_argument("--insert-ratio", type=float, default=0.5)

    args = ap.parse_args(argv)
    handler = {
        "build": cmd_build, "bench": cmd_bench, "audit": cmd_audit,
        "equiv": cmd_equiv, "gen": cmd_gen,
    }[args.cmd]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
