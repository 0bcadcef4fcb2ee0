"""Command line front end: build, bench, equiv, gen."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .bench import ALGOS, BenchError, run_bench, run_equiv, traced_build
from .model import FieldSchema
from .workload import (ParseError, TupleProfile, gen_rules, gen_trace,
                       gen_updates, parse_classbench, parse_generic,
                       parse_trace, parse_updates, write_generic,
                       write_trace, write_updates)


def _load_rules(args):
    if args.format == "classbench":
        return parse_classbench(args.rules)
    return parse_generic(args.rules)


def _load_trace(args):
    rs = _load_rules(args)
    trace = parse_trace(args.trace, rs.schema)
    if not trace:
        raise SystemExit("a non-empty --trace is required")
    return rs, trace


def _emit(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(body: dict, args):
    """Sorted-key JSON, or one ``key: value`` line per key."""
    if args.report == "json":
        _emit(json.dumps(body, indent=2, sort_keys=True), args)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in body.items()), args)


def _add_io_flags(p, *extra):
    """--rules, --format and --out, plus each flag named in extra."""
    p.add_argument("--rules", required=True, help="rule set file")
    p.add_argument("--format", choices=("classbench", "generic"),
                   default="generic")
    if "trace" in extra:
        p.add_argument("--trace", required=True, help="trace file")
    if "updates" in extra:
        p.add_argument("--updates", help="update stream file")
    if "algo" in extra:
        p.add_argument("--algo", choices=ALGOS, default="tc")
    if "report" in extra:
        p.add_argument("--report", choices=("text", "json"),
                       default="text")
    p.add_argument("--out", help="write the output here instead of stdout")


def cmd_build(args) -> int:
    rs = _load_rules(args)
    clf, traced = traced_build(args.algo, rs)
    violations = clf.audit()
    for v in violations:
        print(v, file=sys.stderr)
    st = clf.stats()
    body = {"rules": st.rule_count, "tuples": st.tuple_count,
            "chains": st.chain_count, "groups": st.group_count,
            "entries": st.entry_total, "owner_links": st.owner_link_total,
            "memory_bytes": st.memory_bytes, "traced_bytes": traced,
            "probe_bound": clf.probe_bound(),
            "audit_violations": len(violations)}
    _emit_report(body, args)
    return 1 if violations else 0


def cmd_bench(args) -> int:
    rs, trace = _load_trace(args)
    updates = parse_updates(args.updates) if args.updates else None
    try:
        rep = run_bench(args.algo, rs, trace, updates)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _emit_report(asdict(rep), args)
    return 1 if rep.bound_violations else 0


def cmd_equiv(args) -> int:
    rs, trace = _load_trace(args)
    updates = parse_updates(args.updates) if args.updates else None
    try:
        divergence = run_equiv(rs, trace, updates)
    except BenchError as exc:
        print(f"equiv: {exc}", file=sys.stderr)
        return 1
    if divergence is None:
        ups = f", {len(updates.ops)} updates" if updates else ""
        _emit(f"equivalence: {len(trace)} keys{ups}, no divergence", args)
        return 0
    _emit(f"equivalence: FAILED {divergence}", args)
    return 1


def cmd_gen(args) -> int:
    # check every option before writing; the try holds only the checks
    # and the rule draw, which refuses masks the widths cannot hold
    try:
        schema = FieldSchema(tuple(args.widths))   # SchemaError: ValueError
        profile = TupleProfile(num_masks=args.masks, num_chains=args.chains,
                               loose_masks=args.loose_masks)
        for flag, share in (("--hit-ratio", args.hit_ratio),
                            ("--insert-ratio", args.insert_ratio)):
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"{flag} {share} is not in [0, 1]")
        rs = gen_rules(args.seed, args.count, schema, profile)
    except ValueError as exc:
        print(f"tuplechain: gen: {exc}", file=sys.stderr)
        return 2
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

    p = sub.add_parser("build", help="build a classifier, audit it and "
                       "report stats")
    _add_io_flags(p, "algo", "report")

    p = sub.add_parser("bench", help="replay a trace, updates spread "
                       "evenly through it")
    _add_io_flags(p, "trace", "updates", "algo", "report")

    p = sub.add_parser("equiv", help="cross-check algorithms on a trace, "
                       "updates spread evenly through it")
    _add_io_flags(p, "trace", "updates")

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
        "build": cmd_build, "bench": cmd_bench, "equiv": cmd_equiv,
        "gen": cmd_gen,
    }[args.cmd]
    # a bad or unreadable file is the user's to fix: one line, no traceback
    try:
        return handler(args)
    except (ParseError, OSError) as exc:
        print(f"tuplechain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
