"""One benchmark run: set-up, reference answers, timed passes, metrics.

Everything runs on one thread and calls the package directly.  Lookups
are a closed loop: each operation starts when the previous one returns.
Every operation is timed on its own with ``perf_counter_ns``; a pass's
rate is its operations over the time spent inside those calls.  tc, etc
(and, traced, tss) passes alternate so that host drift hits them alike.
The cyclic garbage collector stays on while passes run, so updates pay
for the collections their surviving allocations cause; everything built
before a pass (classifiers, streams) is moved out of its reach with
``gc.freeze()``, so collections scan only what the pass allocates.

Host normalisation.  On a shared 2-vCPU VM the same pass runs anywhere
from 60k to 115k tc lookups/s as neighbours come and go, for stretches
of seconds, so raw rates of two runs of the same code differ by 20-30%.
Before and after every pass or chunk of one (and every set-up repeat)
the benchmark times ``host_probe``, a fixed loop of the step every
classifier here repeats: a method call that masks a key and does one
``dict.get``.  The times in between are scaled by ``REF_PROBE_NS`` over
the mean of the two: the end-to-end times and rates are those of a host
on which that loop costs REF_PROBE_NS.  The unscaled rate is printed
beside.  ``dict_get_probe`` (raw ``dict.get``) is timed beside
it and reported, but tracks the classifiers less well, so it does not
scale.  In three 30-second processes on that VM, each alternating
2000-lookup tc passes and 1000-lookup etc passes on probe-cmp and timing
both probes before every pass, the per-pass spread (quartile distance
over median) of rates scaled by ``host_probe`` was 0.10-0.13 for tc and
0.13-0.16 for etc, against 0.12-0.15 and 0.17-0.18 when scaled by
``dict_get_probe`` (0.18-0.41 unscaled); the three processes' median tc
rates differed by 6% against 12% (35% unscaled).

Rates are the median over passes; latency percentiles are taken over
the stream's operations of each one's median time across its replays,
so a host stall that hits one replay does not set a percentile.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from tuplechain import (EtcClassifier, TssClassifier, TupleChainClassifier,
                        best_rule, build_graph, min_path_cover)
from tuplechain import workload as workload_mod
from tuplechain.etc import group_chains

import workloads as W
from metrics import END_TO_END, PER_LAYER
from tracing import Tracer

REF_PROBE_NS = 150.0     # host_probe cost the reported times are scaled to
SETUP_REPEATS = 5
CHURN_CHUNK = 3000       # 2000 lookups and 1000 updates per host probe
UPDATE_SHARE = 0.35      # of a lookup-only run, spent in its update phase
SPAN_CAP = 400_000
LOOKUP_SPAN_SHARE = 0.6  # of SPAN_CAP, before traced update passes start


@dataclass
class Samples:
    """What one classifier did during one phase.  Times are host-scaled
    ns: per pass, the operations and their summed time; per stream
    position, the time of every replay of that operation."""

    lookup_passes: list[tuple[int, float]] = field(default_factory=list)
    update_passes: list[tuple[int, float]] = field(default_factory=list)
    lookup_at: dict[int, list[float]] = field(default_factory=dict)
    update_at: dict[int, list[float]] = field(default_factory=dict)
    fresh_ns: list[float] = field(default_factory=list)
    raw_lookup_ns: int = 0
    lookups: int = 0
    probes: int = 0
    probes_max: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Samples") -> None:
        """Count other's operations and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


@dataclass
class Lane:
    """A classifier replaying a stream; the position persists across
    phases because the classifier's state follows it."""

    clf: object
    stream: W.Stream
    bounded: bool       # tc: check probes against probe_bound()
    pos: int = 0
    build: object = None  # if set, every pass is one cycle on build()


def replay(lane: Lane, count: int, s: Samples, host, chunk: int) -> None:
    """One pass: ``count`` operations of the lane's stream, each timed;
    the host is probed before and after every ``chunk`` of them and the
    chunk's times are scaled by the mean of the two."""
    ops, expect = lane.stream.ops, lane.stream.expect
    n = len(ops)
    clf = lane.clf
    lookup, insert, remove = clf.lookup, clf.insert, clf.remove
    clock = time.perf_counter_ns
    registry = clf.registry if lane.bounded else None
    bound = clf.probe_bound() if lane.bounded else None
    failed = probes = pmax = 0
    lookup_pass = [0, 0.0]
    update_pass = [0, 0.0]
    after = host()
    for start in range(lane.pos, lane.pos + count, chunk):
        before = after
        lookup_ns: list[tuple[int, int]] = []
        update_ns: list[tuple[int, int]] = []
        fresh_ns: list[int] = []
        for i in range(start, min(start + chunk, lane.pos + count)):
            j = i % n
            kind, arg = ops[j]
            try:
                if kind == W.LOOKUP:
                    t0 = clock()
                    res = lookup(arg)
                    t1 = clock()
                    lookup_ns.append((j, t1 - t0))
                    p = res.probes
                    probes += p
                    if p > pmax:
                        pmax = p
                    if (res.priority, res.rule_id) != expect[j] or \
                            (bound is not None and p > bound):
                        failed += 1
                    continue
                fresh = registry is not None and kind == W.INSERT and \
                    arg.mask not in registry
                if kind == W.INSERT:
                    t0 = clock()
                    insert(arg)
                    t1 = clock()
                    ok = True
                else:
                    t0 = clock()
                    ok = remove(arg)
                    t1 = clock()
                update_ns.append((j, t1 - t0))
                if fresh:
                    fresh_ns.append(t1 - t0)
                if not ok:
                    failed += 1
                if bound is not None:
                    bound = clf.probe_bound()
            except Exception:
                failed += 1
                if not s.errors:
                    s.errors.append(traceback.format_exc())
        after = host()
        scale = 2 * REF_PROBE_NS / (before + after)
        s.fresh_ns.extend(t * scale for t in fresh_ns)
        for times, at, acc in ((lookup_ns, s.lookup_at, lookup_pass),
                               (update_ns, s.update_at, update_pass)):
            for j, t in times:
                at.setdefault(j, []).append(t * scale)
                acc[1] += t * scale
            acc[0] += len(times)
        s.raw_lookup_ns += sum(t for _, t in lookup_ns)
    if lookup_pass[0]:
        s.lookup_passes.append(tuple(lookup_pass))
    if update_pass[0]:
        s.update_passes.append(tuple(update_pass))
    s.lookups += lookup_pass[0]
    lane.pos += count
    s.probes += probes
    s.probes_max = max(s.probes_max, pmax)
    s.attempted += count
    s.failed += failed


# -- host and layer calibrations ------------------------------------------


class _Probed:
    __slots__ = ("mask", "table")

    def __init__(self, mask: int, table: dict):
        self.mask = mask
        self.table = table

    def probe(self, key: int):
        return self.table.get(key & self.mask)


def host_probe(rng: random.Random):
    """A function returning ns per masked method-call probe over eight
    512-entry tables: the host speed every pass is scaled by."""
    tables = []
    for _ in range(8):
        mask = rng.getrandbits(32)
        tables.append(_Probed(mask, {rng.getrandbits(32) & mask: 1
                                     for _ in range(512)}))
    keys = [rng.getrandbits(32) for _ in range(1000)]

    def probe() -> float:
        t0 = time.perf_counter_ns()
        for k in keys:
            for t in tables:
                t.probe(k)
        return (time.perf_counter_ns() - t0) / (len(keys) * len(tables))

    return probe


def dict_get_probe(rng: random.Random, n: int = 20_000):
    """A function returning ns per raw dict.get on int keys, half of
    them hits: the host's unit cost, reported beside every run."""
    table = {rng.getrandbits(32): i for i in range(4096)}
    keys = list(table)[: n // 4] * 2 + [rng.getrandbits(32)
                                         for _ in range(n // 2)]
    get = table.get

    def probe() -> float:
        t0 = time.perf_counter_ns()
        for k in keys:
            get(k)
        return (time.perf_counter_ns() - t0) / len(keys)

    return probe


def _loop_ns(pairs, fn, passes: int = 5) -> float:
    out = []
    for _ in range(passes):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            fn(a, b)
        out.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(out)


def best_rule_ns(rules, rng: random.Random) -> float:
    pairs = [(rng.choice(rules), rng.choice(rules)) for _ in range(20_000)]
    return _loop_ns(pairs, best_rule)


def probe_ns(tc, keys, rng: random.Random) -> float:
    tuples = [t for c in tc.chains for t in c.tuples]
    pairs = [(rng.choice(tuples), rng.choice(keys)) for _ in range(20_000)]
    return _loop_ns(pairs, lambda t, k: t.probe(k))


# -- set-up -----------------------------------------------------------------


def load(wl: W.Workload, path: Path):
    """Parse the rule file (looked up at call time, so a traced run sees
    its wrapper) and drop shadowed duplicates."""
    if wl.rule_text is not None:
        rs = workload_mod.parse_classbench(path)
    else:
        rs = workload_mod.parse_generic(path)
    rules, shadowed = W.keep_best(rs.rules)
    return rules, shadowed, rs.expansion_factor


def setup(wl: W.Workload, path: Path, repeats: int, host):
    """setup_s repeats: parse, build tc, build etc.  Returns the last
    build and per-step times in seconds, host-scaled."""
    times: dict[str, list[float]] = {"setup": [], "parse": [], "tc": [],
                                     "etc": []}
    clock = time.perf_counter
    tc = etc = None
    for _ in range(repeats):
        tc = etc = None
        gc.collect()
        before = host()
        t0 = clock()
        rules, shadowed, expansion = load(wl, path)
        t1 = clock()
        tc = TupleChainClassifier.build(wl.schema, rules)
        t2 = clock()
        etc = EtcClassifier.build(wl.schema, rules)
        t3 = clock()
        scale = 2 * REF_PROBE_NS / (before + host())
        times["setup"].append((t3 - t0) * scale)
        times["parse"].append((t1 - t0) * scale)
        times["tc"].append((t2 - t1) * scale)
        times["etc"].append((t3 - t2) * scale)
    return rules, shadowed, expansion, tc, etc, times


def traced_mb(build) -> float:
    """Bytes held by what ``build()`` returns, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = build()
        size = tracemalloc.get_traced_memory()[0] - base
        del held
    finally:
        tracemalloc.stop()
    return size / 1e6


# -- phases and summaries ---------------------------------------------------


def settle() -> None:
    """Collect everything, then freeze what survives, so that the
    collections a pass triggers scan only what the pass allocates.
    Unfreezing first lets frozen garbage (classifiers hold cycles) go."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def run_passes(lanes: dict[str, Lane], samples: dict[str, Samples],
               count: int, seconds: float, host, stop=lambda: False) -> None:
    """Rounds of one pass per lane until ``seconds`` are spent (at least
    one round).  A lane with a build replays one whole cycle per pass, on
    a fresh build, in chunks of CHURN_CHUNK operations."""
    deadline = time.perf_counter() + seconds
    while True:
        for name, lane in lanes.items():
            if lane.build is None:
                replay(lane, count, samples[name], host, count)
                continue
            lane.clf = None
            lane.clf, lane.pos = lane.build(), 0
            settle()
            replay(lane, len(lane.stream.ops), samples[name], host,
                   CHURN_CHUNK)
        if time.perf_counter() >= deadline or stop():
            return


def _pct(values, q: float) -> float:
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)] if v else 0.0


@dataclass
class Summary:
    """The median host-scaled pass rate, and percentiles (us) over the
    stream's operations of each one's median time across its replays:
    a host stall hits one replay, not the median of a dozen.  Every
    stream has at least 1000 operations of each kind, so p99 has ten or
    more beyond it."""

    rate: float
    p50_us: float
    p99_us: float
    samples: int        # operations timed
    positions: int      # values the percentiles are taken over
    min_replays: int    # fewest replays behind one of those values

    @classmethod
    def of(cls, passes: list[tuple[int, float]],
           at: dict[int, list[float]]) -> "Summary":
        typical = [statistics.median(v) for v in at.values()]
        return cls(_median(n * 1e9 / ns for n, ns in passes),
                   _pct(typical, 0.50) / 1e3, _pct(typical, 0.99) / 1e3,
                   sum(n for n, _ in passes), len(typical),
                   min((len(v) for v in at.values()), default=0))

    def basis(self) -> str:
        return (f"over {self.positions} per-operation medians of "
                f">= {self.min_replays} replays each")


def _spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    layers: dict[str, float]
    notes: list[str]
    # metric name -> what it is taken over, printed beside its value
    basis: dict[str, str] = field(default_factory=dict)


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Result:
    wl = W.WORKLOADS[name](seed)
    out_dir.mkdir(exist_ok=True)
    rule_path = out_dir / f"rules-{name}-{seed}.txt"
    wl.write_rules(rule_path)
    try:
        return _run(wl, seed, seconds, trace, rule_path, out_dir)
    finally:
        rule_path.unlink(missing_ok=True)


def _run(wl, seed, seconds, trace, rule_path, out_dir) -> Result:
    rng = random.Random(f"{wl.name}:{seed}:calibration")
    host = host_probe(rng)
    rules, shadowed, expansion, tc, etc, st = setup(wl, rule_path,
                                                    SETUP_REPEATS, host)
    main, upd = W.streams(wl, seed, rules)
    mem_tc = traced_mb(lambda: TupleChainClassifier.build(wl.schema, rules))
    mem_etc = traced_mb(lambda: EtcClassifier.build(wl.schema, rules))
    bound0 = tc.probe_bound()

    clfs = {"tc": tc, "etc": etc}
    if trace:
        clfs["tss"] = TssClassifier(rules)
    lanes = {a: Lane(c, main, a == "tc") for a, c in clfs.items()}
    if wl.lookups_per_update:
        builds = {"tc": lambda: TupleChainClassifier.build(wl.schema, rules),
                  "etc": lambda: EtcClassifier.build(wl.schema, rules),
                  "tss": lambda: TssClassifier(rules)}
        for a, lane in lanes.items():
            lane.build = builds[a]
    ulanes = ({a: Lane(clfs[a], upd, a == "tc") for a in ("tc", "etc")}
              if upd is not None else {})
    plain = {a: Samples() for a in clfs}
    check = Samples()
    dict_get = dict_get_probe(rng)
    host_ns: list[float] = []
    get_ns: list[float] = []

    def probe():
        host_ns.append(host())
        get_ns.append(dict_get())
        return host_ns[-1]

    untraced = seconds / 2 if trace else seconds
    settle()
    try:
        if wl.lookups_per_update:
            run_passes(lanes, plain, wl.pass_ops, untraced, probe)
        else:
            run_passes(lanes, plain, wl.pass_ops,
                       untraced * (1 - UPDATE_SHARE), probe)
            run_passes(ulanes, plain, len(upd.ops), untraced * UPDATE_SHARE,
                       probe)
            # whole cycles restore the rule set: re-check every key
            for a in ulanes:
                replay(lanes[a], len(main.ops), check, host, len(main.ops))
        layers: dict[str, float] = {}
        if trace:
            layers = _traced(wl, seed, rules, rule_path, clfs, lanes, ulanes,
                             main, upd, plain, check, seconds / 2, probe,
                             rng, out_dir)
    finally:
        gc.unfreeze()

    metrics: dict[str, float] = {}
    basis: dict[str, str] = {}
    notes = [f"workload {wl.name} seed {seed}: {len(rules)} rules, "
             f"{len({r.mask for r in rules})} masks; {len(main.ops)} ops "
             f"per stream cycle, {len(upd.ops) if upd else 0} per update "
             f"cycle; times scaled to host_probe = {REF_PROBE_NS} ns"]
    for a in ("tc", "etc"):
        s = plain[a]
        look = Summary.of(s.lookup_passes, s.lookup_at)
        upd_ = Summary.of(s.update_passes, s.update_at)
        metrics.update({
            f"{a}.lookups_per_s": look.rate,
            f"{a}.lookup_p50_us": look.p50_us,
            f"{a}.lookup_p99_us": look.p99_us,
            f"{a}.updates_per_s": upd_.rate,
            f"{a}.update_p99_us": upd_.p99_us,
        })
        for q in ("p50", "p99"):
            basis[f"{a}.lookup_{q}_us"] = look.basis()
        basis[f"{a}.update_p99_us"] = upd_.basis()
        raw = s.lookups * 1e9 / max(1, s.raw_lookup_ns)
        notes.append(
            f"{a}: {look.samples} lookups in {len(s.lookup_passes)} passes "
            f"({raw:.0f}/s unscaled), {upd_.samples} updates in "
            f"{len(s.update_passes)} passes")
    metrics.update({"setup_s": _median(st["setup"]),
                    "tc.mem_mb": mem_tc, "etc.mem_mb": mem_etc})
    metrics = {n: metrics[n] for n in END_TO_END}

    attempted = check.attempted + sum(s.attempted for s in plain.values())
    failed = check.failed + sum(s.failed for s in plain.values())
    for stream in (main, upd):
        if stream is not None:
            attempted += stream.oracle_checked
            failed += stream.oracle_failures
    notes += [
        f"host: host_probe {_median(host_ns):.2f} ns (spread "
        f"{_spread(host_ns):.3f}), dict.get {_median(get_ns):.2f} ns "
        f"(spread {_spread(get_ns):.3f}) over {len(host_ns)} rounds",
        f"failed_share {failed / max(1, attempted):.6f} share ({failed} "
        f"of {attempted}); expected answers: {main.reference}",
    ]
    for s in list(plain.values()) + [check]:
        notes.extend(s.errors[:1])
    if trace:
        layers.update({
            "host.dict_get_ns": _median(get_ns),
            "host.dict_get_spread": _spread(get_ns),
            "host.probe_ns": _median(host_ns),
            "host.probe_spread": _spread(host_ns),
            "host.tc_pass_spread": _spread(
                [n / ns for n, ns in plain["tc"].lookup_passes]),
            "host.etc_pass_spread": _spread(
                [n / ns for n, ns in plain["etc"].lookup_passes]),
            "workload.parse_s": _median(st["parse"]),
            "workload.rules": len(rules),
            "workload.masks": len({r.mask for r in rules}),
            "workload.expansion_factor": expansion,
            "workload.shadowed_duplicates": shadowed,
            "classifier.probes_avg":
                plain["tc"].probes / max(1, plain["tc"].lookups),
            "classifier.probes_max": plain["tc"].probes_max,
            "classifier.probe_bound": bound0,
            "classifier.fresh_mask_insert_us":
                _median(plain["tc"].fresh_ns) / 1e3,
            "classifier.build_s": _median(st["tc"]),
            "etc.build_s": _median(st["etc"]),
            "baselines.tss_lookups_per_s": _median(
                n * 1e9 / ns for n, ns in plain["tss"].lookup_passes),
            "baselines.tss_probes_avg":
                plain["tss"].probes / max(1, plain["tss"].lookups),
        })
    return Result(failed == 0, attempted, failed, metrics, layers, notes,
                  basis)


def _traced(wl, seed, rules, rule_path, clfs, lanes, ulanes, main, upd,
            plain, check, seconds, probe, rng, out_dir) -> dict[str, float]:
    """Per-layer numbers: calibration loops, then a traced build and
    traced passes continuing the untraced lanes."""
    # churn-fresh replays on fresh builds: describe the last one
    tc, etc = lanes["tc"].clf, lanes["etc"].clf
    layers: dict[str, float] = {
        "model.best_rule_ns": best_rule_ns(rules, rng),
        "tuple_store.probe_ns": probe_ns(
            tc, [a for k, a in main.ops if k == W.LOOKUP], rng),
    }
    masks = sorted({r.mask for r in rules})
    pc = min_path_cover(build_graph(masks))
    t0 = time.perf_counter()
    TupleChainClassifier.build(wl.schema, rules, cover=pc)
    layers["classifier.insert_rules_s"] = time.perf_counter() - t0

    tracer = Tracer(SPAN_CAP)
    tracer.calibrate()
    traced = {a: Samples() for a in ("tc", "etc")}
    tlanes = {a: lanes[a] for a in ("tc", "etc")}

    def lookup_cap():
        return tracer.spans >= SPAN_CAP * LOOKUP_SPAN_SHARE

    for lane in tlanes.values():
        if lane.build is not None:
            lane.build = tracer.untraced(lane.build)
    tracer.install()
    try:
        rebuilt, _, _ = load(wl, rule_path)
        TupleChainClassifier.build(wl.schema, rebuilt)
        EtcClassifier.build(wl.schema, rebuilt)
        if wl.lookups_per_update:
            run_passes(tlanes, traced, wl.pass_ops, seconds, probe,
                       lookup_cap)
        else:
            run_passes(tlanes, traced, wl.pass_ops,
                       seconds * (1 - UPDATE_SHARE), probe, lookup_cap)
            run_passes(ulanes, traced, len(upd.ops), seconds * UPDATE_SHARE,
                       probe, lambda: tracer.full)
    finally:
        tracer.uninstall()
    for a in ulanes:
        replay(lanes[a], len(main.ops), check, probe, len(main.ops))
    for s in traced.values():
        check.add(s)
    tracer.write(out_dir / f"spans-{wl.name}-{seed}.csv")

    agg = tracer.aggregate()

    def span(root, name, col=1):
        """(summed duration (col 1) or self time (col 2) in ns, count)."""
        acc = agg.get((root, name), [0, 0, 0])
        return acc[col], acc[0]

    def per_call(root, name, col=1):
        total, n = span(root, name, col)
        return total / n if n else 0.0

    tc_updates = span("tc.insert", "tc.insert")[1] + \
        span("tc.remove", "tc.remove")[1]
    touches = [0.0, 0.0]
    marker_ns = 0.0
    for root in ("tc.insert", "tc.remove"):
        for name in ("chain.insert_rule", "chain.delete_rule",
                     "chain.insert_tuple"):
            acc = tracer.tallies.get((root, name), (0, 0))
            touches[0] += acc[0]
            touches[1] += acc[1]
        for fn in ("leave_marker", "delete_marker", "report_hint"):
            marker_ns += span(root, f"tuple_store.{fn}", 2)[0]
    heads = tracer.tallies.get(("etc.lookup", "etc.lookup"), (0, 0))
    etc_lookups = span("etc.lookup", "etc.lookup")[1]
    st = tc.stats()
    etc_masks = sorted({r.mask for r in etc.all_rules()})

    def overhead_us(a):
        """Traced minus untraced time per lookup, host-scaled."""
        def per_lookup(s):
            return _median(ns / n for n, ns in s.lookup_passes) / 1e3
        return per_lookup(traced[a]) - per_lookup(plain[a])

    layers.update({
        "tuple_store.marker_touches_per_update":
            touches[0] / max(1, tc_updates),
        "tuple_store.hint_touches_per_update":
            touches[1] / max(1, tc_updates),
        "tuple_store.marker_self_us": marker_ns / max(1, tc_updates) / 1e3,
        "tuple_store.entries": st.entry_total,
        "tuple_store.owner_links": st.owner_link_total,
        "chain.lookup_self_ns": per_call("tc.lookup", "chain.lookup", 2),
        "chain.ns_per_probe": (span("tc.lookup", "chain.lookup")[0]
                               / max(1, traced["tc"].probes)),
        "chain.max_tuples": st.max_chain_tuples,
        "chain.insert_tuple_us":
            per_call("tc.insert", "chain.insert_tuple") / 1e3,
        "classifier.lookup_self_ns": per_call("tc.lookup", "tc.lookup", 2),
        "classifier.chains": st.chain_count,
        "classifier.chains_optimal":
            min_path_cover(build_graph(sorted(tc.registry))).chain_count,
        "classifier.model_mb": st.memory_bytes / 1e6,
        "graph.build_graph_s": span("tc.build", "graph.build_graph")[0] / 1e9,
        "graph.min_path_cover_s":
            span("tc.build", "graph.min_path_cover")[0] / 1e9,
        "graph.edges": build_graph(masks).edge_count,
        "etc.group_chains_s": span("etc.build", "etc.group_chains")[0] / 1e9,
        "etc.head_hit_ratio": (tracer.nested_in("etc.lookup", "tc.lookup")
                               / max(1, heads[0])),
        "etc.probes_avg": heads[1] / max(1, etc_lookups),
        "etc.local_probes_avg": (heads[1] - heads[0]) / max(1, etc_lookups),
        "etc.lookup_self_ns": per_call("etc.lookup", "etc.lookup", 2),
        "etc.groups": etc.group_count,
        "etc.groups_bulk": len(group_chains(
            min_path_cover(build_graph(etc_masks)), etc_masks,
            etc.min_head_bits)),
        "etc.head_entries": sum(len(g.head) for g in etc.groups),
        "etc.local_chains": sum(len(he.local.chains) for g in etc.groups
                                for he in g.head.values()),
        "trace.spans": tracer.spans,
        "trace.tc_lookup_overhead_us": overhead_us("tc"),
        "trace.etc_lookup_overhead_us": overhead_us("etc"),
    })
    return layers


def check_names(result: Result, trace: bool) -> list[str]:
    """Names the result should carry but does not, or carries extra."""
    want = set(PER_LAYER if trace else END_TO_END)
    got = set(result.layers if trace else result.metrics)
    return sorted(want ^ got)
