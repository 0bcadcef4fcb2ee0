"""Benchmark replay and equivalence check.

``run_bench`` replays a trace against one classifier on one thread,
with the update stream spread evenly through it, and times only the
classifier calls themselves.  ``run_equiv`` cross-checks tc, etc and
tss against the linear oracle over the same interleave.  Update ``j``
of ``U`` runs just before lookup ``j * N // U`` of ``N`` in both.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from dataclasses import dataclass

from .baselines import (LinearClassifier, TssClassifier, linear_lookup,
                        linear_lookup_batch)
from .classifier import TupleChainClassifier
from .etc import EtcClassifier
from .workload import RuleSetFile, UpdateStream

ALGOS = {"tc": TupleChainClassifier, "etc": EtcClassifier,
         "tss": TssClassifier, "linear": LinearClassifier}


class BenchError(ValueError):
    pass


@dataclass
class MetricsReport:
    algo: str
    rule_count: int
    lookups: int
    updates: int
    build_s: float
    lookup_s: float     # summed time inside lookup calls
    update_s: float     # summed time inside insert/remove calls
    lookups_per_s: float
    updates_per_s: float
    update_p99_us: float    # nearest-rank p99 of single update times
    update_max_us: float    # the slowest single update
    avg_probes: float
    max_probes: int
    bound_violations: int
    memory_bytes: int
    # stats() after the stream, and of a fresh build over its live rules
    chains: int
    groups: int
    bulk_chains: int
    bulk_groups: int


def make_classifier(algo: str, ruleset: RuleSetFile):
    if algo not in ALGOS:
        raise BenchError(f"unknown algo {algo!r}; pick one of {tuple(ALGOS)}")
    return ALGOS[algo].build(ruleset.schema, ruleset.rules)


def traced_build(algo: str, ruleset: RuleSetFile):
    """``make_classifier``, and the bytes the classifier holds by
    tracemalloc, measured from a ``gc.collect()`` before the build, as
    perfbench's ``traced_mb`` measures: the Python heap, which the
    C-layout ``memory_bytes`` model undercounts."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clf = make_classifier(algo, ruleset)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return clf, held


def _update_ops(ruleset: RuleSetFile, updates: UpdateStream | None) -> list:
    """The stream's ops, once its widths are checked against the rule
    set's; none without a stream."""
    if updates and updates.schema.widths != ruleset.schema.widths:
        raise BenchError(f"update stream widths {updates.schema.widths} "
                         f"differ from the rule set's "
                         f"{ruleset.schema.widths}")
    return updates.ops if updates else []


def _interleave(trace: list[int], ops: list):
    """Per lookup, its key and the indices of the updates that run just
    before it: update ``j`` of ``U`` before lookup ``j * N // U``."""
    n, u = len(trace), len(ops)
    j = 0
    for i, key in enumerate(trace):
        first = j
        while j < u and j * n // u == i:
            j += 1
        yield key, range(first, j)


def _track(live: dict, op: str, rule) -> None:
    """Apply an update to ``live``, the rules by id."""
    if op == "insert":
        live[rule.rule_id] = rule
    else:
        del live[rule.rule_id]


def _apply(clf, j: int, op: str, rule) -> None:
    """Update ``j``, an insert or delete of rule, on clf; a
    ``BenchError`` if it is rejected or removes nothing."""
    try:
        if op == "insert":
            clf.insert(rule)
            return
        done = clf.remove(rule)
    except ValueError as exc:
        raise BenchError(f"update {j}: {op} of rule "
                         f"{rule.rule_id} rejected: {exc}") from None
    if not done:
        raise BenchError(f"update {j}: delete of rule "
                         f"{rule.rule_id} removed nothing")


def run_bench(algo: str, ruleset: RuleSetFile, trace: list[int],
              updates: UpdateStream | None = None) -> MetricsReport:
    """Build once, then walk the trace in order, updates interleaved.
    Every lookup's probes are checked against the classifier's bound.
    It is taken after the build, again before the first lookup after a
    run of updates that removed a rule, and again when a lookup's probes
    exceed the bound last taken: no algorithm's bound falls on an
    insert, so a lookup within a bound taken before some inserts is
    within the bound in force.  An update that changes nothing (a rejected
    insert, a delete of a rule not stored) stops the run with a
    ``BenchError`` naming it.  After the timed loop, the chain and
    group counts of the classifier are set beside those of a fresh
    build over the rules live at the end, which shows a layout that
    updates let drift from the one a build would make."""
    if not trace:
        raise BenchError("the trace is empty")
    ops = _update_ops(ruleset, updates)
    clock = time.perf_counter
    t0 = clock()
    clf = make_classifier(algo, ruleset)
    build_s = clock() - t0

    n, u = len(trace), len(ops)
    lookup_s = 0.0
    update_times: list[float] = []
    probes_total = probes_max = violations = 0
    # ETC's bound costs far more than an update: take it only where it
    # may have fallen, or where a lookup would break the one last taken
    bound = clf.probe_bound()
    for key, before in _interleave(trace, ops):
        removed = False
        for j in before:
            op, rule = ops[j]
            t0 = clock()
            _apply(clf, j, op, rule)
            update_times.append(clock() - t0)
            removed = removed or op != "insert"
        if removed:
            bound = clf.probe_bound()
        t0 = clock()
        res = clf.lookup(key)
        lookup_s += clock() - t0
        p = res.probes
        probes_total += p
        if p > probes_max:
            probes_max = p
        if p > bound:
            # inserts since the bound was taken may have raised it
            bound = clf.probe_bound()
            if p > bound:
                violations += 1
    update_s = sum(update_times)
    update_times.sort()
    live = {r.rule_id: r for r in ruleset.rules}
    for op, rule in ops:
        _track(live, op, rule)
    st = clf.stats()
    bulk = make_classifier(
        algo, RuleSetFile(ruleset.schema, list(live.values()))).stats()
    return MetricsReport(
        algo=algo,
        rule_count=len(ruleset.rules),
        lookups=n,
        updates=u,
        build_s=build_s,
        lookup_s=lookup_s,
        update_s=update_s,
        lookups_per_s=n / lookup_s if lookup_s else 0.0,
        updates_per_s=u / update_s if update_s else 0.0,
        update_p99_us=(update_times[math.ceil(0.99 * u) - 1] * 1e6
                       if u else 0.0),
        update_max_us=update_times[-1] * 1e6 if u else 0.0,
        avg_probes=probes_total / n,
        max_probes=probes_max,
        bound_violations=violations,
        memory_bytes=st.memory_bytes,
        chains=st.chain_count,
        groups=st.group_count,
        bulk_chains=bulk.chain_count,
        bulk_groups=bulk.group_count,
    )


def run_equiv(ruleset: RuleSetFile, trace: list[int],
              updates: UpdateStream | None = None) -> str | None:
    """Cross-check tc, etc and tss against the linear oracle, with the
    updates interleaved as ``run_bench`` does: each classifier applies
    every update, and each lookup is checked against ``linear_lookup``
    over the rules live at that point.  Returns the first divergence,
    or None when every key agrees; an update that changes nothing
    raises ``BenchError`` as in ``run_bench``."""
    ops = _update_ops(ruleset, updates)
    clfs = {a: make_classifier(a, ruleset) for a in ("tc", "etc", "tss")}
    # update 0 runs before lookup 0, so with updates every lookup sees
    # the live rules; without, the built rules answer every key at once
    oracle = linear_lookup_batch(ruleset.rules, trace) if not ops else None
    live = {r.rule_id: r for r in ruleset.rules}
    for i, (key, before) in enumerate(_interleave(trace, ops)):
        for j in before:
            op, rule = ops[j]
            for clf in clfs.values():
                _apply(clf, j, op, rule)
            _track(live, op, rule)
        if oracle is not None:
            want = oracle[i]
        else:
            res = linear_lookup(live.values(), key)
            want = (res.priority, res.rule_id)
        for name, clf in clfs.items():
            res = clf.lookup(key)
            got = (res.priority, res.rule_id)
            if got != want:
                return (f"after {i} keys, key {key:#x}: {name} returned "
                        f"{got}, oracle says {want}")
    return None
