"""Benchmark replay, structural audit and equivalence checks.

``run_bench`` replays a trace against one classifier on one thread,
with the update stream spread evenly through it, and times only the
classifier calls themselves.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .baselines import LinearClassifier, TssClassifier, linear_lookup_batch
from .classifier import TupleChainClassifier
from .etc import EtcClassifier
from .workload import RuleSetFile, UpdateStream

ALGOS = ("tc", "etc", "tss", "linear")


class BenchError(ValueError):
    pass


@dataclass
class BenchConfig:
    algo: str
    ruleset: RuleSetFile
    trace: list[int]
    updates: UpdateStream | None = None
    min_head_bits: int = 4


@dataclass
class MetricsReport:
    algo: str
    rule_count: int
    lookups: int
    updates: int
    build_s: float
    lookup_s: float     # summed time inside lookup calls
    update_s: float     # summed time inside insert/remove calls
    avg_probes: float
    max_probes: int
    bound_violations: int
    memory_bytes: int

    @property
    def lookups_per_s(self) -> float:
        return self.lookups / self.lookup_s if self.lookup_s else 0.0

    @property
    def updates_per_s(self) -> float:
        return self.updates / self.update_s if self.update_s else 0.0

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in (
            "algo", "rule_count", "lookups", "updates", "build_s",
            "lookup_s", "update_s", "lookups_per_s", "updates_per_s",
            "avg_probes", "max_probes", "bound_violations",
            "memory_bytes")}
        return json.dumps(d, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"algo:             {self.algo}",
            f"rules:            {self.rule_count}",
            f"build time:       {self.build_s:.3f} s",
            f"lookups:          {self.lookups}",
            f"lookup rate:      {self.lookups_per_s:.0f} /s",
            f"updates:          {self.updates}",
            f"update rate:      {self.updates_per_s:.0f} /s",
            f"avg probes:       {self.avg_probes:.2f}",
            f"max probes:       {self.max_probes}",
            f"bound violations: {self.bound_violations}",
            f"memory estimate:  {self.memory_bytes} bytes",
        ]
        return "\n".join(lines)


def make_classifier(algo: str, ruleset: RuleSetFile, min_head_bits: int = 4):
    if algo == "tc":
        return TupleChainClassifier.build(ruleset.schema, ruleset.rules)
    if algo == "etc":
        return EtcClassifier.build(ruleset.schema, ruleset.rules,
                                   min_head_bits)
    if algo == "tss":
        return TssClassifier(ruleset.rules)
    if algo == "linear":
        return LinearClassifier(ruleset.rules)
    raise BenchError(f"unknown algo {algo!r}; pick one of {ALGOS}")


def run_bench(config: BenchConfig) -> MetricsReport:
    """Build once, then walk the trace in order.  Update ``j`` of ``U``
    runs just before lookup ``j * N // U`` of ``N``, and every lookup's
    probes are checked against the classifier's current bound."""
    trace = config.trace
    if not trace:
        raise BenchError("the trace is empty")
    ops = config.updates.ops if config.updates else []
    clock = time.perf_counter
    t0 = clock()
    clf = make_classifier(config.algo, config.ruleset, config.min_head_bits)
    build_s = clock() - t0

    n, u = len(trace), len(ops)
    lookup_s = update_s = 0.0
    probes_total = probes_max = violations = 0
    bound = clf.probe_bound()
    j = 0
    for i, key in enumerate(trace):
        while j < u and j * n // u == i:
            op, rule = ops[j]
            t0 = clock()
            if op == "insert":
                clf.insert(rule)
            else:
                clf.remove(rule)
            update_s += clock() - t0
            j += 1
            bound = clf.probe_bound()
        t0 = clock()
        res = clf.lookup(key)
        lookup_s += clock() - t0
        p = res.probes
        probes_total += p
        if p > probes_max:
            probes_max = p
        if p > bound:
            violations += 1
    return MetricsReport(
        algo=config.algo,
        rule_count=len(config.ruleset.rules),
        lookups=n,
        updates=u,
        build_s=build_s,
        lookup_s=lookup_s,
        update_s=update_s,
        avg_probes=probes_total / n,
        max_probes=probes_max,
        bound_violations=violations,
        memory_bytes=clf.memory_bytes(),
    )


@dataclass
class AuditReport:
    ok: bool
    violations: list[str]

    def to_text(self) -> str:
        if self.ok:
            return "audit: clean"
        return "audit: FAILED\n" + "\n".join(self.violations)


def run_audit(config: BenchConfig,
              corrupt_hook=None) -> AuditReport:
    """Build the structure and run every structural audit.

    ``corrupt_hook(classifier)`` is a test seam for fault injection.
    """
    clf = make_classifier(config.algo, config.ruleset, config.min_head_bits)
    if corrupt_hook is not None:
        corrupt_hook(clf)
    violations = clf.audit()
    return AuditReport(not violations, violations)


@dataclass
class EquivReport:
    ok: bool
    checked: int
    divergence: str | None

    def to_text(self) -> str:
        if self.ok:
            return f"equivalence: {self.checked} keys, no divergence"
        return f"equivalence: FAILED after {self.checked} keys\n" \
               f"{self.divergence}"


def run_equiv(config: BenchConfig) -> EquivReport:
    """Cross-check tc, etc and tss against the linear oracle."""
    rs = config.ruleset
    clfs = {a: make_classifier(a, rs, config.min_head_bits)
            for a in ("tc", "etc", "tss")}
    oracle = linear_lookup_batch(rs.rules, config.trace)
    for i, key in enumerate(config.trace):
        want = oracle[i]
        for name, clf in clfs.items():
            res = clf.lookup(key)
            got = (res.priority, res.rule_id)
            if got != want:
                return EquivReport(False, i, (
                    f"key {key:#x}: {name} returned {got}, "
                    f"oracle says {want}"))
    return EquivReport(True, len(config.trace), None)
