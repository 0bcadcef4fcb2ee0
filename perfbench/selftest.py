#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics the benchmark
emits, that short runs of every workload answer every operation
correctly, that an injected wrong answer raises the failure count above
zero, that a traced run emits every per-layer metric, and that run.py
refuses to run, without printing a result, outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from run import OUT, ROOT, WORKLOADS, use_checkout_sources

use_checkout_sources()

import suite  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tuplechain import MatchResult, TupleChainClassifier  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches the emitted metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {n: u for n, (u, _) in PER_LAYER.items()},
          "BENCHMARK.json per_layer matches the emitted metrics")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match run.py")


def clean_runs() -> None:
    for name in WORKLOADS:
        res = suite.run(name, 1, 1.0, False, OUT)
        check(res.correct and res.failed == 0 and res.attempted > 0,
              f"{name}: {res.attempted} operations, {res.failed} failed")
        check(not suite.check_names(res, False),
              f"{name}: every end-to-end metric present")
        check(all(v > 0 for v in res.metrics.values()),
              f"{name}: no end-to-end metric is zero")


def injected_fault() -> None:
    orig = TupleChainClassifier.lookup

    def wrong(self, key):
        res = orig(self, key)
        if res.rule is not None and key % 3 == 0:
            return MatchResult(None, res.probes)
        return res

    TupleChainClassifier.lookup = wrong
    try:
        res = suite.run("probe-cmp", 1, 1.0, False, OUT)
    finally:
        TupleChainClassifier.lookup = orig
    share = res.failed / res.attempted
    check(not res.correct and share > 0,
          f"injected wrong answers: failed_share {share:.4f} > 0")


def traced_run() -> None:
    res = suite.run("churn-fresh", 1, 2.0, True, OUT)
    check(res.correct, "traced churn-fresh run answers correctly")
    check(not suite.check_names(res, True), "every per-layer metric present")
    check((OUT / "spans-churn-fresh-1.csv").is_file(), "spans written")


def outside_checkout() -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "probe-cmp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/ run.py exits {proc.returncode} with no result")


if __name__ == "__main__":
    benchmark_json()
    outside_checkout()
    injected_fault()
    traced_run()
    clean_runs()
    print("selftest passed")
