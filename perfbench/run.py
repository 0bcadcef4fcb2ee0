#!/usr/bin/env python3
"""Seeded single-thread benchmark of the tuplechain classifiers.

    python3 perfbench/run.py --workload probe-cmp --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory.  Prints one line per note and metric, then, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run measures untraced for half of
``--seconds`` and traced for the other half, and writes its spans to
``.perfbench/spans-<workload>-<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("probe-cmp", "acl-wide", "churn-fresh")


def use_checkout_sources() -> None:
    """Import tuplechain from this checkout's src/, never another copy."""
    src = ROOT / "src"
    if not (src / "tuplechain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'tuplechain'} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    use_checkout_sources()
    import suite
    from metrics import END_TO_END, PER_LAYER

    res = suite.run(args.workload, args.seed, args.seconds,
                    bool(args.trace), OUT)
    for line in res.notes:
        print(line)
    for name, unit in END_TO_END.items():
        basis = f"  ({res.basis[name]})" if name in res.basis else ""
        print(f"{name} {res.metrics[name]:.6g} {unit}{basis}")
    if args.trace:
        for name, (unit, moves) in PER_LAYER.items():
            print(f"{name} {res.layers[name]:.6g} {unit}  [moves: {moves}]")
    table = ({n: (res.layers[n], u) for n, (u, _) in PER_LAYER.items()}
             if args.trace else
             {n: (res.metrics[n], u) for n, u in END_TO_END.items()})
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
