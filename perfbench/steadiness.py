#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

Runs every workload ``--runs`` times, each run a fresh process with its
own seed (1, 2, ...), alternating workloads so slow drift on the machine
spreads over all of them.  For each workload and end-to-end metric it
prints the median over the runs and the spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound from ``BENCHMARK.json``.  A spread below a third of the bound is
what the bounds assume.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 1 --seconds 5   # a quick look

``--seconds`` defaults to ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    names = list(WORKLOADS)
    values: dict[str, dict[str, list]] = {w: {} for w in names}
    units: dict[str, str] = {}
    failures = 0
    for i in range(args.runs):
        seed = i + 1
        k = i % len(names)
        for name in names[k:] + names[:k]:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"run {i + 1}/{args.runs} {name} seed {seed}: "
                  f"correct={result['correct']} " + " ".join(
                      f"{k}={m['value']:.6g}"
                      for k, m in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':12s} {'metric':18s} {'median':>12s} {'unit':5s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, metrics in values.items():
        for metric, vals in metrics.items():
            bound = bounds[metric]
            if len(vals) > 1:
                s = spread(vals)
                cell = f"{100 * s:7.2f}%"
                flag = "" if s < bound / 3 else "  > bound/3"
            else:
                cell, flag = f"{'-':>8s}", ""
            print(f"{name:12s} {metric:18s} {statistics.median(vals):12.6g} "
                  f"{units[metric]:5s} {cell} {100 * bound:5.0f}%{flag}")
    print(f"\nfailed operations over all runs: {failures}")
    print("raw: " + json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
