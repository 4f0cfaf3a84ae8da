#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 hypbench/steady.py --runs 10 --seed0 1

Every workload of BENCHMARK.json runs ``--runs`` times for its
``run_seconds``; run ``i`` uses seed ``seed0 + i``.  The spread is
(Q3 - Q1) / median over the runs, quartiles as ``statistics.quantiles(n=4)``;
it should stay below a third of the bound.  The share of failed operations
must be the same in every run.  Exits 1 when a run is wrong or a spread
reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from hypbench.measure import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; its last output line parsed as JSON."""
    cmd = [sys.executable, str(ROOT / "hypbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            res = run_once(workload, args.seed0 + i, bench["run_seconds"])
            results.append(res)
            print(f"{workload} seed {args.seed0 + i}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        wrong = sum(not r["correct"] for r in results)
        print(f"{workload}: {wrong} wrong runs; failed shares {sorted(shares)}")
        ok &= wrong == 0 and len(shares) == 1
        print(f"  {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6} "
              f"{'bound/3':>8}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = quartile_spread(values)
            bound = metric["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread < bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {metric['name']:<12} {statistics.median(values):12.5g} "
                  f"{spread:8.4f} {bound:6.3f} {bound / 3:8.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
