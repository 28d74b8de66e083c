#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed and workload for the run length that
``BENCHMARK.json`` declares, seeds in the outer loop so that a slow spell of
the machine touches every workload alike.  Prints each metric's median,
quartiles and interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``)::

    python3 perfbench/spread.py --seeds 10
    python3 perfbench/spread.py --seeds 5 --workload rule_chaining
    python3 perfbench/spread.py --seeds 5 --same-seed   # seed 1 every time: machine noise only
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--same-seed", action="store_true", help="run seed 1 --seeds times")
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS
    runs = {w: [] for w in workloads}
    for i in range(1, args.seeds + 1):
        seed = 1 if args.same_seed else i
        for w in workloads:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                                   "--seconds", str(DECLARED["run_seconds"]), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, cwd=HERE.parent, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()),
                  flush=True)
    for w, results in runs.items():
        failed = {(r["failed"], r["attempted"]) for r in results}
        print(f"\n{w}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed/attempted {sorted(failed)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:14s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {(q3 - q1) / q2:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
