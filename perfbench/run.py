#!/usr/bin/env python3
"""Benchmark of the fireweather program: daily CLI batch, rule chaining, query dashboard.

Run from the repository root::

    python3 perfbench/run.py --workload daily_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in a fresh interpreter

A run sets up its inputs several times (the median is ``setup_s``), runs one
untimed warm-up op, then runs ops one after another for ``--seconds``, with
``gc.collect()`` before each.  Every op's outputs are checked outside the
timed region; an op that raises, exits nonzero or fails its check counts as
failed.  The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

A shared machine's speed drifts by up to a half over minutes.  So a fixed
pure-Python loop is timed just before and after each set-up and op, outside
the timed region, and the end-to-end times are reported at the speed where
that loop takes ``NOMINAL_LOOP_S``.  The wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "fireweather").is_dir():
    sys.exit(f"{ROOT / 'src' / 'fireweather'} is missing: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-ups per run: at least SETUP_MIN, more while they add up to under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 1.0
#: ops attempted even when one op outlasts --seconds, so the median has samples
MIN_OPS = 3
#: the speed loop's usual time on the shared 2-core VM of the README's figures; end-to-end
#: times are reported at the machine speed where the loop takes this long
NOMINAL_LOOP_S = 0.0125
#: tries of the speed loop each side of a timed region; the median of them counts
LOOP_TRIES = 3
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def speed_loop() -> int:
    """Fixed pure-Python work of the program's kind: string keys, dict inserts, sorting, arithmetic."""
    table = {}
    for i in range(4000):
        table[f"urn:ssn:obs:{i}", i % 97] = f"{i * 1.5:.2f}"
    total = 0
    for i in range(40000):
        total += i * i
    return len(set(table.values())) + len(sorted(table, key=lambda k: (k[1], k[0]))) + total % 7


def _loop_tries() -> list[float]:
    tries = []
    for _ in range(LOOP_TRIES):
        start = perf_counter()
        speed_loop()
        tries.append(perf_counter() - start)
    return tries


def timed(fn) -> tuple[float, float]:
    """Wall seconds of ``fn()`` and the same at the nominal machine speed."""
    before = _loop_tries()
    start = perf_counter()
    fn()
    elapsed = perf_counter() - start
    loop = statistics.median(before + _loop_tries())
    return elapsed, elapsed * NOMINAL_LOOP_S / loop


def _attempt(workload, tracer, phase) -> tuple[float, float] | None:
    """Run and check one op; ``timed``'s pair of durations, or None if it failed."""
    if tracer:
        tracer.phase = phase
    try:
        elapsed = timed(workload.op)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        if tracer:
            tracer.phase = None
    try:
        errors = workload.check()
    except Exception:  # an output the checks cannot even read
        traceback.print_exc()
        return None
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    return None if errors else elapsed


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = HERE / "out" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](ROOT, work, seed)
        speed_loop()  # its first run in a process is slower than the rest
        setups = []
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(w for w, _ in setups) < SETUP_BUDGET_S):
            gc.collect()
            if tracer:
                tracer.phase = "setup"
            setups.append(timed(workload.setup))
            if tracer:
                tracer.phase = None
        warm_ok = _attempt(workload, None, None) is not None
        durations, passed, attempted = [], [], 0
        deadline = perf_counter() + seconds
        while attempted < MIN_OPS or perf_counter() < deadline:
            gc.collect()
            elapsed = _attempt(workload, tracer, attempted)
            if elapsed is not None:
                durations.append(elapsed)
                passed.append(attempted)
            attempted += 1
    finally:
        shutil.rmtree(work)
    failed = attempted - len(durations)
    wall = [w for w, _ in durations]
    nominal = [n for _, n in durations]
    if durations:
        print(f"wall time: setup_s {statistics.median(w for w, _ in setups):.4f}, "
              f"op_p50_ms {statistics.median(wall) * 1000.0:.4f}, "
              f"machine at {sum(nominal) / sum(wall):.3f} of nominal speed")
    if traced:
        metrics = tracing.per_layer(tracer, passed) if passed else {}
    elif durations:
        metrics = {
            "setup_s": statistics.median(n for _, n in setups),
            "items_per_s": workload.items * len(nominal) / sum(nominal),
            "op_p50_ms": statistics.median(nominal) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {}
    return {"correct": warm_ok and failed == 0 and bool(durations), "attempted": attempted,
            "failed": failed, "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    return "1/s" if metric.endswith("_per_s") else "count"


def report(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} ops attempted, {result['failed']} failed, correct={result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:14.4f} {m['unit']}")


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
