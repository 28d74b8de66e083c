#!/usr/bin/env python3
"""Reference figures for the README: layer costs at several sizes, and tracing overhead.

Run from the repository root (about three minutes on a 2-core machine)::

    python3 perfbench/reference.py

It times ``forward_chain`` on rule-input stores of 25 to 200 sensors and fits
the growth exponent, times ``ingest_observations`` and ``import_ntriples`` at
two CSV sizes, and compares traced with untraced runs of every workload.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from fireweather import ingest, rdf, rules  # noqa: E402

SEED = 1


def _best_of(k: int, fn) -> float:
    times = []
    for _ in range(k):
        gc.collect()
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def _exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layers() -> None:
    rules_path = ROOT / "rules" / "fwi.rules"
    ruleset = rules.load_rules(str(rules_path))
    rule_lines = oracle.parse_rule_lines(rules_path.read_text(encoding="utf-8"))
    sizes, seconds = [25, 50, 100, 200], []
    for n in sizes:
        store = rdf.import_ntriples(gen.rule_store_ntriples(gen.rule_store(rule_lines, n, SEED)))
        seconds.append(_best_of(3 if n < 200 else 1, lambda: rules.forward_chain(store, ruleset)))
        print(f"forward_chain {n:4d} sensors {len(store):6d} triples: {seconds[-1]:8.3f} s", flush=True)
    print(f"forward_chain growth exponent (25-200 sensors): {_exponent(sizes, seconds):.2f}")

    base = gen.read_bundled_rows(ROOT / "data" / "forestfires.csv")
    for n in (517, 2068):
        observations = ingest.parse_csv(gen.csv_text(gen.perturbed_rows(base, n, SEED)))
        t_map = _best_of(3, lambda: ingest.ingest_observations(observations))
        text = rdf.export_ntriples(ingest.ingest_observations(observations))
        t_import = _best_of(3, lambda: rdf.import_ntriples(text))
        print(f"{n:5d} rows: ingest_observations {t_map:6.3f} s, import_ntriples {t_import:6.3f} s", flush=True)


def tracing_overhead(seconds: int = 10, pairs: int = 2) -> None:
    for workload in ("daily_batch", "rule_chaining", "query_dashboard"):
        ratios = []
        for _ in range(pairs):
            p50 = {}
            for traced in (0, 1):
                out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                                      str(SEED), "--seconds", str(seconds), "--trace", str(traced)],
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True).stdout.splitlines()
                if traced:
                    p50[traced] = float(next(l for l in out if l.startswith("traced op_p50_ms")).split()[-1])
                else:
                    p50[traced] = json.loads(out[-1])["metrics"]["op_p50_ms"]["value"]
            ratios.append(p50[1] / p50[0])
        print(f"{workload}: traced/untraced op_p50_ms " + ", ".join(f"{r:.3f}" for r in ratios), flush=True)


if __name__ == "__main__":
    layers()
    tracing_overhead()
