"""Spans around calls into the program, for the traced run only.

``install`` replaces the program's public functions, and the names that
``fireweather.cli`` imported from them, with wrappers that time each call.
The program's files are not changed.  Spans are kept in memory and turned
into per-layer metrics when the run ends.  A span's self time is its
duration minus the time of the spans directly inside it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    phase: object  # "setup" or the index of a timed op
    name: str
    seconds: float
    self_seconds: float
    count: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = None  # spans are recorded only while a phase is open
        self._open: list[list[float]] = []  # child seconds of each open span

    def wrap(self, fn, name, count=None):
        """``fn`` timed as span ``name``; ``name`` may be a function of the call's arguments."""

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            children = [0.0]
            self._open.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
            label = name(*args, **kwargs) if callable(name) else name
            self.spans.append(Span(self.phase, label, elapsed, elapsed - children[0],
                                   count(result) if count else 0))
            return result

        return traced


def query_class(query, graph=None) -> str:
    """scan, join or lookup, from the shape of a parsed query."""
    for p in query.patterns:
        if any(not isinstance(slot, str) and slot.is_iri for slot in (p.subject, p.object)):
            return "sparql.lookup"
    return "sparql.scan" if len(query.patterns) == 1 else "sparql.join"


def install(tracer: Tracer) -> None:
    from fireweather import cli, rdf, rules, sparql

    def cli_name(argv, *_):
        return "cli." + argv[0]

    patches = [
        (cli, "main", cli_name, None),
        (cli, "parse_csv", "ingest.parse_csv", None),
        (cli, "ingest_observations", "ingest.map", len),
        (cli, "export_ntriples", "rdf.export", None),
        (cli, "import_ntriples", "rdf.import", len),
        (rdf, "import_ntriples", "rdf.import", len),
        (cli, "compute_chain", "indices.compute_chain", None),
        (cli, "assess", "assess.assess", None),
        (cli, "alerts_for", "assess.alerts", len),
        (rules, "load_rules", "rules.parse", None),
        (rules, "forward_chain", "rules.forward_chain", len),
        (sparql, "parse_query", "sparql.parse", None),
        (sparql, "evaluate", query_class, lambda table: len(table.rows)),
        (sparql.ResultTable, "to_csv", "sparql.render", None),
    ]
    for owner, attr, name, count in patches:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))


def _rate(spans: list[Span], name: str) -> float:
    chosen = [s for s in spans if s.name == name]
    seconds = sum(s.seconds for s in chosen)
    return sum(s.count for s in chosen) / seconds if seconds else 0.0


def per_layer(tracer: Tracer, ops: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans of the set-ups and of the timed ops in ``ops``.

    Times and counts are medians over those ops of each op's total; rates
    are items over seconds across every recorded span, set-up included.
    A layer that a workload never calls reads 0.
    """
    seconds = {op: defaultdict(float) for op in ops}
    counts = {op: defaultdict(int) for op in ops}
    for s in tracer.spans:
        if s.phase not in seconds:
            continue
        seconds[s.phase][s.name] += s.seconds
        counts[s.phase][s.name] += s.count
        if s.name.startswith("cli."):
            seconds[s.phase]["cli.self"] += s.self_seconds
        if s.name in ("sparql.scan", "sparql.join", "sparql.lookup"):
            counts[s.phase]["sparql.rows_out"] += s.count

    def ms(name):
        return statistics.median(op[name] for op in seconds.values()) * 1000.0

    def count(name):
        return statistics.median(op[name] for op in counts.values())

    spans = tracer.spans
    return {
        "ingest.parse_csv_ms": ms("ingest.parse_csv"),
        "ingest.map_triples_per_s": _rate(spans, "ingest.map"),
        "rdf.export_ms": ms("rdf.export"),
        "rdf.import_triples_per_s": _rate(spans, "rdf.import"),
        "rdf.store_triples": max((s.count for s in spans if s.name in ("ingest.map", "rdf.import")), default=0),
        "indices.compute_chain_ms": ms("indices.compute_chain"),
        "assess.assess_ms": ms("assess.assess"),
        "assess.alerts_ms": ms("assess.alerts"),
        "assess.alerts": count("assess.alerts"),
        "rules.parse_ms": ms("rules.parse"),
        "rules.forward_chain_ms": ms("rules.forward_chain"),
        "rules.facts_derived": count("rules.forward_chain"),
        "rules.facts_per_s": _rate(spans, "rules.forward_chain"),
        "sparql.parse_ms": ms("sparql.parse"),
        "sparql.scan_ms": ms("sparql.scan"),
        "sparql.join_ms": ms("sparql.join"),
        "sparql.lookup_ms": ms("sparql.lookup"),
        "sparql.rows_out": count("sparql.rows_out"),
        "sparql.render_ms": ms("sparql.render"),
        "cli.ingest_ms": ms("cli.ingest"),
        "cli.assess_ms": ms("cli.assess"),
        "cli.query_ms": ms("cli.query"),
        "cli.infer_ms": ms("cli.infer"),
        "cli.self_ms": ms("cli.self"),
    }
