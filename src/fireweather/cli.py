"""Command-line front end: ingest, assess, classify, infer, query, plot."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from . import bands, rules, sparql, vocab
from .assess import alerts_for, assess, synthetic_timestamp
from .indices import DomainError, WeatherInputs, compute_chain
# no command calls ``ingest_observations`` or ``export_ntriples``: perfbench/tracing.py patches them by name here
from .ingest import IngestError, ingest_observations, ntriples_lines, parse_csv
from .rdf import RdfError, export_ntriples, import_ntriples, split_lines

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(prog="fireweather", description="Fire-weather decision support over an RDF sensor store")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert the weather CSV to N-Triples")
    p.add_argument("csv_path")
    p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("assess", help="run the decision flow over every CSV row")
    p.add_argument("csv_path")
    p.add_argument("--output")

    p = sub.add_parser("classify", help="band label for a single index value")
    p.add_argument("index", choices=sorted(bands.SCALES))
    p.add_argument("value", type=float)

    p = sub.add_parser("infer", help="forward-chain the rule file over a store")
    p.add_argument("store_path")
    p.add_argument("--rules", default=str(Path(__file__).resolve().parents[2] / "rules" / "fwi.rules"))
    p.add_argument("--format", choices=["ntriples", "jsonl"], default="ntriples")
    p.add_argument("--output")

    p = sub.add_parser("query", help="run a query file, or start a REPL")
    p.add_argument("store_path")
    p.add_argument("query_path", nargs="?")
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--output")

    p = sub.add_parser("plot", help="emit an FFMC/DMC/DC time-series CSV")
    p.add_argument("csv_path")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("--svg", help="also render a line chart to this SVG file")

    return parser


#: every JSON line's encoder, built once: ``json.dumps(obj, sort_keys=True)``
#: builds a new one per call
_JSON = json.JSONEncoder(sort_keys=True)


def _write(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class InputError(Exception):
    """An input file that is not UTF-8 text or does not parse, with its path."""


@contextlib.contextmanager
def _reading(path: str, first_line: int = 1):
    """Reports a byte of ``path`` that is not UTF-8 as an error at its line, and a parse error with the path.

    The bytes decoded inside start at line ``first_line`` of ``path``; the
    lines up to the bad byte are counted as ``split_lines`` counts them.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one always decode
        line = first_line + len(split_lines(exc.object[: exc.start].decode("utf-8"))) - 1
        raise InputError(f"{path}: line {line}: not valid UTF-8") from None
    except (IngestError, RdfError, rules.RuleParseError, sparql.QueryParseError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load(path: str, parse):
    """``parse`` of the text of ``path``, or of stdin for ``-``."""
    with _reading(path):
        if path == "-":
            # stdin's bytes, decoded here as a file is: under a C locale
            # ``sys.stdin`` would let bytes that are not UTF-8 through
            return parse(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())


def cmd_ingest(args) -> int:
    lines = sorted(ntriples_lines(_load(args.csv_path, parse_csv)))
    # the empty last line ends the text with a newline, as ``export_ntriples`` writes it
    _write("\n".join([*lines, ""]), args.output)
    return 0


def cmd_assess(args) -> int:
    observations = _load(args.csv_path, parse_csv)
    assessments = []
    for ordinal, obs in enumerate(observations, start=1):
        sensor = vocab.sensor_iri(ordinal)
        try:
            rec = compute_chain(obs.ffmc, obs.dmc, obs.dc, obs.wind)
            weather = WeatherInputs(temp=obs.temp, rh=obs.rh, wind=obs.wind, rain_24h=obs.rain)
            assessments.append(assess(rec, weather, sensor, synthetic_timestamp(obs.month)))
        except DomainError as exc:
            raise DomainError(f"{sensor}: {exc}") from None
    lines = []
    for a in assessments:
        r = a.record
        lines.append(_JSON.encode({
            "type": "assessment",
            "sensor": a.sensor,
            "timestamp": a.timestamp,
            "indices": {"ffmc": r.ffmc, "dmc": r.dmc, "dc": r.dc, "isi": r.isi, "bui": r.bui, "fwi": r.fwi},
            "labels": {
                "ignition_potential": a.ignition_potential,
                "mopup_needs": a.mopup_needs,
                "difficulty_of_control": a.difficulty_of_control,
                "rate_of_spread": a.rate_of_spread,
                "fire_intensity": a.fire_intensity,
            },
            "rain_override": a.rain_override,
            "wind_risk": a.wind_risk,
            "verdict": str(a.verdict),
            "trace": list(a.trace),
        }))
    for alert in alerts_for(assessments):
        # an alert's fields are strings and floats, so its ``vars`` need no deep copy
        lines.append(_JSON.encode(dict(vars(alert), type="alert")))
    _write("".join(line + "\n" for line in lines), args.output)
    return 0


def cmd_classify(args) -> int:
    print(bands.SCALES[args.index].classify(args.value))
    return 0


def cmd_infer(args) -> int:
    graph = _load(args.store_path, import_ntriples)
    with _reading(args.rules):
        ruleset = rules.load_rules(args.rules)
    facts = rules.forward_chain(graph, ruleset)
    if args.format == "jsonl":
        # sorted keys put "bindings" first and "subject" last, and the keys
        # between them hold the rule's constants: each rule's are encoded once
        middles = {rule: _JSON.encode({
            "label": rule.head.value.value,
            "property": vocab.prop_iri(rule.head.property_name),
            "rule": rule.render(),
        })[1:-1] for rule in ruleset}
        encode = _JSON.encode
        lines = [
            '{"bindings": {' + ", ".join(f"{encode(k)}: {encode(str(v))}" for k, v in f.bindings) + "}, "
            + middles[f.rule] + ', "subject": ' + encode(f.subject.value) + "}"
            for f in facts
        ]
        _write("".join(line + "\n" for line in lines), args.output)
    else:
        _write("".join(str(f.triple()) + "\n" for f in facts), args.output)
    return 0


def _run_query(graph, query: sparql.Query, fmt: str) -> str:
    table = sparql.evaluate(query, graph)
    return table.to_csv() if fmt == "csv" else table.to_text()


def cmd_query(args) -> int:
    graph = _load(args.store_path, import_ntriples)
    if args.query_path:
        _write(_run_query(graph, _load(args.query_path, sparql.parse_query), args.format), args.output)
        return 0
    # REPL: one query per blank-line-terminated block
    block: list[str] = []
    # stdin is read by its "\n"-ended lines, but numbered as ``split_lines`` numbers them
    lineno = 1
    for raw in sys.stdin.buffer:
        with _reading("-", lineno):
            line = raw.decode("utf-8")
        lineno += len(split_lines(line)) - 1
        if line.strip():
            block.append(line)
            continue
        if block:
            _repl_eval(graph, "".join(block), args.format)
            block = []
    if block:
        _repl_eval(graph, "".join(block), args.format)
    return 0


def _repl_eval(graph, text: str, fmt: str):
    try:
        sys.stdout.write(_run_query(graph, sparql.parse_query(text), fmt))
        sys.stdout.flush()
    except (sparql.QueryParseError, RdfError) as exc:
        print(f"error: {exc}", file=sys.stderr)


def cmd_plot(args) -> int:
    observations = _load(args.csv_path, parse_csv)
    if args.days < 0:
        raise IngestError("--days must be >= 0")
    if args.days > len(observations):
        raise IngestError(f"--days {args.days} exceeds the {len(observations)} available rows")
    # rank rows by day-over-day absolute FFMC change, ties kept in file order
    changes = [0.0] + [
        abs(observations[i].ffmc - observations[i - 1].ffmc) for i in range(1, len(observations))
    ]
    ranked = sorted(range(len(observations)), key=lambda i: (-changes[i], i))
    selected = sorted(ranked[: args.days])
    lines = ["index,ffmc,dmc,dc"]
    for i in selected:
        obs = observations[i]
        lines.append(f"{i},{obs.ffmc:g},{obs.dmc:g},{obs.dc:g}")
    _write("".join(line + "\n" for line in lines), args.output)
    if args.svg:
        series = {
            "ffmc": [observations[i].ffmc for i in selected],
            "dmc": [observations[i].dmc for i in selected],
            "dc": [observations[i].dc for i in selected],
        }
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(series))
    return 0


def render_svg(series: dict[str, list[float]]) -> str:
    """Minimal multi-line chart; convenience output, CSV is the contract."""
    colors = {"ffmc": "#d62728", "dmc": "#1f77b4", "dc": "#2ca02c"}
    width, height, margin = 640, 320, 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    all_values = [v for vs in series.values() for v in vs]
    if all_values:
        lo, hi = min(all_values), max(all_values)
        span = (hi - lo) or 1.0
        n = max(len(next(iter(series.values()))), 2)
        for name, values in series.items():
            points = []
            for i, v in enumerate(values):
                x = margin + i * (width - 2 * margin) / (n - 1)
                y = height - margin - (v - lo) / span * (height - 2 * margin)
                points.append(f"{x:.1f},{y:.1f}")
            stroke = colors.get(name, "#333")
            path = " ".join(points)
            parts.append(f'<polyline fill="none" stroke="{stroke}" points="{path}"/>')
    parts.append("</svg>")
    return "".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "ingest": cmd_ingest,
        "assess": cmd_assess,
        "classify": cmd_classify,
        "infer": cmd_infer,
        "query": cmd_query,
        "plot": cmd_plot,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, IngestError, RdfError, DomainError, rules.RuleParseError, sparql.QueryParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
