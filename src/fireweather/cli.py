"""Command-line front end: ingest, assess, classify, infer, query, plot."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

from . import bands, rules, sparql, vocab
from .assess import FIELDS, alerts_for, assess, synthetic_timestamp
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


#: how many lines ``_write`` joins into one write
_WRITE_LINES = 2048


def _write(lines: list[str], output: str | None):
    """Writes each of ``lines`` and a ``\\n`` after it to ``output``, or to stdout, ``_WRITE_LINES`` lines at a time.

    No text of all the lines is built, and none is encoded in one piece, so
    the output's size adds at most one block to a command's peak memory.
    """
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as fh:
        for start in range(0, len(lines), _WRITE_LINES):
            # the empty last item ends the block with a line end, without a second copy of it
            fh.write("\n".join([*lines[start : start + _WRITE_LINES], ""]))


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
    _write(sorted(ntriples_lines(_load(args.csv_path, parse_csv))), args.output)
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
        lines.append(_JSON.encode({
            "type": "assessment",
            "sensor": a.sensor,
            "timestamp": a.timestamp,
            "indices": vars(a.record),
            "labels": {field: getattr(a, field) for field, _ in FIELDS.values()},
            "rain_override": a.rain_override,
            "wind_risk": a.wind_risk,
            "verdict": str(a.verdict),
            "trace": list(a.trace),
        }))
    for alert in alerts_for(assessments):
        # an alert's fields are strings and floats, so its ``vars`` need no deep copy
        lines.append(_JSON.encode(dict(vars(alert), type="alert")))
    _write(lines, args.output)
    return 0


def cmd_classify(args) -> int:
    print(bands.SCALES[args.index].classify(args.value))
    return 0


def cmd_infer(args) -> int:
    graph = _load(args.store_path, import_ntriples)
    with _reading(args.rules):
        ruleset = rules.load_rules(args.rules)
    # rendered from each fact's tokens, with no ``Term`` or ``InferredFact``:
    # a key's tokens are canonical, so its line is ``str`` of the fact's triple
    derived, _ = rules._derive(graph, ruleset)
    if args.format == "jsonl":
        encode = json.encoder.encode_basestring_ascii  # as ``_JSON.encode`` encodes a string
        # sorted keys put "bindings" first and "subject" last, and the rule's constants between them:
        # each rule's line is a template whose slots are its only "%"s, as no name or constant holds one,
        # built once and filed by its entry's identity, as a ``Rule`` hashes all its atoms
        templates = {}
        for i, (rule, names, _) in {id(entry): entry for _, entry, _ in derived}.items():
            head = rule.head
            constants = {"label": head.value.value, "property": vocab.prop_iri(head.property_name), "rule": rule.render()}
            bindings = ", ".join(encode(name) + ": %s" for name in names)
            templates[i] = '{"bindings": {' + bindings + "}, " + _JSON.encode(constants)[1:-1] + ', "subject": %s}'
        lines = [templates[id(entry)] % (*map(encode, row), encode(key[0][1:-1])) for key, entry, row in derived]
    else:
        lines = [f"{s} {p} {o} ." for (s, p, o), _, _ in derived]
    _write(lines, args.output)
    return 0


def _run_query(graph, query: sparql.Query, fmt: str) -> str:
    table = sparql.evaluate(query, graph)
    return table.to_csv() if fmt == "csv" else table.to_text()


def cmd_query(args) -> int:
    graph = _load(args.store_path, import_ntriples)
    if args.query_path:
        text = _run_query(graph, _load(args.query_path, sparql.parse_query), args.format)
        # a table's text ends with a line end, so its lines are the items before the last
        _write(text.split("\n")[:-1], args.output)
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
    _write(lines, args.output)
    if args.svg:
        series = {q: [getattr(observations[i], q) for i in selected] for q in ("ffmc", "dmc", "dc")}
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
