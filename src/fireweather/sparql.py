"""SPARQL-subset parser and evaluator.

Supported: PREFIX declarations, SELECT with explicit variables, a basic
graph pattern with variables in any position, numeric/string FILTER
comparisons, each the inline test that ``rdf.comparison`` returns, as a
rule's ``greaterThan`` is, and ``#`` comments to the end of a line.
Rows that fail a filter, or whose filtered value cannot be compared (e.g. a
string under a numeric comparison), are silently dropped.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rdf import Cursor, Datatype, Graph, RdfError, Slot, Term, Token, TriplePattern, comparison, join, unescape_literal


class QueryParseError(Exception):
    """Syntax or scoping failure, with line/column context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class FilterExpr:
    variable: str
    comparator: str  # one of > < >= <= = !=
    operand: Term

    def __post_init__(self):
        if not (isinstance(self.variable, str) and isinstance(self.comparator, str) and isinstance(self.operand, Term)):
            raise ValueError(f"a FILTER needs a variable name, a comparator and a Term operand, got {self!r}")


@dataclass(frozen=True)
class Query:
    prefixes: dict[str, str]
    select_vars: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...]

    def __post_init__(self):
        if not isinstance(self.prefixes, dict) or not all(isinstance(x, str) for kv in self.prefixes.items() for x in kv):
            raise ValueError(f"prefixes must map str to str, got {self.prefixes!r}")
        for name, kind in (("select_vars", str), ("patterns", TriplePattern), ("filters", FilterExpr)):
            value = getattr(self, name)
            if not isinstance(value, tuple) or not all(isinstance(v, kind) for v in value):
                raise ValueError(f"{name} must be a tuple of {kind.__name__}, got {value!r}")
        if not self.select_vars:
            raise ValueError("SELECT needs at least one variable")
        bound = {v for p in self.patterns for v in p.variables()}
        for v in self.select_vars:
            if v not in bound:
                raise ValueError(f"select variable {v} is not bound by any pattern")


@dataclass(frozen=True)
class ResultTable:
    header: tuple[str, ...]
    #: one tuple of terms per select variable, in header order
    columns: tuple[tuple[Term, ...], ...]

    @property
    def rows(self) -> tuple[tuple[Term, ...], ...]:
        """The row tuples, built when read."""
        return tuple(zip(*self.columns))

    def _columns(self) -> list[list[str]]:
        """Each column's cell values."""
        return [list(map(operator.attrgetter("value"), column)) for column in self.columns]

    def to_csv(self) -> str:
        """SPARQL 1.1 CSV results, each line ``\\n``-ended; a row's lone empty cell is ``""``, as ``csv.writer`` writes it."""
        columns = [_csv_quoted(column) for column in self._columns()]
        if len(columns) == 1:
            columns[0] = [v or '""' for v in columns[0]]
        lines = [",".join(v.lstrip("?") for v in self.header), *map(",".join, zip(*columns)), ""]
        return "\n".join(lines)

    def to_text(self) -> str:
        cells = [self.header, *zip(*self._columns())]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "".join(line + "\n" for line in lines)


#: the characters that make a CSV cell quoted (W3C SPARQL 1.1 CSV results §2, RFC 4180 §2.6)
_CSV_SPECIAL = ',"\r\n'


def _csv_quoted(column: list[str]) -> list[str]:
    """``column`` with each cell that holds a special character quoted; the column itself when none does."""
    joined = "".join(column)
    if not any(c in joined for c in _CSV_SPECIAL):
        return column
    return ['"' + v.replace('"', '""') + '"' if any(c in v for c in _CSV_SPECIAL) else v for v in column]


# --- tokenizer -------------------------------------------------------------

#: one token; ``BAD`` takes any character that starts no other, and ``WS``
#: also a comment: a ``#`` outside an IRI or a string, to the end of its line
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+|\#[^\r\n]*)
    | (?P<IRIREF><[^<>\s]*>)
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<VAR>\?[A-Za-z_][A-Za-z0-9_]*)
    | (?P<NUMBER>[+-]?\d+(?:\.\d+)?)
    | (?P<PNAME>[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?|[A-Za-z_][A-Za-z0-9_-]*:)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP>>=|<=|!=|>|<|=)
    | (?P<PUNCT>[{}().^])
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)


# --- parser ----------------------------------------------------------------


class _Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(_TOKEN_RE, text, QueryParseError)
        self.prefixes: dict[str, str] = {}
        for tok in self.tokens:
            if tok[0] == "BAD":
                self.fail(f"unexpected character {tok[1]!r}", tok)

    def parse(self) -> Query:
        while self.accept("NAME", "PREFIX"):
            tok = self.next()
            if tok[0] != "PNAME" or not tok[1].endswith(":"):
                self.fail("expected prefix name ending in ':'", tok)
            iri_tok = self.next()
            if iri_tok[0] != "IRIREF":
                self.fail("expected <iri> after prefix name", iri_tok)
            self.prefixes[tok[1][:-1]] = self.iri(iri_tok)

        select_tok = self.peek()
        if not self.accept("NAME", "SELECT"):
            self.fail("expected SELECT")
        select_vars = []
        while self.peek()[0] == "VAR":
            select_vars.append(self.next()[1])

        if not self.accept("NAME", "WHERE"):
            self.fail("expected WHERE")
        self.expect("PUNCT", "{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while not self.accept("PUNCT", "}"):
            if self.accept("NAME", "FILTER"):
                filters.append(self.parse_filter())
                continue
            if self.peek()[0] == "EOF":
                self.fail("unterminated group pattern: missing '}'")
            patterns.append(TriplePattern(*[self.term("term or variable") for _ in range(3)]))
            self.accept("PUNCT", ".")
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(f"trailing input {tok[1]!r}")

        try:
            return Query(dict(self.prefixes), tuple(select_vars), tuple(patterns), tuple(filters))
        except ValueError as exc:
            self.fail(str(exc), select_tok)

    def term(self, what: str, kinds: tuple[str, ...] = ("VAR", "IRIREF", "PNAME", "NUMBER", "STRING")) -> Slot:
        """The next token as a ``?name`` or a ``Term``; ``expected {what}`` unless its kind is in ``kinds``, by default a slot's."""
        tok = self.next()
        kind, text, _ = tok
        if kind not in kinds:
            self.fail(f"expected {what}, got {text!r}", tok)
        if kind == "VAR":
            return text
        datatype = self.datatype() if kind == "STRING" else None
        try:
            if kind == "STRING":
                return Term(unescape_literal(text[1:-1]), datatype)
            if kind == "NUMBER":
                return Term(text, Datatype.DECIMAL if "." in text else Datatype.INTEGER)
            return Term(self.iri(tok))
        except RdfError as exc:
            self.fail(str(exc), tok)

    def iri(self, tok: Token) -> str:
        """The IRI that an IRIREF or PNAME token spells."""
        if tok[0] == "IRIREF":
            return tok[1][1:-1]
        prefix, _, local = tok[1].partition(":")
        if prefix not in self.prefixes:
            self.fail(f"unknown prefix {prefix!r}", tok)
        return self.prefixes[prefix] + local

    def datatype(self) -> Datatype:
        """The datatype that follows a string literal: ``xsd:string`` without ``^^``."""
        if not self.accept("PUNCT", "^"):
            return Datatype.STRING
        self.expect("PUNCT", "^")
        tok = self.next()
        if tok[0] not in ("IRIREF", "PNAME"):
            self.fail("expected datatype after ^^", tok)
        iri = self.iri(tok)
        try:
            return Datatype(iri)
        except ValueError:
            self.fail(f"unsupported datatype <{iri}>", tok)

    def parse_filter(self) -> FilterExpr:
        self.expect("PUNCT", "(")
        var_tok = self.next()
        if var_tok[0] != "VAR":
            self.fail("FILTER expects a variable", var_tok)
        op_tok = self.next()
        if op_tok[0] != "OP":
            self.fail(f"expected comparator, got {op_tok[1]!r}", op_tok)
        operand = self.term("literal operand", ("NUMBER", "STRING"))
        self.expect("PUNCT", ")")
        return FilterExpr(var_tok[1], op_tok[1], operand)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()


# --- evaluation ------------------------------------------------------------


_NUMERIC = {Datatype.INTEGER, Datatype.DECIMAL}


def column_sort_keys(column: Sequence[Term]) -> list[Iterable]:
    """Keys that, zipped, order ``column`` as ``Term.sort_key`` does, most significant first.

    Only IRIs, or only strings, order by ``value``; only numbers by ``_num``, then ``value``; each by a C-level getter.
    """
    kinds = set(map(operator.attrgetter("datatype"), column))
    if kinds <= _NUMERIC:
        return [map(operator.attrgetter("_num"), column), map(operator.attrgetter("value"), column)]
    if len(kinds) == 1:
        return [map(operator.attrgetter("value"), column)]
    return [map(Term.sort_key, column)]


def evaluate(query: Query, g: Graph) -> ResultTable:
    """The query's rows over ``g``, ordered by ``Term.sort_key`` per column in select order, ties in join order.

    Each column of the join's token rows is mapped to terms and keyed once, by ``column_sort_keys``;
    the row indices sort on the keys zipped flat, and each column is permuted into that order.
    """
    names = query.select_vars
    checks = [(f.variable, comparison(f.comparator, f.operand)) for f in query.filters]
    term = g._terms.__getitem__
    columns = [list(map(term, column)) for column in zip(*join(query.patterns, g, names, checks))] or [[] for _ in names]
    keys = list(zip(*[key for column in columns for key in column_sort_keys(column)]))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return ResultTable(tuple(names), tuple(tuple(map(column.__getitem__, order)) for column in columns))
