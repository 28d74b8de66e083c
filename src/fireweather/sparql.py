"""SPARQL-subset parser and evaluator.

Supported: PREFIX declarations, SELECT with explicit variables, a basic
graph pattern with variables in any position, and numeric/string FILTER
comparisons, compiled by ``rdf.comparison`` as a rule's ``greaterThan`` is.
Rows that fail a filter, or whose filtered value cannot be compared (e.g. a
string under a numeric comparison), are silently dropped.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .rdf import (
    Datatype, Graph, RdfError, Term, TriplePattern, column_sort_keys, comparison, join, split_lines, unescape_literal,
)


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


@dataclass(frozen=True)
class Query:
    prefixes: dict[str, str]
    select_vars: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...]

    def __post_init__(self):
        if not self.select_vars:
            raise ValueError("SELECT needs at least one variable")
        bound = {v for p in self.patterns for v in p.variables()}
        for v in self.select_vars:
            if v not in bound:
                raise ValueError(f"select variable {v} is not bound by any pattern")


@dataclass(frozen=True)
class ResultTable:
    header: tuple[str, ...]
    rows: tuple[tuple[Term, ...], ...]

    def _value_rows(self) -> Iterator[tuple[str, ...]]:
        """Each row's cell values, read a column at a time."""
        return zip(*[map(operator.attrgetter("value"), column) for column in zip(*self.rows)])

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(v.lstrip("?") for v in self.header)
        writer.writerows(self._value_rows())
        return out.getvalue()

    def to_text(self) -> str:
        cells = [self.header, *self._value_rows()]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "".join(line + "\n" for line in lines)


# --- tokenizer -------------------------------------------------------------

#: one token; ``BAD`` takes any character that starts no other
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
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


class _Token(NamedTuple):
    kind: str
    text: str
    #: where the token starts in the query text
    offset: int


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = [_Token(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup != "WS"]
        self.tokens.append(_Token("EOF", "", len(text)))
        self.index = 0
        self.prefixes: dict[str, str] = {}
        for tok in self.tokens:
            if tok.kind == "BAD":
                self.fail(f"unexpected character {tok.text!r}", tok)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        """Raises ``message`` at ``tok``, or at the next token, on the line that ``split_lines`` counts."""
        lines = split_lines(self.text[: (tok or self.peek()).offset])
        raise QueryParseError(message, len(lines), len(lines[-1]) + 1)

    def keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "NAME" and tok.text.upper() == word:
            self.next()
            return True
        return False

    def expect_keyword(self, word: str):
        if not self.keyword(word):
            self.fail(f"expected {word}")

    def expect_punct(self, ch: str):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == ch:
            self.next()
            return
        self.fail(f"expected {ch!r}, got {tok.text!r}")

    def parse(self) -> Query:
        while self.keyword("PREFIX"):
            tok = self.next()
            if tok.kind != "PNAME" or not tok.text.endswith(":"):
                self.fail("expected prefix name ending in ':'", tok)
            prefix = tok.text[:-1]
            iri_tok = self.next()
            if iri_tok.kind != "IRIREF":
                self.fail("expected <iri> after prefix name", iri_tok)
            self.prefixes[prefix] = iri_tok.text[1:-1]

        select_tok = self.peek()
        self.expect_keyword("SELECT")
        select_vars = []
        while self.peek().kind == "VAR":
            select_vars.append(self.next().text)

        self.expect_keyword("WHERE")
        self.expect_punct("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text == "}":
                self.next()
                break
            if self.keyword("FILTER"):
                filters.append(self.parse_filter())
                continue
            if tok.kind == "EOF":
                self.fail("unterminated group pattern: missing '}'")
            patterns.append(self.parse_pattern())
            if self.peek().kind == "PUNCT" and self.peek().text == ".":
                self.next()
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail(f"trailing input {tok.text!r}")

        try:
            return Query(dict(self.prefixes), tuple(select_vars), tuple(patterns), tuple(filters))
        except ValueError as exc:
            self.fail(str(exc), select_tok)

    def parse_pattern(self) -> TriplePattern:
        slots = [self.parse_term_or_var() for _ in range(3)]
        return TriplePattern(*slots)

    def parse_term_or_var(self):
        tok = self.next()
        if tok.kind == "VAR":
            return tok.text
        if tok.kind == "IRIREF":
            return self.term_at(tok, tok.text[1:-1])
        if tok.kind == "PNAME":
            return self.term_at(tok, self.expand_pname(tok))
        if tok.kind == "NUMBER":
            return self.number_at(tok)
        if tok.kind == "STRING":
            return self.parse_literal(tok)
        self.fail(f"expected term or variable, got {tok.text!r}", tok)

    def parse_literal(self, tok: _Token) -> Term:
        dt = Datatype.STRING
        nxt = self.peek()
        if nxt.kind == "PUNCT" and nxt.text == "^":
            self.next()
            self.expect_punct("^")
            dt_tok = self.next()
            if dt_tok.kind == "IRIREF":
                dt_iri = dt_tok.text[1:-1]
            elif dt_tok.kind == "PNAME":
                dt_iri = self.expand_pname(dt_tok)
            else:
                self.fail("expected datatype after ^^", dt_tok)
            try:
                dt = Datatype(dt_iri)
            except ValueError:
                self.fail(f"unsupported datatype <{dt_iri}>", dt_tok)
        try:
            return Term(unescape_literal(tok.text[1:-1]), dt)
        except RdfError as exc:
            self.fail(str(exc), tok)

    def term_at(self, tok: _Token, value: str, datatype: Optional[Datatype] = None) -> Term:
        """The term, or a parse error located at ``tok`` if it is invalid."""
        try:
            return Term(value, datatype)
        except RdfError as exc:
            self.fail(str(exc), tok)

    def number_at(self, tok: _Token) -> Term:
        return self.term_at(tok, tok.text, Datatype.DECIMAL if "." in tok.text else Datatype.INTEGER)

    def expand_pname(self, tok: _Token) -> str:
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            self.fail(f"unknown prefix {prefix!r}", tok)
        return self.prefixes[prefix] + local

    def parse_filter(self) -> FilterExpr:
        self.expect_punct("(")
        var_tok = self.next()
        if var_tok.kind != "VAR":
            self.fail("FILTER expects a variable", var_tok)
        op_tok = self.next()
        if op_tok.kind != "OP":
            self.fail(f"expected comparator, got {op_tok.text!r}", op_tok)
        operand_tok = self.next()
        if operand_tok.kind == "NUMBER":
            operand = self.number_at(operand_tok)
        elif operand_tok.kind == "STRING":
            operand = self.parse_literal(operand_tok)
        else:
            self.fail(f"expected literal operand, got {operand_tok.text!r}", operand_tok)
        self.expect_punct(")")
        return FilterExpr(var_tok.text, op_tok.text, operand)


def parse_query(text: str) -> Query:
    return _Parser(text).parse()


# --- evaluation ------------------------------------------------------------


def evaluate(query: Query, g: Graph) -> ResultTable:
    """The query's rows over ``g``, ordered by ``Term.sort_key`` per column in select order, ties in join order.

    Each column is keyed once, by ``rdf.column_sort_keys``; the row indices sort on the zipped keys.
    """
    names = query.select_vars
    checks = [(f.variable, comparison(f.comparator, f.operand)) for f in query.filters]
    rows = list(join(query.patterns, g, checks, select=names))
    keys = list(zip(*map(column_sort_keys, zip(*rows))))
    rows = list(map(rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__)))
    return ResultTable(tuple(names), tuple(rows))
