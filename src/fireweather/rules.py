"""Horn rule parsing and forward chaining over the triple store.

Surface syntax, one rule per line::

    sensor_id(?s) ^ notdifficult(?s, ?rh) ^ greaterThan(?rh, 16) -> DifficultyofControle(?s, notDifficult)

Class atoms ``name(?v)`` match rdf:type triples, data-property atoms
``name(?v, ?w)`` match property triples, and ``greaterThan(?v, N)`` is the
single supported numeric builtin.  Chaining runs to the least fixpoint with
set semantics; every inferred fact carries the rule and bindings that
produced it.

``greaterThan(?v, N)`` means ``FILTER (?v > N)``: both compile through
``rdf.comparison``, and ``N`` must spell a decimal ``Term``, as a FILTER
operand must.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from . import vocab
from .rdf import (
    Check, Graph, Key, RdfError, Term, Triple, TriplePattern, comparison, decimal, iri, join, split_lines, string
)


class RuleParseError(Exception):
    """Rule syntax or safety violation, with line/column context."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if column else f"line {line}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ClassAtom:
    class_name: str
    variable: str

    def pattern(self) -> TriplePattern:
        return TriplePattern(self.variable, iri(vocab.RDF_TYPE), iri(vocab.class_iri(self.class_name)))

    def render(self) -> str:
        return f"{self.class_name}({self.variable})"


@dataclass(frozen=True)
class DataPropertyAtom:
    property_name: str
    subject: str
    #: a variable name or a constant label/number rendered as a string literal
    value: Union[str, Term]

    def pattern(self) -> TriplePattern:
        return TriplePattern(self.subject, iri(vocab.prop_iri(self.property_name)), self.value)

    def render(self) -> str:
        value = self.value if isinstance(self.value, str) else self.value.value
        return f"{self.property_name}({self.subject}, {value})"


@dataclass(frozen=True)
class BuiltinGreaterThan:
    variable: str
    threshold: float

    def render(self) -> str:
        t = self.threshold
        lexical = str(int(t)) if t == int(t) else repr(t)
        return f"greaterThan({self.variable}, {lexical})"


BodyAtom = Union[ClassAtom, DataPropertyAtom, BuiltinGreaterThan]


@dataclass(frozen=True)
class Rule:
    body: tuple[BodyAtom, ...]
    #: its value is a constant: ``parse_rule`` rejects a variable there
    head: DataPropertyAtom

    def render(self) -> str:
        return " ^ ".join(a.render() for a in self.body) + " -> " + self.head.render()

    def patterns(self) -> list[TriplePattern]:
        return [a.pattern() for a in self.body if not isinstance(a, BuiltinGreaterThan)]

    def checks(self) -> list[Check]:
        return [
            (a.variable, comparison(">", decimal(a.threshold))) for a in self.body if isinstance(a, BuiltinGreaterThan)
        ]


@dataclass(frozen=True)
class InferredFact:
    subject: Term
    property_iri: str
    label: str
    rule: Rule
    bindings: tuple[tuple[str, Term], ...]

    def triple(self) -> Triple:
        return Triple(self.subject, iri(self.property_iri), string(self.label))


# --- parsing ---------------------------------------------------------------


#: one token; ``BAD`` takes any character that starts no other
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+) | (?P<ARROW>->) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<AND>\^)
    | (?P<VAR>\?\w*) | (?P<NUMBER>[+\-.]?\d[\d+\-.eE]*) | (?P<NAME>\w+) | (?P<BAD>.)
    """,
    re.VERBOSE,
)


class _Lexer:
    def __init__(self, text: str, line: int):
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        self.index = 0
        for m in _TOKEN_RE.finditer(text):
            kind, token, column = m.lastgroup, m.group(), m.start() + 1
            # ``\w`` also takes digits and numerals, which cannot start a name
            if kind == "BAD" or kind == "NAME" and not (token[0].isalpha() or token[0] == "_"):
                raise RuleParseError(f"unexpected character {token[0]!r}", line, column)
            if token == "?":
                raise RuleParseError("empty variable name", line, column)
            if kind != "WS":
                self.tokens.append((kind, token, column))
        self.tokens.append(("EOF", "", len(text) + 1))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            raise RuleParseError(f"expected {kind}, got {tok[1]!r}", self.line, tok[2])
        self.index += 1
        return tok


def _parse_atom(lx: _Lexer, head: bool) -> BodyAtom:
    _, name, col = lx.take("NAME")
    lx.take("LPAREN")
    kind, first, fcol = lx.peek()
    if kind != "VAR":
        raise RuleParseError(f"atom argument must be a variable, got {first!r}", lx.line, fcol)
    lx.take("VAR")
    if lx.peek()[0] == "RPAREN":
        lx.take("RPAREN")
        if head:
            raise RuleParseError("head atom needs a constant second argument", lx.line, col)
        if name == "greaterThan":
            raise RuleParseError("greaterThan takes two arguments", lx.line, col)
        return ClassAtom(name, first)
    lx.take("COMMA")
    kind, second, scol = lx.peek()
    if name == "greaterThan":
        if kind != "NUMBER":
            raise RuleParseError("greaterThan threshold must be numeric", lx.line, scol)
        # the numeral must spell a decimal ``Term``, as a FILTER operand must:
        # ``float`` alone also reads numerals that are not ASCII
        try:
            decimal(second)
        except RdfError as exc:
            raise RuleParseError(f"greaterThan threshold: {exc}", lx.line, scol) from None
        lx.take("NUMBER")
        lx.take("RPAREN")
        return BuiltinGreaterThan(first, float(second))
    if name in ("lessThan", "equal", "notEqual", "greaterThanOrEqual", "lessThanOrEqual"):
        raise RuleParseError(f"unsupported builtin {name!r}: only greaterThan is available", lx.line, col)
    if kind == "VAR":
        lx.take("VAR")
        value: Union[str, Term] = second
    elif kind in ("NAME", "NUMBER"):
        lx.take(kind)
        value = string(second)
    else:
        raise RuleParseError(f"unexpected atom argument {second!r}", lx.line, scol)
    lx.take("RPAREN")
    if head and not isinstance(value, Term):
        raise RuleParseError("head atom object must be a constant", lx.line, scol)
    return DataPropertyAtom(name, first, value)


def parse_rule(text: str, line: int = 1) -> Rule:
    lx = _Lexer(text, line)
    body: list[BodyAtom] = [_parse_atom(lx, head=False)]
    while lx.peek()[0] == "AND":
        lx.take("AND")
        body.append(_parse_atom(lx, head=False))
    lx.take("ARROW")
    head = _parse_atom(lx, head=True)
    if not isinstance(head, DataPropertyAtom):
        raise RuleParseError("head must be a data-property atom", line)
    lx.take("EOF")

    rule = Rule(tuple(body), head)
    bound = {v for p in rule.patterns() for v in p.variables()}
    for atom in body:
        if isinstance(atom, BuiltinGreaterThan) and atom.variable not in bound:
            raise RuleParseError(f"builtin variable {atom.variable} is not bound by any body atom", line)
    # the head's object is a constant, so its subject is its one variable
    if head.subject not in bound:
        raise RuleParseError(f"unsafe rule: head variable {head.subject} not bound in body", line)
    return rule


def parse_rules(text: str) -> tuple[Rule, ...]:
    rules = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        # unstripped, so that an error's column counts from the line as written
        line = raw.split("#", 1)[0]
        if line.strip():
            rules.append(parse_rule(line, lineno))
    return tuple(rules)


def load_rules(path: str) -> tuple[Rule, ...]:
    with open(path, encoding="utf-8") as fh:
        return parse_rules(fh.read())


# --- forward chaining ------------------------------------------------------

def forward_chain(g: Graph, ruleset: Sequence[Rule]) -> list[InferredFact]:
    """Least fixpoint of the rule set over ``g``, by semi-naive rounds.

    ``g``'s triples are not changed.  Round 1 joins each rule's body.  Each
    later round finds only the derivations that use a triple derived in the
    round before: each binding of a body pattern over a graph of just those
    triples seeds a join of the rest of the body against everything known.
    Only a pattern whose predicate is some rule's head property can bind
    such a triple, so only those patterns seed.  When no rule has one,
    round 1 is the fixpoint and joins over ``g`` itself, which gains only
    the indexes and terms any read builds; otherwise every join reads one copy
    of ``g``, to which each round adds the triples it derived.  Seeds and
    bodies are both evaluated by ``rdf.join``, with each builtin as a check
    on the body.  Chaining stops after a round that derives nothing new.

    A triple derived more than once in the round that first derives it keeps
    the derivation of the lowest-indexed rule, as rules run in index order;
    only when the same rule derives it again are the bindings compared, by
    ``Term.sort_key``, and the least kept, so facts do not depend on set
    iteration order.  Facts come back sorted by subject, property and label.
    A head subject bound to a literal raises ``RdfError`` naming the rule.
    """
    heads = {rule.head.pattern().predicate for rule in ruleset}
    bodies = [rule.patterns() for rule in ruleset]
    # the indices of each rule's body patterns that read a head property
    reads = [[i for i, p in enumerate(patterns) if p.predicate in heads] for patterns in bodies]
    full = Graph(g) if any(reads) else g
    # each rule's body, its head, the tokens of the head's two constants,
    # filed in the table that every join reads, and its reads, built once
    compiled = []
    for rule, patterns, reading in zip(ruleset, bodies, reads):
        head = rule.head.pattern()
        tokens = (full._token(head.predicate), full._token(head.object))
        compiled.append((rule, patterns, rule.checks(), head, tokens, reading))
    facts: list[InferredFact] = []
    # the triples the last round derived; None before round 1
    last: Optional[Graph] = None
    while True:
        found: dict[Key, InferredFact] = {}
        for rule, patterns, checks, (subject, predicate, obj), tokens, reads in compiled:
            if last is None:
                seeds = [(patterns, {})]
            else:
                seeds = (
                    (patterns[:i] + patterns[i + 1 :], seed) for i in reads for seed in join([patterns[i]], last)
                )
            for rest, seed in seeds:
                for binding in join(rest, full, checks, seed):
                    s = binding[subject]
                    # a rule file may bind its head subject to a literal
                    if s.datatype is not None:
                        raise RdfError(f"rule {rule.render()}: head subject {subject} is bound to {s}, not an IRI")
                    t = (f"<{s.value}>", *tokens)
                    fact = found.get(t)
                    if t in full or fact is not None and fact.rule is not rule:
                        continue
                    bindings = tuple(sorted(binding.items()))
                    # the same rule's bindings bind the same names, in the same order
                    if fact is None or [v.sort_key() for _, v in bindings] < [v.sort_key() for _, v in fact.bindings]:
                        found[t] = InferredFact(s, predicate.value, obj.value, rule, bindings)
        facts += found.values()
        if not found or full is g:
            break
        last = Graph._of(dict.fromkeys(found), full._terms)
        for t in found:
            full.insert(t)
    # every subject is an IRI, whose ``sort_key`` orders as its value does
    return sorted(facts, key=lambda f: (f.subject.value, f.property_iri, f.label))


def verify_provenance(g: Graph, ruleset: Sequence[Rule], facts: Iterable[InferredFact]) -> bool:
    """Re-check every fact against its rule, which must be one of ``ruleset``'s.

    The body must hold under the fact's bindings, over the graph plus all
    derived triples, and the head under those bindings must give the fact's
    subject, property and label.
    """
    fact_list = list(facts)
    known = Graph(g)
    for f in fact_list:
        known.insert(f.triple())
    for f in fact_list:
        if f.rule not in ruleset:
            return False
        binding = dict(f.bindings)
        if next(join(f.rule.patterns(), known, f.rule.checks(), binding), None) is None:
            return False
        head = f.rule.head
        if (
            binding.get(head.subject) != f.subject
            or f.property_iri != vocab.prop_iri(head.property_name)
            or f.label != head.value.value
        ):
            return False
    return True
