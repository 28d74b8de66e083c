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
    Check, Cursor, Graph, Key, RdfError, Term, Triple, TriplePattern, comparison, decimal, iri, join, split_lines, string
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
        return Triple(self.subject, iri(self.property_iri), self.rule.head.value)


# --- parsing ---------------------------------------------------------------


#: one token; ``BAD`` takes any character that starts no other
_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+) | (?P<ARROW>->) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<AND>\^)
    | (?P<VAR>\?\w*) | (?P<NUMBER>[+\-.]?\d[\d+\-.eE]*) | (?P<NAME>\w+) | (?P<BAD>.)
    """,
    re.VERBOSE,
)


def _parse_atom(lx: Cursor, head: bool) -> BodyAtom:
    at = lx.expect("NAME")
    name = at[1]
    lx.expect("LPAREN")
    if lx.peek()[0] != "VAR":
        lx.fail(f"atom argument must be a variable, got {lx.peek()[1]!r}")
    first = lx.next()[1]
    if lx.accept("RPAREN"):
        if head:
            lx.fail("head atom needs a constant second argument", at)
        if name == "greaterThan":
            lx.fail("greaterThan takes two arguments", at)
        return ClassAtom(name, first)
    lx.expect("COMMA")
    arg = lx.next()
    kind, second, _ = arg
    if name == "greaterThan":
        if kind != "NUMBER":
            lx.fail("greaterThan threshold must be numeric", arg)
        # the numeral must spell a decimal ``Term``, as a FILTER operand must:
        # ``float`` alone also reads numerals that are not ASCII
        try:
            decimal(second)
        except RdfError as exc:
            lx.fail(f"greaterThan threshold: {exc}", arg)
        lx.expect("RPAREN")
        return BuiltinGreaterThan(first, float(second))
    if name in ("lessThan", "equal", "notEqual", "greaterThanOrEqual", "lessThanOrEqual"):
        lx.fail(f"unsupported builtin {name!r}: only greaterThan is available", at)
    if kind == "VAR":
        value: Union[str, Term] = second
    elif kind in ("NAME", "NUMBER"):
        value = string(second)
    else:
        lx.fail(f"unexpected atom argument {second!r}", arg)
    lx.expect("RPAREN")
    if head and not isinstance(value, Term):
        lx.fail("head atom object must be a constant", arg)
    return DataPropertyAtom(name, first, value)


def parse_rule(text: str, line: int = 1) -> Rule:
    lx = Cursor(_TOKEN_RE, text, RuleParseError, line)
    for tok in lx.tokens:
        kind, token, _ = tok
        # ``\w`` also takes digits and numerals, which cannot start a name
        if kind == "BAD" or kind == "NAME" and not (token[0].isalpha() or token[0] == "_"):
            lx.fail(f"unexpected character {token[0]!r}", tok)
        if token == "?":
            lx.fail("empty variable name", tok)
    body: list[BodyAtom] = [_parse_atom(lx, head=False)]
    while lx.accept("AND"):
        body.append(_parse_atom(lx, head=False))
    lx.expect("ARROW")
    head = _parse_atom(lx, head=True)
    if not isinstance(head, DataPropertyAtom):
        raise RuleParseError("head must be a data-property atom", line)
    lx.expect("EOF")

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
    on the body; a seed binds the tokens of its row, and a body's rows
    select the tokens of its variables in name order, which mapped to terms
    and zipped with those names are a fact's bindings.  Chaining stops after a round that derives nothing new.
    ``_derive`` does all but the mapping, and ``infer`` renders from its tokens.

    A triple derived more than once in the round that first derives it keeps
    the derivation of the lowest-indexed rule, as rules run in index order;
    only when the same rule derives it again are the bindings compared, by
    ``Term.sort_key``, and the least kept, so facts do not depend on set
    iteration order.  Facts come back sorted by subject, property and label.
    A head subject bound to a literal raises ``RdfError`` naming the rule.
    """
    derived, terms = _derive(g, ruleset)
    return [InferredFact(terms[s], p[1:-1], rule.head.value.value, rule, tuple(zip(names, map(terms.__getitem__, row))))
            for (s, p, _), (rule, names, _), row in derived]


def _variables(rule: Rule, patterns: list[TriplePattern]) -> list[str]:
    """``rule``'s variables in name order, given its body ``patterns``: the order of a fact's bindings and a row's tokens."""
    return sorted({rule.head.subject, *(v for p in patterns for v in p.variables())})


def _derive(g: Graph, ruleset: Sequence[Rule]) -> tuple[list[tuple[Key, tuple, tuple[str, ...]]], dict[str, Term]]:
    """``forward_chain``'s facts, in order, as each key, its rule's entry and the row of tokens that derived it.

    The entry is the rule, its variables in name order and the head subject's place among them.  The
    table that maps each token of a row to its term comes back too.
    """
    heads = {rule.head.pattern().predicate for rule in ruleset}
    bodies = [rule.patterns() for rule in ruleset]
    # the indices of each rule's body patterns that read a head property, with their variables
    reads = [[(i, p.variables()) for i, p in enumerate(patterns) if p.predicate in heads] for patterns in bodies]
    full = Graph(g) if any(reads) else g
    # each rule's entry, body and checks, the tokens of the head's two constants,
    # filed in the table that every join reads, and its reads, built once
    compiled = []
    for rule, patterns, reading in zip(ruleset, bodies, reads):
        head = rule.head.pattern()
        tokens = (full._token(head.predicate), full._token(head.object))
        names = _variables(rule, patterns)
        compiled.append(((rule, names, names.index(head.subject)), patterns, rule.checks(), tokens, reading))
    facts = []
    # the triples the last round derived; None before round 1
    last: Optional[Graph] = None
    # a join's rows and seeds are tokens: this builds a term only for a tie
    term = full._terms.__getitem__
    while True:
        found: dict[Key, tuple] = {}
        for entry, patterns, checks, tokens, reads in compiled:
            rule, names, at = entry
            if last is None:
                seeds = [(patterns, None)]
            else:
                seeds = (
                    (patterns[:i] + patterns[i + 1 :], dict(zip(variables, row)))
                    for i, variables in reads
                    for row in join([patterns[i]], last, variables)
                )
            for rest, seed in seeds:
                for row in join(rest, full, names, checks, seed):
                    s = row[at]
                    # a rule file may bind its head subject to a literal, whose token starts with a quote
                    if s[0] != "<":
                        raise RdfError(f"rule {rule.render()}: head subject {rule.head.subject} is bound to {s}, not an IRI")
                    t = (s, *tokens)
                    kept = found.get(t)
                    if t in full or kept is not None and kept[1] is not entry:
                        continue
                    # the same rule's rows bind the same names, in the same order
                    if kept is None or [term(v).sort_key() for v in row] < [term(v).sort_key() for v in kept[2]]:
                        found[t] = (t, entry, row)
        facts += found.values()
        if not found or full is g:
            break
        last = Graph._of(dict.fromkeys(found), full._terms)
        for t in found:
            full.insert(t)
    # by the IRIs' values, not their tokens, whose ``>`` sorts after ``-``, ``.``, ``/`` and digits; then the label
    facts.sort(key=lambda f: (f[0][0][1:-1], f[0][1][1:-1], f[1][0].head.value.value))
    return facts, full._terms


def verify_provenance(g: Graph, ruleset: Sequence[Rule], facts: Iterable[InferredFact]) -> bool:
    """Re-check every fact against its rule, which must be one of ``ruleset``'s.

    Each rule that some fact names joins its body once, over a copy of the
    graph plus all derived triples, selecting its variables in name order,
    as ``_derive`` does.  A fact holds when it binds exactly those
    variables, in that order, their terms' tokens are one of that join's
    rows, and the head under those bindings gives the fact's subject,
    property and label.  So a fact that lacks a binding of its rule, or
    binds a variable its rule does not hold, fails, although its body might
    hold; every fact that ``forward_chain`` derives binds exactly its rule's.
    """
    fact_list = list(facts)
    known = Graph(g)
    for f in fact_list:
        known.insert(f.triple())
    # each rule's variables and the set of its body's rows, by rule
    joined: dict[Rule, tuple[list[str], set[tuple[str, ...]]]] = {}
    for f in fact_list:
        rule = f.rule
        if rule not in joined:
            if rule not in ruleset:
                return False
            patterns = rule.patterns()
            names = _variables(rule, patterns)
            joined[rule] = (names, set(join(patterns, known, names, rule.checks())))
        names, rows = joined[rule]
        head = rule.head
        if (
            [name for name, _ in f.bindings] != names
            or tuple(str(term) for _, term in f.bindings) not in rows
            or dict(f.bindings)[head.subject] != f.subject
            or f.property_iri != vocab.prop_iri(head.property_name)
            or f.label != head.value.value
        ):
            return False
    return True
