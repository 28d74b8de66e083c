"""In-memory RDF triple store: a set of triples, with exact-bucket indexes built when first read.

Terms are IRIs or typed literals (string / integer / decimal).  Blank nodes
are deliberately unsupported; ingestion mints deterministic IRIs instead.

``join`` is the one pattern matcher: rule bodies, the seeds of each
semi-naive chaining round and SPARQL queries all evaluate through it.
``comparison`` is the one comparison, which a SPARQL ``FILTER`` and a
rule's ``greaterThan`` share.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_WHITESPACE = re.compile(r"\s")

#: Literal characters written as escapes: the N-Triples ECHAR set, then the
#: other line breaks of ``str.splitlines`` as UCHAR, so every literal stays
#: on one line for readers that break lines as ``splitlines`` does.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
_ESCAPES.update((c, f"\\u{ord(c):04X}") for c in "\x0b\x1c\x1d\x1e\x85\u2028\u2029")
_NEEDS_ESCAPE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE_SEQUENCE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.S)


class Datatype(Enum):
    STRING = XSD + "string"
    INTEGER = XSD + "integer"
    DECIMAL = XSD + "decimal"

    # each member is a singleton, so identity is equality, and a term's hash
    # reads its datatype's without a call into ``Enum.__hash__``
    __hash__ = object.__hash__


class RdfError(Exception):
    """Malformed term, triple, or serialization input."""


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Term:
    """An IRI or a typed literal.

    ``value`` is the IRI string or the literal's lexical form.  ``datatype``
    is None for IRIs.  A term is validated and hashed once, when built; a
    numeric literal keeps the float it parsed to.  An integer's lexical form
    is an ASCII sign and digits; a decimal's may add a point and an exponent.
    """

    value: str
    datatype: Optional[Datatype]
    _num: Optional[float] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __init__(self, value: str, datatype: Optional[Datatype] = None):
        num = None
        if datatype is None:
            if not value or _WHITESPACE.search(value):
                raise RdfError(f"invalid IRI: {value!r}")
        elif datatype is not Datatype.STRING:
            try:
                num = float(value)
            except ValueError:
                raise RdfError(f"literal {value!r} is not a valid {datatype.name.lower()}") from None
            if not math.isfinite(num):
                raise RdfError(f"literal {value!r} is not a finite {datatype.name.lower()}")
            # ``float`` also reads "1_000", " 7" and "١٢", and "7." or "1e5", which are no integer
            if value.strip("0123456789+-" if datatype is Datatype.INTEGER else "0123456789+-.eE"):
                raise RdfError(f"literal {value!r} is not a valid {datatype.name.lower()}")
        _set_value(self, value)
        _set_datatype(self, datatype)
        _set_num(self, num)
        _set_term_hash(self, hash((value, datatype)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        return self._hash == other._hash and self.datatype is other.datatype and self.value == other.value

    @property
    def is_iri(self) -> bool:
        return self.datatype is None

    def sort_key(self):
        # Numeric literals order by value so binding order is stable across
        # integer/decimal spellings of the same number.
        if self._num is not None:
            return (1, self._num, self.value)
        if self.datatype is not None:
            return (2, 0.0, self.value)
        return (0, 0.0, self.value)

    def __str__(self) -> str:
        if self.datatype is None:
            return f"<{self.value}>"
        escaped = _NEEDS_ESCAPE.sub(_escape_char, self.value)
        return f'"{escaped}{_SUFFIXES[self.datatype]}'


# The slots' own setters: a frozen dataclass's ``__setattr__`` raises, and
# ``object.__setattr__`` looks each slot up again on every call.
_set_value, _set_datatype, _set_num, _set_term_hash = (
    Term.value.__set__, Term.datatype.__set__, Term._num.__set__, Term._hash.__set__
)

_NUMERIC = {Datatype.INTEGER, Datatype.DECIMAL}


def column_sort_keys(column: Sequence[Term]) -> Iterable:
    """Keys that order ``column`` as ``Term.sort_key`` does, read by a C-level getter where one kind fills it.

    Only IRIs, or only strings, order by ``value``; only numbers by ``(_num, value)``.
    """
    kinds = set(map(attrgetter("datatype"), column))
    if kinds <= _NUMERIC:
        return map(attrgetter("_num", "value"), column)
    if len(kinds) == 1:
        return map(attrgetter("value"), column)
    return map(Term.sort_key, column)


#: each datatype's end of a written literal: the closing quote and ``^^<datatype>``
_SUFFIXES = {dt: f'"^^<{dt.value}>' for dt in Datatype}


def _escape_char(m: re.Match) -> str:
    return _ESCAPES[m.group()]


def _unescape_sequence(m: re.Match) -> str:
    code = m.group(1) or m.group(2)
    if code is not None:
        point = int(code, 16)
        if point > 0x10FFFF or 0xD800 <= point <= 0xDFFF:
            raise RdfError(f"invalid escape {m.group()!r}")
        return chr(point)
    # an escape outside ECHAR is kept as written
    return _ECHARS.get(m.group(3), m.group())


def unescape_literal(text: str) -> str:
    """The lexical form that a quoted literal's body ``text`` spells; a surrogate escape raises ``RdfError``."""
    if "\\" not in text:
        return text
    return _ESCAPE_SEQUENCE.sub(_unescape_sequence, text)


def iri(value: str) -> Term:
    return Term(value)


def string(value: str) -> Term:
    return Term(value, Datatype.STRING)


def integer(value: Union[int, str]) -> Term:
    return Term(str(value), Datatype.INTEGER)


def decimal(value: Union[float, str]) -> Term:
    if isinstance(value, float):
        value = format_decimal(value)
    return Term(str(value), Datatype.DECIMAL)


def format_decimal(value: float) -> str:
    """Shortest lexical form that round-trips through float()."""
    return repr(float(value))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Triple:
    subject: Term
    predicate: Term
    object: Term
    _hash: int = field(init=False, repr=False)

    def __init__(self, subject: Term, predicate: Term, object: Term):
        if subject.datatype is not None:
            raise RdfError(f"triple subject must be an IRI, got {subject}")
        if predicate.datatype is not None:
            raise RdfError(f"triple predicate must be an IRI, got {predicate}")
        _set_subject(self, subject)
        _set_predicate(self, predicate)
        _set_object(self, object)
        # the terms' stored hashes, read without a call to ``Term.__hash__``
        _set_triple_hash(self, hash((subject._hash, predicate._hash, object._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Triple:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.subject == other.subject
            and self.predicate == other.predicate
            and self.object == other.object
        )

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


_set_subject, _set_predicate, _set_object, _set_triple_hash = (
    Triple.subject.__set__, Triple.predicate.__set__, Triple.object.__set__, Triple._hash.__set__
)


#: A pattern slot: a concrete term or a "?name" variable.
Slot = Union[Term, str]


class TriplePattern(namedtuple("TriplePattern", "subject predicate object")):
    """Three slots, each a concrete term or a "?name" variable.

    A tuple, so that ``substitute`` can build one without checking its
    variable names again.
    """

    __slots__ = ()

    def __new__(cls, subject: Slot, predicate: Slot, object: Slot):
        for slot in (subject, predicate, object):
            if isinstance(slot, str) and (len(slot) < 2 or not slot.startswith("?")):
                raise RdfError(f"invalid variable name: {slot!r}")
        return tuple.__new__(cls, (subject, predicate, object))

    def variables(self) -> list[str]:
        return [s for s in self if isinstance(s, str)]


Binding = dict[str, Term]


_Nested = dict[Term, dict[Term, list[Triple]]]


def _index_triple(spo: _Nested, pos: _Nested, t: Triple) -> None:
    """File a triple that neither index holds yet under its keys in both."""
    s, p, o = t.subject, t.predicate, t.object
    by_p = spo.get(s)
    if by_p is None:
        by_p = spo[s] = {}
    by_o = pos.get(p)
    if by_o is None:
        by_o = pos[p] = {}
    # a new bucket is built holding its triple: a list appended to from
    # empty would reserve room for four
    sp = by_p.get(p)
    if sp is None:
        by_p[p] = [t]
    else:
        sp.append(t)
    po = by_o.get(o)
    if po is None:
        by_o[o] = [t]
    else:
        po.append(t)


class _Buckets:
    """The triples of several index buckets: sized by summing their lengths, read by chaining them."""

    __slots__ = ("buckets",)

    def __init__(self, buckets: Iterable[list[Triple]]):
        self.buckets = buckets

    def __len__(self) -> int:
        return sum(map(len, self.buckets))

    def __iter__(self) -> Iterator[Triple]:
        return chain.from_iterable(self.buckets)


class Graph:
    """Insertion-ordered set of triples, with nested indexes built when first read.

    ``_triples`` holds each triple once; length, membership and iteration
    read it, and iteration follows the order in which each triple was
    first inserted.  ``_indexes`` is None until ``candidates`` first gets a
    pattern with a concrete slot.  That lookup builds both indexes in one
    pass over the set and publishes them with one assignment, so a
    concurrent reader sees either no indexes or whole ones.  From then on
    ``insert`` files each new triple in both.  The first index maps subject
    to predicate to the triples with both, the second predicate to object
    to the triples with both, in plain dicts of dicts of lists.  Each triple
    is in one list of each index, in insertion order, and no list is ever
    empty.  ``candidates`` returns exactly the triples that agree with a
    pattern's concrete slots, so a match only has to bind its variables.

    Single writer or multiple readers at any moment; callers must not
    interleave a writer with readers.  A bucket or ``_Buckets`` from
    ``candidates`` is valid until the next insert.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        """A graph of ``triples``, filled without ``insert``, as no index exists yet; a copy builds none."""
        self._triples: dict[Triple, None] = dict.fromkeys(triples)
        self._indexes: Optional[tuple[_Nested, _Nested]] = None

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        """In the order each triple was first inserted."""
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def insert(self, t: Triple) -> int:
        """Add a triple; returns the graph size afterwards."""
        triples = self._triples
        size = len(triples)
        # an equal triple already in the set keeps its place and its object
        triples[t] = None
        if len(triples) > size and self._indexes is not None:
            _index_triple(*self._indexes, t)
        return len(triples)

    def candidates(self, pattern: TriplePattern) -> Iterable[Triple]:
        """The triples that agree with every concrete slot of the pattern.

        A pattern with no concrete slot returns the graph itself and builds
        no index.  Otherwise ``(s, p)`` and ``(p, o)`` return one bucket;
        ``s`` or ``p`` alone returns its inner dict's buckets as one
        ``_Buckets``, sized without a list; each is valid until the next
        insert.  ``(s, p, o)`` filters the ``(s, p)`` bucket, ``(s, o)`` the
        subject's triples, and ``o`` alone gathers its bucket under every
        predicate, each into a new list: a snapshot.
        """
        s, p, o = pattern
        indexes = self._indexes
        if indexes is None:
            if not (isinstance(s, Term) or isinstance(p, Term) or isinstance(o, Term)):
                return self
            spo, pos = {}, {}
            for t in self._triples:
                _index_triple(spo, pos, t)
            self._indexes = (spo, pos)
        else:
            spo, pos = indexes
        if isinstance(s, Term):
            by_p = spo.get(s)
            if by_p is None:
                return ()
            by_s = by_p.get(p, ()) if isinstance(p, Term) else _Buckets(by_p.values())
            return [t for t in by_s if t.object == o] if isinstance(o, Term) else by_s
        if isinstance(p, Term):
            by_o = pos.get(p)
            if by_o is None:
                return ()
            return by_o.get(o, ()) if isinstance(o, Term) else _Buckets(by_o.values())
        if isinstance(o, Term):
            return [t for by_o in pos.values() for t in by_o.get(o, ())]
        return self


#: A variable and a test on the term bound to it.  The join runs the test on
#: a candidate's term before it builds a binding for the candidate.
Check = tuple[str, Callable[[Term], bool]]

#: each comparator's function, on two numbers or two strings
_COMPARATORS = {
    ">": operator.gt, "<": operator.lt, ">=": operator.ge, "<=": operator.le, "=": operator.eq, "!=": operator.ne
}


def comparison(comparator: str, operand: Term) -> Callable[[Term], bool]:
    """``?v <comparator> operand`` compiled to a test on the term bound to ``?v``.

    As in SPARQL 1.1: a numeric operand compares by value with an integer
    or decimal term, and a string operand compares lexically with a string
    term.  Any other pair is incomparable and fails, so a string that
    spells a number never compares with a number.
    """
    try:
        compare = _COMPARATORS[comparator]
    except KeyError:
        raise ValueError(f"unknown comparator {comparator!r}") from None
    number, text = operand._num, operand.value
    if number is not None:
        return lambda term: term._num is not None and compare(term._num, number)
    if operand.datatype is Datatype.STRING:
        return lambda term: term.datatype is Datatype.STRING and compare(term.value, text)
    return lambda term: False


#: the attribute of a triple that each pattern slot reads, in pattern order
_FIELDS = ("subject", "predicate", "object")


def substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    """The pattern with every variable that ``binding`` binds replaced by its term."""
    s, p, o = pattern
    # built as a bare tuple: the pattern's variable names were checked once
    return tuple.__new__(
        TriplePattern,
        (
            binding.get(s, s) if isinstance(s, str) else s,
            binding.get(p, p) if isinstance(p, str) else p,
            binding.get(o, o) if isinstance(o, str) else o,
        ),
    )


def join(
    patterns: Sequence[TriplePattern],
    graph: Graph,
    checks: Sequence[Check] = (),
    binding: Optional[Binding] = None,
) -> Iterator[Binding]:
    """Every extension of ``binding`` that matches all patterns and passes all checks.

    Each pattern is matched against ``graph`` by an index nested loop,
    planned once per call.  Every pattern is sized by its candidates under
    ``binding``, and a pattern with none ends the call.  The smallest goes
    first, ties to the lowest index; each next level takes the smallest of
    the patterns that share a variable with those placed, or of all left if
    none does.  The plan fixes, per level, the slots an earlier level fills,
    the fresh variables and the checks run there.  The first level reads the
    candidates it was sized from; each later level makes one exact
    ``Graph.candidates`` lookup per binding, so a candidate only binds the
    fresh variables.  A check tests the term bound to its variable: the
    terms of ``binding`` first, then, at the level that binds the variable,
    the term in the candidate's slot, before the candidate's binding is
    built.  A check whose variable nothing binds fails every row.  A fresh
    variable that fills two or three slots of a pattern adds, after its own
    checks, one test that those slots hold one term.
    """
    binding = {} if binding is None else binding
    if not all(test(binding[variable]) for variable, test in checks if variable in binding):
        return iter(())
    checks = [c for c in checks if c[0] not in binding]
    sized = []
    for pattern in patterns:
        bound = substitute(pattern, binding)
        bucket = graph.candidates(bound)
        size = len(bucket)
        if not size:
            return iter(())
        sized.append((size, bound, bucket))
    levels, placed, left = [], set(), list(range(len(sized)))
    while left:
        linked = [i for i in left if placed.intersection(sized[i][1].variables())]
        chosen = min(linked or left, key=lambda i: sized[i][0])
        left.remove(chosen)
        _, bound, bucket = sized[chosen]
        filled = [slot if isinstance(slot, str) and slot in placed else None for slot in bound]
        names = [slot if isinstance(slot, str) and slot not in placed else None for slot in bound]
        fresh = [name for name in names if name is not None]
        # each check that this level's variables make runnable, with the slot
        # that holds its term
        now = [(attrgetter(_FIELDS[names.index(variable)]), test) for variable, test in checks if variable in fresh]
        checks = [c for c in checks if c[0] not in fresh]
        placed.update(fresh)
        repeated = [field for field, name in zip(_FIELDS, names) if name is not None and names.count(name) > 1]
        if repeated:
            now.append((attrgetter(*repeated), lambda terms: len(set(terms)) == 1))
        levels.append((bound, filled, names, now, None if levels else bucket))
    if checks:
        return iter(())
    return _extend(levels, 0, graph, binding) if levels else iter((binding,))


def _extend(levels: list, depth: int, graph: Graph, binding: Binding) -> Iterator[Binding]:
    """The matches of ``levels[depth:]`` under ``binding``, as ``join`` planned them.

    A candidate that passes the level's tests binds each fresh variable to
    the term in its slot.
    """
    bound, filled, names, now, candidates = levels[depth]
    if candidates is None:
        (s, p, o), (fs, fp, fo) = bound, filled
        probe = (s if fs is None else binding[fs], p if fp is None else binding[fp], o if fo is None else binding[fo])
        candidates = graph.candidates(probe)
    for term_of, test in now:
        candidates = [t for t in candidates if test(term_of(t))]
    deeper = depth + 1 < len(levels)
    s, p, o = names
    for t in candidates:
        extended = binding.copy()
        if s is not None:
            extended[s] = t.subject
        if p is not None:
            extended[p] = t.predicate
        if o is not None:
            extended[o] = t.object
        if deeper:
            yield from _extend(levels, depth + 1, graph, extended)
        else:
            yield extended


# --- N-Triples-style flat-file serialization -------------------------------


def export_ntriples(g: Graph) -> str:
    """One triple per line, sorted for byte-stable output.

    Literals escape the N-Triples ECHAR set and write the other line breaks
    as ``\\uXXXX``, so every literal round-trips through ``import_ntriples``.
    """
    # a triple's subject and predicate are IRIs, so each is written as
    # ``<value>`` with no call to ``Term.__str__``
    lines = sorted(f"<{t.subject.value}> <{t.predicate.value}> {t.object} ." for t in g)
    # the empty last line ends the text with a newline, without a second
    # copy of every line
    lines.append("")
    return "\n".join(lines)


#: One term token of a statement: a quoted literal with whatever follows it
#: up to the next whitespace, any other run of non-whitespace, or a lone
#: quote that no closing quote ends.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"\S*|[^\s"]\S*|"', re.S)
_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)
#: A whole line as ``export_ntriples`` writes it: three tokens and the ``.``,
#: each after one space.  Its groups are the tokens that ``_TOKEN`` finds in
#: such a line.
_STATEMENT = re.compile(r'(<\S*>) (<\S*>) (<\S*>|"(?:[^"\\]|\\.)*"\^\^<\S*>) \.', re.S)
_DATATYPES = {dt.value: dt for dt in Datatype}


def _parse_term(token: str) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return Term(token[1:-1])
    if token.startswith('"'):
        m = _LITERAL.match(token)
        rest = token[m.end() :]
        if not (rest.startswith("^^<") and rest.endswith(">")):
            raise RdfError(f"literal missing ^^<datatype>: {token!r}")
        dt_iri = rest[3:-1]
        dt = _DATATYPES.get(dt_iri)
        if dt is None:
            raise RdfError(f"unsupported datatype <{dt_iri}>")
        return Term(unescape_literal(m.group(1)), dt)
    raise RdfError(f"unrecognized term {token!r}")


def _token_error(body: str, tokens: list[str]) -> str:
    for m in _TOKEN.finditer(body):
        if m.group() == '"':
            return f"unterminated literal {body[m.start():]!r}"
    return f"expected 3 terms, got {len(tokens)}"


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, ended only by ``\\n``, ``\\r\\n`` or ``\\r``: every reader's line rule.

    ``str.splitlines`` also breaks at characters that a string literal or a
    comment may hold, such as U+2028 or a form feed.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _tokens(line: str) -> Optional[list[str]]:
    """The three term tokens of a statement line, or None for a blank or comment line."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if not line.endswith("."):
        raise RdfError("missing terminating '.'")
    tokens = _TOKEN.findall(line, 0, len(line) - 1)
    if len(tokens) != 3 or '"' in tokens:
        raise RdfError(_token_error(line[:-1].rstrip(), tokens))
    return tokens


class _Terms(dict):
    """Token -> ``Term``, parsing each token the first time it is looked up."""

    def __missing__(self, token: str) -> Term:
        term = self[token] = _parse_term(token)
        return term


def import_ntriples(text: str) -> Graph:
    """Parse the flat-file format back into a Graph.

    A line in the form that ``export_ntriples`` writes (``<s> <p> o .``,
    single spaces, nothing before or after) is split by one regex match.
    Every other line, including comments, blank lines and any line with
    other whitespace, goes through the general tokenizer, which alone
    defines the accepted syntax and its errors.  Each distinct token becomes
    one ``Term``, shared by every triple that uses it.  Errors carry the
    1-based line number and a reason.
    """
    g = Graph()
    # filled directly: the new graph has no index for ``insert`` to keep
    triples = g._triples
    terms = _Terms()
    try:
        for lineno, line in enumerate(split_lines(text), start=1):
            m = _STATEMENT.fullmatch(line)
            tokens = _tokens(line) if m is None else m.groups()
            if tokens is not None:
                s, p, o = tokens
                triples[Triple(terms[s], terms[p], terms[o])] = None
    except RdfError as exc:
        raise RdfError(f"line {lineno}: {exc}") from None
    return g
