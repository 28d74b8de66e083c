"""In-memory RDF triple store: a set of triples as N-Triples tokens, with exact-bucket indexes built when first read.

Terms are IRIs or typed literals (string / integer / decimal).  Blank nodes
are deliberately unsupported; ingestion mints deterministic IRIs instead.

``join`` is the one pattern matcher: rule bodies, the seeds of each
semi-naive chaining round and SPARQL queries all evaluate through it, each
plan run as a generated loop nest.
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
from functools import lru_cache
from itertools import chain, starmap
from operator import attrgetter
from types import MappingProxyType
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


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """An IRI or a typed literal.

    ``value`` is the IRI string or the literal's lexical form.  ``datatype``
    is None for IRIs.  A term is validated once, when built; a numeric
    literal keeps the float it parsed to.  An integer's lexical form
    is an ASCII sign and digits; a decimal's may add a point and an exponent.
    """

    value: str
    datatype: Optional[Datatype]
    _num: Optional[float] = field(init=False, repr=False, compare=False)

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
            if value.strip(_NUMERALS[datatype]):
                raise RdfError(f"literal {value!r} is not a valid {datatype.name.lower()}")
        _set_value(self, value)
        _set_datatype(self, datatype)
        _set_num(self, num)

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
# ``object.__setattr__`` looks each slot up again on every call.  ``_new_term``
# makes a term with no slot set, for a caller that sets all three.
_set_value, _set_datatype, _set_num = Term.value.__set__, Term.datatype.__set__, Term._num.__set__
_new_term = object.__new__

_NUMERIC = {Datatype.INTEGER, Datatype.DECIMAL}

#: the characters of each numeric datatype's lexical form, which ``float`` must also read
_NUMERALS = {Datatype.INTEGER: "0123456789+-", Datatype.DECIMAL: "0123456789+-.eE"}


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


@dataclass(frozen=True, slots=True)
class Triple:
    """Three terms, the first two IRIs: what a graph yields and takes, and stores as a ``Key``."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if self.subject.datatype is not None:
            raise RdfError(f"triple subject must be an IRI, got {self.subject}")
        if self.predicate.datatype is not None:
            raise RdfError(f"triple predicate must be an IRI, got {self.predicate}")

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


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

#: A stored triple: its terms' tokens, ``str(term)``, one string per distinct ``Term``.
Key = tuple[str, str, str]

_Nested = dict[str, dict[str, list[Key]]]


def _index_triple(spo: _Nested, pos: _Nested, t: Key) -> None:
    """File a triple that neither index holds yet under its keys in both."""
    s, p, o = t
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

    def __init__(self, buckets: Iterable[list[Key]]):
        self.buckets = buckets

    def __len__(self) -> int:
        return sum(map(len, self.buckets))

    def __iter__(self) -> Iterator[Key]:
        return chain.from_iterable(self.buckets)


class _Terms(dict):
    """Token -> ``Term``, rebuilt from the token when first looked up; ``numbers`` maps each numeric token to its number.

    A token is checked before it enters a graph, so a lookup rebuilds its
    term without checking it again: the value sliced from the token and
    unescaped, the datatype read from its suffix, and the number from
    ``numbers``.
    """

    def __init__(self, terms: Optional[_Terms] = None):
        super().__init__(terms or ())
        self.numbers = {} if terms is None else terms.numbers.copy()

    def __missing__(self, token: str) -> Term:
        term = _new_term(Term)
        if token[0] == "<":
            _set_value(term, token[1:-1])
            _set_datatype(term, None)
            _set_num(term, None)
        else:
            end = token.rindex('"')
            _set_value(term, unescape_literal(token[1:end]))
            # the datatype IRI follows the closing quote and ``^^<``
            _set_datatype(term, _DATATYPES[token[end + 4 : -1]])
            _set_num(term, self.numbers.get(token))
        self[token] = term
        return term

    def file(self, token: str, term: Term) -> Term:
        """The term under ``token``: ``term``, unless an equal one is there already."""
        term = self.setdefault(token, term)
        if term._num is not None:
            self.numbers[token] = term._num
        return term


class Graph:
    """Insertion-ordered set of triples, stored by their ``Key``s, with nested indexes built when first read.

    ``_triples`` holds each triple's key once; length, membership and
    iteration read it, and iteration follows the order in which each triple
    was first inserted.  Keys hash and compare in C, so no ``Term`` or
    ``Triple`` is made per stored triple.  ``_terms`` turns a token into its
    ``Term`` only at the edges: iteration, which yields ``Triple``s, and the
    rows of a join.

    Every token of a key was checked when it entered the graph, and each
    numeric token's number filed in ``_terms.numbers``: the bulk reader of
    ``import_ntriples`` checks its tokens by kind, and every other token is
    the ``str`` of a ``Term``, which checked itself when built, filed by
    ``_key`` or, for a rule head's constants, by ``rules.forward_chain``.
    So ``_terms`` rebuilds a token's ``Term`` on its first read without
    checking it again.  ``insert`` of a key is internal to the package, for
    keys of such tokens; a caller outside it inserts ``Triple``s.

    ``_indexes`` is None until ``candidates`` first gets a
    pattern with a token, or a join first reads them.  That read builds both
    indexes in one pass over the set and publishes them with one
    assignment, so a concurrent reader sees either no indexes or whole ones.
    From then on ``insert`` files each new key in both.  The first index
    maps subject to predicate to the keys with both, the second predicate to
    object to the keys with both, in plain dicts of dicts of lists.  Each
    key is in one list of each index, in insertion order, and no list is
    ever empty.  ``candidates`` returns exactly the keys that agree with a
    pattern's tokens, and a join level reads the bucket that does, so a
    match only has to bind its variables.

    Single writer or multiple readers at any moment; callers must not
    interleave a writer with readers.  A bucket or ``_Buckets`` from
    ``candidates``, and a join being iterated, are valid until the next
    insert.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        """A graph of ``triples``, filled without ``insert``, as no index exists yet; a copy builds no ``Triple``."""
        if isinstance(triples, Graph):
            self._triples, self._terms = triples._triples.copy(), _Terms(triples._terms)
        else:
            self._terms = _Terms()
            self._triples: dict[Key, None] = dict.fromkeys(map(self._key, triples))
        self._indexes: Optional[tuple[_Nested, _Nested]] = None

    @classmethod
    def _of(cls, triples: dict[Key, None], terms: _Terms) -> Graph:
        """A graph that holds the keys of ``triples`` and reads their terms from ``terms``."""
        g = cls()
        g._triples, g._terms = triples, terms
        return g

    def _key(self, t: Triple) -> Key:
        """The key of ``t``, with its terms filed in the table."""
        return self._token(t.subject), self._token(t.predicate), self._token(t.object)

    def _token(self, term: Term) -> str:
        """The token of ``term``, with ``term`` filed in the table under it."""
        token = str(term)
        self._terms.file(token, term)
        return token

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        """In the order each triple was first inserted."""
        terms = self._terms
        return (Triple(terms[s], terms[p], terms[o]) for s, p, o in self._triples)

    def __contains__(self, t: Union[Triple, Key]) -> bool:
        return (t if t.__class__ is tuple else (str(t.subject), str(t.predicate), str(t.object))) in self._triples

    def insert(self, t: Union[Triple, Key]) -> int:
        """Add a triple, or, from inside the package, the key of one; returns the graph size afterwards."""
        key = t if t.__class__ is tuple else self._key(t)
        triples = self._triples
        size = len(triples)
        # an equal triple already in the set keeps its place, and the table its terms
        triples[key] = None
        if len(triples) > size and self._indexes is not None:
            _index_triple(*self._indexes, key)
        return len(triples)

    def _indexed(self) -> tuple[_Nested, _Nested]:
        """Both indexes, built from the set in one pass if they are not yet."""
        indexes = self._indexes
        if indexes is None:
            spo, pos = {}, {}
            for t in self._triples:
                _index_triple(spo, pos, t)
            indexes = self._indexes = (spo, pos)
        return indexes

    def candidates(self, pattern: tuple[Optional[str], Optional[str], Optional[str]]) -> Iterable[Key]:
        """The keys that agree with every token of ``pattern``, None for a variable: what ``join`` sizes a pattern by.

        A pattern with no token returns the set of keys itself and builds no
        index.  Otherwise ``(s, p)`` and ``(p, o)`` return one bucket; ``s``
        or ``p`` alone returns its inner dict's buckets as one ``_Buckets``,
        sized without a list; each is valid until the next insert.
        ``(s, p, o)`` filters the ``(s, p)`` bucket, ``(s, o)`` the
        subject's keys, and ``o`` alone gathers its bucket under every
        predicate, each into a new list: a snapshot.  A join's later levels
        read the same buckets straight from the indexes, in code that
        ``join`` generates, with no call to this method.
        """
        s, p, o = pattern
        if s is None and p is None and o is None:
            return self._triples
        spo, pos = self._indexed()
        if s is not None:
            by_p = spo.get(s)
            if by_p is None:
                return ()
            by_s = by_p.get(p, ()) if p is not None else _Buckets(by_p.values())
            return [t for t in by_s if t[2] == o] if o is not None else by_s
        if p is not None:
            by_o = pos.get(p)
            if by_o is None:
                return ()
            return by_o.get(o, ()) if o is not None else _Buckets(by_o.values())
        return [t for by_o in pos.values() for t in by_o.get(o, ())]


#: A variable and a test on the term bound to it.  The join runs the test on
#: a candidate's term before it builds a binding for the candidate.
Check = tuple[str, Callable[[Term], bool]]

#: each comparator's function, on two numbers or two strings, and its spelling in a generated loop nest
_COMPARATORS = {">": (operator.gt, ">"), "<": (operator.lt, "<"), ">=": (operator.ge, ">="),
                "<=": (operator.le, "<="), "=": (operator.eq, "=="), "!=": (operator.ne, "!=")}


class _Comparison(namedtuple("_Comparison", "comparator field operand")):
    """``?v <comparator> operand`` on a number's ``_num`` or a string's ``value``, which ``join`` writes inline."""

    def __call__(self, term: Term) -> bool:
        value = getattr(term, self.field)
        comparable = value is not None and (self.field == "_num" or term.datatype is Datatype.STRING)
        return comparable and _COMPARATORS[self.comparator][0](value, self.operand)


def comparison(comparator: str, operand: Term) -> Callable[[Term], bool]:
    """``?v <comparator> operand`` compiled to a test on the term bound to ``?v``.

    As in SPARQL 1.1: a numeric operand compares by value with an integer
    or decimal term, and a string operand compares lexically with a string
    term.  Any other pair is incomparable and fails, so a string that
    spells a number never compares with a number.
    """
    if comparator not in _COMPARATORS:
        raise ValueError(f"unknown comparator {comparator!r}")
    if operand._num is not None:
        return _Comparison(comparator, "_num", operand._num)
    if operand.datatype is Datatype.STRING:
        return _Comparison(comparator, "value", operand.value)
    return lambda term: False


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
    select: Optional[Sequence[str]] = None,
) -> Iterator:
    """Every extension of ``binding`` that matches all patterns and passes all checks.

    Each extension comes as a new dict, or, when ``select`` names
    variables, as the tuple of their terms in that order.  A select
    variable that neither ``binding`` nor a pattern binds is a
    ``ValueError`` once the join is planned, which a pattern with no
    candidates forestalls.

    The patterns are matched against ``graph`` by an index nested loop,
    planned once per call.  Every pattern is sized by its
    ``Graph.candidates`` under ``binding``, with its terms as tokens, and a
    pattern with none ends the call.  The smallest goes first, ties to the
    lowest index; each next level takes the smallest of the patterns that
    share a variable with those placed, or of all left if none does.  The
    plan runs as one generated function, a nest of one ``for`` per level, in
    depth-first order.  A level that no earlier level feeds reads the bucket
    it was sized from; every other level reads its exact bucket from the
    graph's indexes, one lookup per binding, so a candidate only binds the
    fresh variables.  A check tests the term bound to its variable: the
    terms of ``binding`` first, then, at the level that binds the variable,
    the term in the candidate's slot, before any binding is built; a
    ``comparison`` runs inline.  A check whose variable nothing binds fails
    every row.  A fresh variable that fills two or three slots of a pattern
    adds, after its own checks, one test that those slots hold one term.
    The nest binds tokens, which become ``Term``s only where it yields.  A
    plan deeper than ``_MAX_LEVELS`` joins the rest of its patterns under
    each binding of its first levels.

    The generated source is built only from fixed fragments, local names
    made from integers, and slot indices.  Every token, test, operand and
    variable name reaches the function as an argument, so no query text,
    rule text or term value is ever part of the source.  Functions are
    cached by the plan's shape: each slot's kind, each check's slot and
    comparison, and the output form.
    """
    binding = {} if binding is None else binding
    if checks:
        if not all(test(binding[variable]) for variable, test in checks if variable in binding):
            return iter(())
        checks = [c for c in checks if c[0] not in binding]
    sized = []
    for pattern in patterns:
        bound = substitute(pattern, binding)
        keys = tuple([None if isinstance(slot, str) else str(slot) for slot in bound])
        bucket = graph.candidates(keys)
        size = len(bucket)
        if not size:
            return iter(())
        sized.append((size, bound, keys, bucket))
    # the plan's shape, from which alone the source is made, and what the
    # function reads: the buckets of levels that no earlier level feeds, the
    # constant tokens of the others, and the tests' callables or operands
    levels, buckets, tokens, tests = [], [], [], []
    # each variable that a level binds, by the number of its local
    local: dict[str, int] = {}
    left = list(range(len(sized)))
    while left and len(levels) < _MAX_LEVELS:
        if len(left) > 1:
            linked = [i for i in left if not local.keys().isdisjoint(sized[i][1].variables())]
            chosen = min(linked or left, key=lambda i: sized[i][0])
        else:
            chosen = left[0]
        left.remove(chosen)
        _, bound, keys, bucket = sized[chosen]
        slots, fresh, constants, fed = [], {}, [], False
        for k, slot in enumerate(bound):
            if not isinstance(slot, str):
                slots.append(("c", 0))
                constants.append(keys[k])
            elif slot in local:
                slots.append(("b", local[slot]))
                fed = True
            elif slot in fresh:
                slots.append(("r", fresh[slot]))
            else:
                fresh[slot] = k
                slots.append(("f", 0))
        if fed:
            tokens += constants
        else:
            buckets.append(bucket)
        # each check that this level's variables make runnable, on the first
        # slot that holds its term; a comparison by its comparator and field
        now = [(fresh[variable], test) for variable, test in checks if variable in fresh]
        tests += [test.operand if isinstance(test, _Comparison) else test for _, test in now]
        levels.append((tuple(slots), tuple((k, *t[:2]) if isinstance(t, _Comparison) else (k,) for k, t in now)))
        checks = [c for c in checks if c[0] not in fresh]
        for variable in fresh:
            local[variable] = len(local)
    deeper = [sized[i][1] for i in left] if left else None
    names, seeded = (), []
    if select is None or deeper:
        output, names = "dict", tuple(local)
    else:
        output = []
        for variable in select:
            if variable in local:
                output.append(("v", local[variable]))
            elif variable in binding:
                output.append(("z", len(seeded)))
                seeded.append(binding[variable])
            else:
                raise ValueError(f"select variable {variable} is not bound by any pattern")
        output = tuple(output)
    if checks and not deeper:
        return iter(())
    # a level that an earlier one feeds gave no bucket: it reads the indexes
    spo, pos = graph._indexed() if len(buckets) < len(levels) else (None, None)
    rows = _compile((tuple(levels), output))(binding, buckets, tokens, tests, names, seeded, spo, pos, graph._terms)
    if deeper:
        return chain.from_iterable(join(deeper, graph, checks, extended, select) for extended in rows)
    return rows


#: the most levels that one generated function nests: each is one ``for``,
#: and Python allows 20 nested blocks
_MAX_LEVELS = 16

#: the inner dict that a probe reads for a key its index lacks
_NO_KEY = MappingProxyType({})

#: a comparison of the term of token ``{0}``, by the field it reads; ``U`` holds each numeric token's number
_INLINE = {"_num": "{0} in U and U[{0}] {1} {2}", "value": "(x := T[{0}]).datatype is S and x.value {1} {2}"}


@lru_cache(maxsize=256)
def _compile(shape: tuple) -> Callable[..., Iterator]:
    """The generator function that runs a plan of this shape, with no builtins in reach."""
    namespace = {"__builtins__": {}, "flat": chain.from_iterable, "E": _NO_KEY, "S": Datatype.STRING}
    exec(compile(_source(shape), "<join plan>", "exec"), namespace)
    return namespace["nest"]


def _source(shape: tuple) -> str:
    """The loop nest for a plan's shape, as ``join`` describes it.

    ``shape`` is the levels, each as its three slots and its checks, and
    the output form.  A check is ``(k,)``, a test called on slot ``k``'s
    term, or ``(k, comparator, field)``, a ``_Comparison`` written inline.
    A slot is ``("c", 0)`` for a constant, ``("b", j)`` for the variable
    that local ``vj`` holds, ``("f", 0)`` for a fresh variable, which takes
    the next ``vj``, and ``("r", k)`` for a repeat of the fresh variable in
    slot ``k``.  The output is ``"dict"``, or one ``("v", j)`` or
    ``("z", i)`` per select variable: local ``vj``, or the ``i``-th term of
    ``binding`` that a select variable reads.
    """
    levels, output = shape
    lines, bucket, constant, test, var = [], 0, 0, 0, 0
    for depth, (slots, checks) in enumerate(levels, start=1):
        pad, t = "    " * depth, f"t{depth}"
        # each concrete slot's local, for a level that an earlier one feeds
        s = p = o = None
        if any(tag == "b" for tag, _ in slots):
            concrete = []
            for tag, n in slots:
                if tag == "c":
                    concrete.append(f"c{constant}")
                    constant += 1
                else:
                    concrete.append(f"v{n}" if tag == "b" else None)
            s, p, o = concrete
        if s is None and p is None and o is None:
            source = f"f{bucket}"
            bucket += 1
        elif s is not None:
            source = f"spo.get({s}, E).get({p}, ())" if p is not None else f"flat(spo.get({s}, E).values())"
        elif p is not None:
            source = f"pos.get({p}, E).get({o}, ())" if o is not None else f"flat(pos.get({p}, E).values())"
        else:
            source = f"flat(by_o.get({o}, ()) for by_o in pos.values())"
        tests = [f"{t}[2] == {o}"] if s is not None and o is not None else []
        for k, *inline in checks:
            tests.append(_INLINE[inline[1]].format(f"{t}[{k}]", _COMPARATORS[inline[0]][1], f"k{test}")
                         if inline else f"k{test}(T[{t}[{k}]])")
            test += 1
        tests += [f"{t}[{k}] == {t}[{n}]" for k, (tag, n) in enumerate(slots) if tag == "r"]
        lines.append(f"{pad}for {t} in {source}:")
        lines += [f"{pad}    if not ({x}): continue" for x in tests]
        for k, (tag, _) in enumerate(slots):
            if tag == "f":
                lines.append(f"{pad}    v{var} = {t}[{k}]")
                var += 1
    pad = "    " * (len(levels) + 1)
    if output == "dict":
        lines.append(pad + "yield {**B" + "".join(f", n{j}: T[v{j}]" for j in range(var)) + "}")
        named, seeded = var, 0
    else:
        lines.append(pad + "yield (" + "".join(f"T[v{n}], " if tag == "v" else f"z{n}, " for tag, n in output) + ")")
        named, seeded = 0, sum(tag == "z" for tag, _ in output)
    header = ["def nest(B, F, C, K, N, Z, spo, pos, T):", "    U = T.numbers"]
    for argument, letter, count in (("F", "f", bucket), ("C", "c", constant), ("K", "k", test), ("N", "n", named),
                                    ("Z", "z", seeded)):
        if count:
            header.append(f"    {', '.join(f'{letter}{i}' for i in range(count))}, = {argument}")
    return "\n".join(header + lines) + "\n"


# --- N-Triples-style flat-file serialization -------------------------------


def export_ntriples(g: Graph) -> str:
    """One triple per line, sorted for byte-stable output: the stored tokens, with no ``Term`` made.

    Literals escape the N-Triples ECHAR set and write the other line breaks
    as ``\\uXXXX``, so every literal round-trips through ``import_ntriples``.
    """
    lines = sorted(starmap("{} {} {} .".format, g._triples))
    # the empty last line ends the text with a newline, without a second
    # copy of every line
    lines.append("")
    return "\n".join(lines)


#: One term token of a statement: a quoted literal with whatever follows it
#: up to the next whitespace, any other run of non-whitespace, or a lone
#: quote that no closing quote ends.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"\S*|[^\s"]\S*|"', re.S)
#: A literal token's body and datatype IRI.
_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"\^\^<(\S*)>', re.S)
#: IRI tokens with no whitespace, which ``Term`` accepts, joined by single spaces.
_IRIS = re.compile(r"<\S+>(?: <\S+>)*")
_DATATYPES = {dt.value: dt for dt in Datatype}


def _parse_term(token: str) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return Term(token[1:-1])
    if token.startswith('"'):
        m = _LITERAL.fullmatch(token)
        if m is None:
            raise RdfError(f"literal missing ^^<datatype>: {token!r}")
        dt = _DATATYPES.get(m[2])
        if dt is None:
            raise RdfError(f"unsupported datatype <{m[2]}>")
        return Term(unescape_literal(m[1]), dt)
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


def _read_lines(text: str) -> Iterator[Triple]:
    """Each statement of ``text``, read line by line by the general tokenizer, each distinct token parsed once."""
    terms: dict[str, Term] = {}
    try:
        for lineno, line in enumerate(split_lines(text), start=1):
            tokens = _tokens(line)
            if tokens is not None:
                for token in tokens:
                    if token not in terms:
                        terms[token] = _parse_term(token)
                s, p, o = tokens
                yield Triple(terms[s], terms[p], terms[o])
    except RdfError as exc:
        raise RdfError(f"line {lineno}: {exc}") from None


def _read_bulk(text: str, terms: _Terms) -> Optional[dict[Key, None]]:
    """The keys of ``text`` if it is all in ``export_ntriples`` form, its numbers filed in ``terms``; else None.

    Counts check that each line ends in `` .\\n`` and splits at spaces into
    four items; a line end out of place stays among the tokens, which no
    token form takes.  The distinct tokens are checked in bulk, by kind, and
    no ``Term`` is made: every IRI, subject, predicate or object, by one
    regex over them all, and the literals by ``_check_literals``.  A literal
    that export writes another way is stored as export writes it.
    """
    lines = text.count("\n")
    if "\r" in text or not text.endswith("\n") or text.count(" .\n") != lines:
        return None
    flat = text.replace(" .\n", " \n ").split(" ")
    if len(flat) != 4 * lines + 1:
        return None
    del flat[3::4]
    flat.pop()
    # the distinct tokens in the order they first appear, copied into new
    # strings that lie together in memory, in that order
    distinct = dict.fromkeys(flat)
    canonical = dict(zip(distinct, " ".join(distinct).split(" ")))
    # in that order too, so that the numbers are filed as a scan reads them
    literals = [token for token in distinct if token[:1] == '"']
    # every other token, and every subject and predicate, even one that looks like a literal
    iris = distinct.keys() - literals
    iris.update(flat[0::3], flat[1::3])
    # no token holds a space, so the join matches only if each token does
    if not _IRIS.fullmatch(" ".join(iris)):
        return None
    if not _check_literals(literals, canonical, terms.numbers):
        return None
    tokens = map(canonical.__getitem__, flat)
    return dict.fromkeys(zip(tokens, tokens, tokens))


def _check_literals(literals: list[str], canonical: dict[str, str], numbers: dict[str, float]) -> bool:
    """Whether ``Term`` accepts every literal token of ``literals``, checked in bulk, one datatype at a time.

    A token is grouped by the suffix of its datatype, and one group's bodies
    are split from one join of its tokens.  Only a token whose body holds a
    character that export escapes is parsed alone, and ``canonical`` maps it
    to the token that export writes.  A numeric group's lexical forms are
    checked by one ``strip`` of their join and read by ``float``, and each
    number is filed in ``numbers`` under its canonical token.
    """
    grouped = 0
    for dt, suffix in _SUFFIXES.items():
        # a token that is the suffix alone has no opening quote
        group = [token for token in literals if token.endswith(suffix) and token != suffix]
        if not group:
            continue
        grouped += len(group)
        # no token holds a space, so the bodies are what lies between the joins
        bodies = " ".join(group)[1 : -len(suffix)].split(suffix + ' "')
        if _NEEDS_ESCAPE.search("".join(bodies)):
            for i, body in enumerate(bodies):
                if _NEEDS_ESCAPE.search(body):
                    try:
                        term = _parse_term(group[i])
                    except RdfError:
                        return False
                    token = canonical[group[i]] = str(term)
                    bodies[i] = token[1 : -len(suffix)]
        if dt in _NUMERALS:
            if "".join(bodies).strip(_NUMERALS[dt]):
                return False
            try:
                values = list(map(float, bodies))
            except ValueError:
                return False
            if not all(map(math.isfinite, values)):
                return False
            numbers.update(zip(map(canonical.__getitem__, group), values))
    return grouped == len(literals)


def import_ntriples(text: str) -> Graph:
    """Parse the flat-file format back into a Graph, which stores each triple by its terms' canonical tokens.

    A text all in ``export_ntriples`` form is read in one bulk pass, and
    any other line by line, which defines the accepted syntax and its
    errors: each carries the 1-based line number and a reason.
    """
    terms = _Terms()
    triples = _read_bulk(text, terms)
    return Graph(_read_lines(text)) if triples is None else Graph._of(triples, terms)
