"""In-memory RDF triple store: a set of triples as N-Triples tokens, with exact-bucket indexes built when first read.

Terms are IRIs or typed literals (string / integer / decimal).  Blank nodes
are deliberately unsupported; ingestion mints deterministic IRIs instead.

``join`` is the one pattern matcher: rule bodies, the seeds of each
semi-naive chaining round and SPARQL queries all evaluate through it, each
plan written as one generator expression, compiled once per source text.
``comparison`` is the one comparison, which a SPARQL ``FILTER`` and a
rule's ``greaterThan`` share, written into a plan as one inline fragment,
and ``Cursor`` the one token cursor of both parsers.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain, starmap
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence, Union

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_WHITESPACE = re.compile(r"\s")
#: a lone surrogate: no UTF-8 text holds one, so no term's value may
_SURROGATE = re.compile("[\ud800-\udfff]")

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
        if not isinstance(value, str):
            raise RdfError(f"term value must be a str, got {type(value).__name__}")
        if datatype is not None and not isinstance(datatype, Datatype):
            raise RdfError(f"term datatype must be None or a Datatype, got {datatype!r}")
        if not value.isascii() and _SURROGATE.search(value):
            raise RdfError(f"term {value!r} holds a surrogate code point")
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

#: the characters of each numeric datatype's lexical form, which ``float`` must also read
_NUMERALS = {Datatype.INTEGER: "0123456789+-", Datatype.DECIMAL: "0123456789+-.eE"}


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

    A tuple, which compares and hashes by its slots; its variable names are
    checked once, when it is built, and a join binds them to tokens.
    """

    __slots__ = ()

    def __new__(cls, subject: Slot, predicate: Slot, object: Slot):
        for slot in (subject, predicate, object):
            if isinstance(slot, str):
                if len(slot) < 2 or not slot.startswith("?"):
                    raise RdfError(f"invalid variable name: {slot!r}")
            elif not isinstance(slot, Term):
                raise RdfError(f"pattern slot {slot!r} is neither a Term nor a ?name variable")
        return tuple.__new__(cls, (subject, predicate, object))

    def variables(self) -> list[str]:
        return [s for s in self if isinstance(s, str)]


Binding = dict[str, Term]

#: A stored triple: its terms' tokens, ``str(term)``, one string per distinct ``Term``.
Key = tuple[str, str, str]

_Nested = dict[str, dict[str, list[Key]]]

#: the inner dict that a probe reads for a key its index lacks
_NO_KEY = MappingProxyType({})


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


class Graph:
    """Insertion-ordered set of triples, stored by their ``Key``s, with nested indexes built when first read.

    ``_triples`` holds each triple's key once; length, membership and
    iteration read it, and iteration follows the order in which each triple
    was first inserted.  Keys hash and compare in C, so no ``Term`` or
    ``Triple`` is made per stored triple.  ``_terms`` turns a token into its
    ``Term`` only at the edges: iteration, which yields ``Triple``s, and the
    callers of a join, whose rows are tokens.

    Every token of a key was checked when it entered the graph, and each
    numeric token's number filed in ``_terms.numbers``: the bulk reader of
    ``import_ntriples`` checks its tokens by kind, and every other token is
    the ``str`` of a ``Term``, which checked itself when built, filed by
    ``_token``: for ``_key``, or for a rule head's constants in
    ``rules._derive``.  A join files nothing.  So ``_terms`` rebuilds a
    token's ``Term`` on its first read without checking it again.
    ``insert`` of a key is internal to the package, for keys of such
    tokens; a caller outside it inserts ``Triple``s.

    ``_indexes`` is None until ``count`` first gets a pattern with one or
    two tokens, or a join first reads them.  That read builds both indexes
    in one pass over the set and publishes them with one assignment, so a
    concurrent reader sees either no indexes or whole ones.  From then on
    ``insert`` files each new key in both.  The first index maps subject to
    predicate to the keys with both, the second predicate to object to the
    keys with both, in plain dicts of dicts of lists.  Each key is in one
    list of each index, in insertion order, and no list is ever empty.
    ``count`` sizes a pattern from them, and a join level reads the keys
    that agree with its tokens straight from them, so a match only has to
    bind its variables.

    Single writer or multiple readers at any moment; callers must not
    interleave a writer with readers.  A join being iterated is valid until
    the next insert.
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
        """The token of ``term``, with ``term`` filed in the table under it, unless an equal one is there already."""
        token = str(term)
        term = self._terms.setdefault(token, term)
        if term._num is not None:
            self._terms.numbers[token] = term._num
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

    def count(self, tokens: tuple[Optional[str], Optional[str], Optional[str]]) -> int:
        """How many keys agree with every token of ``tokens``, None for a variable: what ``join`` sizes a pattern by.

        No key is gathered into a list.  A pattern with no token counts the
        set, and one with three looks its key up there; neither builds an
        index.  ``(s, o)`` looks up one key per predicate of the subject,
        ``o`` alone sums its bucket's length under every predicate, and any
        other pattern sums the lengths of the buckets its tokens select.
        """
        s, p, o = tokens
        triples = self._triples
        if s is None and p is None and o is None:
            return len(triples)
        if s is not None and p is not None and o is not None:
            return int(tokens in triples)
        spo, pos = self._indexed()
        if s is not None:
            by_p = spo.get(s, _NO_KEY)
            if p is not None:
                return len(by_p.get(p, ()))
            return sum(map(len, by_p.values())) if o is None else sum((s, q, o) in triples for q in by_p)
        if p is not None:
            by_o = pos.get(p, _NO_KEY)
            return len(by_o.get(o, ())) if o is not None else sum(map(len, by_o.values()))
        return sum(len(by_o.get(o, ())) for by_o in pos.values())


#: each comparator's spelling in a generated plan
_COMPARATORS = {">": ">", "<": "<", ">=": ">=", "<=": "<=", "=": "==", "!=": "!="}


class _Comparison(namedtuple("_Comparison", "comparator field operand")):
    """``?v <comparator> operand`` on a number's ``_num`` or a string's ``value``, which ``join`` writes inline."""


#: A variable and the comparison that the term bound to it must pass.
Check = tuple[str, _Comparison]


def comparison(comparator: str, operand: Term) -> _Comparison:
    """``?v <comparator> operand`` compiled to a test on the term bound to ``?v``.

    As in SPARQL 1.1: a numeric operand compares by value with an integer
    or decimal term, and a string operand compares lexically with a string
    term.  Any other pair is incomparable and fails, so a string that
    spells a number never compares with a number.  An unknown comparator,
    or an IRI operand, is a ``ValueError``.
    """
    if comparator not in _COMPARATORS:
        raise ValueError(f"unknown comparator {comparator!r}")
    if operand._num is not None:
        return _Comparison(comparator, "_num", operand._num)
    if operand.datatype is Datatype.STRING:
        return _Comparison(comparator, "value", operand.value)
    raise ValueError(f"comparison operand {operand} is not a literal")


def join(
    patterns: Sequence[TriplePattern],
    graph: Graph,
    select: Sequence[str],
    checks: Sequence[Check] = (),
    binding: Optional[dict[str, str]] = None,
) -> Iterator[tuple[str, ...]]:
    """A row for every extension of ``binding`` that matches all patterns and passes all checks.

    ``binding`` maps variables to tokens that ``graph._terms`` holds, as a
    row's are.  A row is the tuple of the tokens of ``select``'s variables,
    in that order, which ``graph._terms`` maps to their ``Term``s; a bound
    variable's is the token object of ``binding``.  A join writes nothing
    to ``graph``.  A row holds only strings, so the collector stops
    tracking it at its first collection.  A select variable that neither
    ``binding`` nor a pattern binds is a ``ValueError``, whatever the data.
    With no patterns, the one row reads ``binding``.

    The patterns are matched against ``graph`` by an index nested loop,
    planned once per call.  Every pattern is sized by its ``Graph.count``,
    with its terms and bound variables as tokens, and a pattern with none
    ends the call.  The smallest goes first, ties to the lowest index; each
    next level takes the smallest of the patterns that share a variable with
    those placed, or of all left if none does, which ``_order`` finds from a
    map of each variable to the patterns that hold it.  The plan runs as one
    generator expression, written as each level is placed, with one ``for``
    clause per level and no cap on their number.  Each level reads the keys
    that agree with its constant tokens and the tokens its bound variables
    hold, straight from the graph's indexes, one lookup per binding; a level
    with neither reads the set of keys, and a plan of only such levels
    builds no index.  A variable of ``binding`` is read as the argument
    that holds its token, and any other as the slot of the level that binds
    it, alike by a slot, a check and a row; no ``Term`` is built for a row.
    Each check is a ``comparison``, an ``if`` clause on its variable's token
    after the level that binds its variable, before any row is built.  A
    check on a variable of ``binding`` is the same fragment, compiled on its
    own and tested once, before any pattern is sized, so one that fails ends
    the call with no ``Graph.count``.  A check whose variable nothing binds
    fails every row.  A fresh variable that fills two or three slots of a
    pattern adds, after its level's checks, one clause that those slots
    hold one token.

    The generated source is built only from fixed fragments, local names
    made from integers, and slot indices.  Every token, operand and token of
    ``binding`` reaches the function as an argument ``a<i>``, so no query
    text, rule text, term value or variable name is ever part of the source,
    and the source is the key of the cache of compiled functions: plans that
    differ only in terms and names share one.
    """
    binding = {} if binding is None else binding
    # each pattern's variables that ``binding`` leaves to the plan
    unbound = [[v for v in pattern.variables() if v not in binding] for pattern in patterns]
    bound = set(binding).union(*unbound)
    for variable in select:
        if variable not in bound:
            raise ValueError(f"select variable {variable} is not bound by any pattern")
    if not all(variable in bound for variable, _ in checks):
        return iter(())
    # the source text of the argument or slot that binds each variable
    local = {variable: f"a{i}" for i, variable in enumerate(binding)}
    # the plan's arguments a0, a1, ...: the tokens of ``binding``, then each
    # constant token and operand as its level is placed
    arguments = list(binding.values())
    # the checks on variables of ``binding`` are tested once, here, before any pattern is sized
    seeded = _inline(checks, local, arguments)
    if seeded:
        test = _compile(f"lambda {_parameters(len(arguments), 'T', 'U')}: {' and '.join(seeded)}")
        if not test(*arguments, graph._terms, graph._terms.numbers):
            return iter(())
        del arguments[len(binding) :]
    sized = []
    for pattern in patterns:
        tokens = tuple([binding.get(slot) if isinstance(slot, str) else str(slot) for slot in pattern])
        size = graph.count(tokens)
        if not size:
            return iter(())
        sized.append((size, pattern, tokens))
    clauses = []
    probed = False
    for depth, chosen in enumerate(_order([size for size, _, _ in sized], unbound), 1):
        _, pattern, tokens = sized[chosen]
        t = f"t{depth}"
        # each slot's token, as the source reads it, or None for a fresh variable
        concrete, fresh, repeats = [], {}, []
        for k, slot in enumerate(pattern):
            if not isinstance(slot, str):
                concrete.append(f"a{len(arguments)}")
                arguments.append(tokens[k])
            elif slot in local:
                concrete.append(local[slot])
            else:
                concrete.append(None)
                if slot in fresh:
                    repeats.append(f"if {t}[{k}] == {fresh[slot]}")
                else:
                    fresh[slot] = f"{t}[{k}]"
        probed = probed or any(concrete)
        s, p, o = concrete
        clauses.append(f"for {t} in {_read(s, p, o)}")
        if s is not None and o is not None:
            clauses.append(f"if {t}[2] == {o}")
        clauses += ["if " + test for test in _inline(checks, fresh, arguments)]
        clauses += repeats
        local.update(fresh)
    row = [local[variable] for variable in select]
    # only a level with a token or a bound slot reads the indexes
    spo, pos = graph._indexed() if probed else (None, None)
    plan = _compile(
        f"lambda {_parameters(len(arguments), 'X', 'spo', 'pos', 'T', 'U')}: "
        f"(({''.join(r + ', ' for r in row)}) {' '.join(clauses or ['for _ in (0,)'])})"
    )
    return plan(*arguments, graph._triples, spo, pos, graph._terms, graph._terms.numbers)


def _parameters(count: int, *names: str) -> str:
    """A generated function's parameters: ``a0, a1, ...``, ``count`` of them, then ``names``."""
    return ", ".join([f"a{i}" for i in range(count)] + list(names))


def _inline(checks: Sequence[Check], names: dict[str, str], arguments: list) -> list[str]:
    """The test of each check on a variable that ``names`` maps to its token's source; operands join ``arguments``."""
    tests = []
    for variable, test in checks:
        if variable in names:
            tests.append(_INLINE[test.field].format(names[variable], _COMPARATORS[test.comparator], f"a{len(arguments)}"))
            arguments.append(test.operand)
    return tests


def _order(sizes: list[int], variables: list[list[str]]) -> list[int]:
    """The indices of patterns of these sizes and variables in the order that ``join`` places them.

    Each variable maps to the patterns that hold it, so a placed pattern
    pushes onto the heap of linked ones, keyed ``(size, index)``, only the
    patterns that its variables newly reach.  With no pattern linked, the
    next is the first unplaced one in ``(size, index)`` order.
    """
    holding: dict[str, list[int]] = {}
    for i, names in enumerate(variables):
        for name in names:
            holding.setdefault(name, []).append(i)
    ranked = iter(sorted(range(len(sizes)), key=sizes.__getitem__))
    order, queued, linked = [], set(), []
    while len(order) < len(sizes):
        if linked:
            _, chosen = heappop(linked)
        else:
            chosen = next(i for i in ranked if i not in queued)
            queued.add(chosen)
        order.append(chosen)
        for name in variables[chosen]:
            for i in holding.pop(name, ()):
                if i not in queued:
                    queued.add(i)
                    heappush(linked, (sizes[i], i))
    return order


#: a comparison of the term of token ``{0}``, by the field it reads; ``U`` holds each numeric token's number
_INLINE = {"_num": "{0} in U and U[{0}] {1} {2}", "value": "(x := T[{0}]).datatype is S and x.value {1} {2}"}


def _read(s: Optional[str], p: Optional[str], o: Optional[str]) -> str:
    """The source that reads the keys agreeing with a level's slot tokens, each text or None: ``X`` if all are None."""
    if s is None and p is None and o is None:
        return "X"
    if s is not None:
        return f"spo.get({s}, E).get({p}, ())" if p is not None else f"flat(spo.get({s}, E).values())"
    if p is not None:
        return f"pos.get({p}, E).get({o}, ())" if o is not None else f"flat(pos.get({p}, E).values())"
    return f"flat(by_o.get({o}, ()) for by_o in pos.values())"


@lru_cache(maxsize=256)
def _compile(source: str) -> Callable[..., Iterator]:
    """The function that a plan's source defines, compiled with no builtins in reach."""
    namespace = {"__builtins__": {}, "flat": chain.from_iterable, "E": _NO_KEY, "S": Datatype.STRING}
    return eval(compile(source, "<join plan>", "eval"), namespace)


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


#: a cursor's token: its group's name, its text and where it starts in the text
Token = tuple[str, str, int]


class Cursor:
    """The tokens of ``text``, read in order, that the rule and query parsers share.

    Each match of ``pattern`` is a token named by its group; ``WS`` tokens
    are dropped and an ``EOF`` token ends the list.  ``fail`` raises
    ``error(message, line, column)`` at a token, its line counted by
    ``split_lines`` from ``first_line`` and its column from 1.
    """

    def __init__(self, pattern: re.Pattern, text: str, error: type[Exception], first_line: int = 1):
        self.text, self.error, self.first_line = text, error, first_line
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in pattern.finditer(text) if m.lastgroup != "WS"]
        self.tokens.append(("EOF", "", len(text)))
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """The next token, taken, if a ``kind`` that, given ``text``, reads ``text`` upper-cased, as a keyword may."""
        tok = self.tokens[self.index]
        if tok[0] != kind or text is not None and tok[1].upper() != text:
            return None
        self.index += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        """``accept``'s token, or an error naming ``text``, if given, or else ``kind``."""
        tok = self.accept(kind, text)
        if tok is None:
            self.fail(f"expected {kind if text is None else repr(text)}, got {self.peek()[1]!r}")
        return tok

    def fail(self, message: str, tok: Optional[Token] = None) -> NoReturn:
        """Raises ``message`` at ``tok``, or at the next token."""
        lines = split_lines(self.text[: (tok or self.peek())[2]])
        raise self.error(message, self.first_line + len(lines) - 1, len(lines[-1]) + 1)


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


#: about how many characters of whole lines the bulk reader splits at a time
_BLOCK = 1 << 18


def _read_bulk(text: str, terms: _Terms) -> Optional[dict[Key, None]]:
    """The keys of ``text`` if it is all in ``export_ntriples`` form, its numbers filed in ``terms``; else None.

    The text is read in blocks of whole lines, about ``_BLOCK`` characters
    each, so that only one block's split strings are alive at a time; as
    N-Triples is a line format, each block is a document of its own.  In
    each block, counts check that each line ends in `` .\\n`` and splits at
    spaces into four items; a line end out of place stays among the tokens,
    which no token form takes.  The tokens that no earlier block held are
    copied into new strings, which the canonical map keys on, and checked in
    bulk, by kind, with no ``Term`` made: one regex over the new IRIs and
    every subject and predicate of the block, and ``_check_literals`` over
    the new literals.  A literal that export writes another way is stored as
    export writes it.  One bad block leaves the whole text to the per-line
    reader.
    """
    # a text with a lone surrogate is left to the per-line reader, whose ``Term`` rejects it at its line
    if "\r" in text or not text.endswith("\n") or not text.isascii() and _SURROGATE.search(text):
        return None
    # each token held so far -> the token stored for it, both strings copied from a block
    canonical: dict[str, str] = {}
    keys: list[Key] = []
    start = 0
    while start < len(text):
        # the block ends at the first line end from ``_BLOCK`` characters on, or with the text
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        lines = text.count("\n", start, end)
        if text.count(" .\n", start, end) != lines:
            return None
        flat = text[start:end].replace(" .\n", " \n ").split(" ")
        start = end
        if len(flat) != 4 * lines + 1:
            return None
        del flat[3::4]
        flat.pop()
        # the new tokens in the order they first appear, copied into new
        # strings that lie together in memory, in that order
        new = [token for token in dict.fromkeys(flat) if token not in canonical]
        copies = " ".join(new).split(" ") if new else []
        canonical.update(zip(copies, copies))
        # in that order too, so that the numbers are filed as a scan reads them
        literals = [token for token in copies if token[:1] == '"']
        # every other new token, and every subject and predicate, even one that looks like a literal
        iris = set(copies).difference(literals)
        iris.update(flat[0::3], flat[1::3])
        # no token holds a space, so the join matches only if each token does
        if not _IRIS.fullmatch(" ".join(iris)):
            return None
        if not _check_literals(literals, canonical, terms.numbers):
            return None
        tokens = map(canonical.__getitem__, flat)
        keys += zip(tokens, tokens, tokens)
    return dict.fromkeys(keys)


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

    A text all in ``export_ntriples`` form is read in bulk, a block of
    lines at a time, and any other line by line, which defines the accepted
    syntax and its errors: each carries the 1-based line number and a
    reason.
    """
    terms = _Terms()
    triples = _read_bulk(text, terms)
    return Graph(_read_lines(text)) if triples is None else Graph._of(triples, terms)
