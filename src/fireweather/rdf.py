"""In-memory RDF triple store with set semantics and positional indexes.

Terms are IRIs or typed literals (string / integer / decimal).  Blank nodes
are deliberately unsupported; ingestion mints deterministic IRIs instead.

``join`` is the one basic-graph-pattern matcher: ``Graph.match``, rule
bodies and SPARQL queries all evaluate through it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
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


class RdfError(Exception):
    """Malformed term, triple, or serialization input."""


@dataclass(frozen=True, slots=True, eq=False)
class Term:
    """An IRI or a typed literal.

    ``value`` is the IRI string or the literal's lexical form.  ``datatype``
    is None for IRIs.  A term is validated and hashed once, when built; a
    numeric literal keeps the float it parsed to.
    """

    value: str
    datatype: Optional[Datatype] = None
    _num: Optional[float] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        value, datatype = self.value, self.datatype
        num = None
        if datatype is None:
            if not value or _WHITESPACE.search(value):
                raise RdfError(f"invalid IRI: {value!r}")
        elif datatype is Datatype.INTEGER or datatype is Datatype.DECIMAL:
            try:
                num = float(value)
            except ValueError:
                raise RdfError(f"literal {value!r} is not a valid {datatype.name.lower()}") from None
            if not math.isfinite(num):
                raise RdfError(f"literal {value!r} is not a finite {datatype.name.lower()}")
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_hash", hash((value, datatype)))

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

    @property
    def is_literal(self) -> bool:
        return self.datatype is not None

    def numeric_value(self) -> Optional[float]:
        """The literal's numeric value, or None for IRIs and strings."""
        return self._num

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
        return f'"{escaped}"^^<{self.datatype.value}>'


def _escape_char(m: re.Match) -> str:
    return _ESCAPES[m.group()]


def _unescape_sequence(m: re.Match) -> str:
    code = m.group(1) or m.group(2)
    if code is not None:
        try:
            return chr(int(code, 16))
        except ValueError:
            raise RdfError(f"invalid escape {m.group()!r}") from None
    # an escape outside ECHAR is kept as written
    return _ECHARS.get(m.group(3), m.group())


def unescape_literal(text: str) -> str:
    """The lexical form that a quoted literal's body ``text`` spells."""
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


@dataclass(frozen=True, slots=True, eq=False)
class Triple:
    subject: Term
    predicate: Term
    object: Term
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.subject.datatype is not None:
            raise RdfError(f"triple subject must be an IRI, got {self.subject}")
        if self.predicate.datatype is not None:
            raise RdfError(f"triple predicate must be an IRI, got {self.predicate}")
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

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


#: A pattern slot: a concrete term or a "?name" variable.
Slot = Union[Term, str]


@dataclass(frozen=True)
class TriplePattern:
    subject: Slot
    predicate: Slot
    object: Slot

    def __post_init__(self):
        for slot in (self.subject, self.predicate, self.object):
            if isinstance(slot, str) and (len(slot) < 2 or not slot.startswith("?")):
                raise RdfError(f"invalid variable name: {slot!r}")

    def variables(self) -> list[str]:
        return [s for s in (self.subject, self.predicate, self.object) if isinstance(s, str)]


Binding = dict[str, Term]


def match_one(pattern: TriplePattern, t: Triple, binding: Optional[Binding] = None) -> Optional[Binding]:
    """Binding extending ``binding`` under which pattern equals t, else None."""
    b = dict(binding) if binding else {}
    for slot, term in ((pattern.subject, t.subject), (pattern.predicate, t.predicate), (pattern.object, t.object)):
        if isinstance(slot, str):
            bound = b.get(slot)
            if bound is None:
                b[slot] = term
                continue
            slot = bound
        # ``==``, not ``!=``: Term defines only __eq__, and ``!=`` reaches it
        # through a slower double dispatch
        if not slot == term:
            return None
    return b


class Graph:
    """Set of triples with by-subject / by-predicate / by-object indexes.

    Single writer or multiple readers at any moment; callers must not
    interleave a writer with readers.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: set[Triple] = set()
        self._by_subject: dict[Term, set[Triple]] = {}
        self._by_predicate: dict[Term, set[Triple]] = {}
        self._by_object: dict[Term, set[Triple]] = {}
        for t in triples:
            self.insert(t)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def insert(self, t: Triple) -> int:
        """Add a triple; returns the graph size afterwards."""
        if t not in self._triples:
            self._triples.add(t)
            self._by_subject.setdefault(t.subject, set()).add(t)
            self._by_predicate.setdefault(t.predicate, set()).add(t)
            self._by_object.setdefault(t.object, set()).add(t)
        return len(self._triples)

    def remove(self, t: Triple) -> int:
        """Discard a triple if present; returns the graph size afterwards."""
        if t in self._triples:
            self._triples.discard(t)
            for index, key in (
                (self._by_subject, t.subject),
                (self._by_predicate, t.predicate),
                (self._by_object, t.object),
            ):
                bucket = index[key]
                bucket.discard(t)
                if not bucket:
                    del index[key]
        return len(self._triples)

    def update(self, triples: Iterable[Triple]) -> int:
        for t in triples:
            self.insert(t)
        return len(self._triples)

    def candidates(self, pattern: TriplePattern) -> Iterable[Triple]:
        """Smallest index bucket consistent with the pattern's concrete slots."""
        buckets = []
        if isinstance(pattern.subject, Term):
            buckets.append(self._by_subject.get(pattern.subject, set()))
        if isinstance(pattern.predicate, Term):
            buckets.append(self._by_predicate.get(pattern.predicate, set()))
        if isinstance(pattern.object, Term):
            buckets.append(self._by_object.get(pattern.object, set()))
        if not buckets:
            return self._triples
        return min(buckets, key=len)

    def match(self, pattern: TriplePattern) -> list[Binding]:
        """All bindings under which the pattern occurs in the graph.

        Order is deterministic: lexicographic by the bound terms in the
        pattern's variable order.
        """
        variables = list(dict.fromkeys(pattern.variables()))
        results = list(join([(pattern, (self,))]))
        results.sort(key=lambda b: tuple(b[v].sort_key() for v in variables))
        return results

    def check_index_coherence(self) -> bool:
        """True iff every index entry is in the master set and vice versa."""
        indexed = set()
        for index in (self._by_subject, self._by_predicate, self._by_object):
            for bucket in index.values():
                if not bucket:
                    return False
                indexed |= bucket
        for t in self._triples:
            if (
                t not in self._by_subject.get(t.subject, set())
                or t not in self._by_predicate.get(t.predicate, set())
                or t not in self._by_object.get(t.object, set())
            ):
                return False
        return indexed == self._triples or (not indexed and not self._triples)


#: A pattern matched against the union of the graphs beside it.
Atom = tuple[TriplePattern, tuple[Graph, ...]]
#: A test on the term bound to one variable, given the whole binding.
Check = tuple[str, Callable[[Binding], bool]]


def substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    """The pattern with every variable that ``binding`` binds replaced by its term."""
    s, p, o = pattern.subject, pattern.predicate, pattern.object
    return TriplePattern(
        binding.get(s, s) if isinstance(s, str) else s,
        binding.get(p, p) if isinstance(p, str) else p,
        binding.get(o, o) if isinstance(o, str) else o,
    )


def join(atoms: Sequence[Atom], checks: Sequence[Check] = (), binding: Optional[Binding] = None) -> Iterator[Binding]:
    """Every extension of ``binding`` that matches all atoms and passes all checks.

    An index nested loop: at each level the atom with the fewest candidates
    under the current binding goes next, ties to the lowest index.  A check
    runs as soon as its variable is bound; a check whose variable nothing
    binds fails every row.  Graphs an atom reads must not share a triple, or
    a match through the shared triple comes out once per graph.
    """
    binding = {} if binding is None else binding
    if not all(check(binding) for variable, check in checks if variable in binding):
        return iter(())
    later = [c for c in checks if c[0] not in binding]
    if not atoms:
        return iter(() if later else (binding,))
    return _join(list(atoms), later, binding)


def _join(atoms: list[Atom], checks: list[Check], binding: Binding) -> Iterator[Binding]:
    best = None
    for i, (pattern, graphs) in enumerate(atoms):
        bound = substitute(pattern, binding)
        buckets = [graph.candidates(bound) for graph in graphs]
        size = sum(map(len, buckets))
        if best is None or size < best[0]:
            best = (size, i, bound, buckets)
    _, chosen, bound, buckets = best
    rest = atoms[:chosen] + atoms[chosen + 1 :]
    # the checks that this atom's variables make runnable, split once per level
    now, later = [], []
    if checks:
        fresh = bound.variables()
        for variable, check in checks:
            if variable in fresh:
                now.append(check)
            else:
                later.append((variable, check))
        if later and not rest:
            return
    for bucket in buckets:
        for t in bucket:
            extended = match_one(bound, t, binding)
            if extended is None:
                continue
            for check in now:
                if not check(extended):
                    break
            else:
                if rest:
                    yield from _join(rest, later, extended)
                else:
                    yield extended


# --- N-Triples-style flat-file serialization -------------------------------


def export_ntriples(g: Graph) -> str:
    """One triple per line, sorted for byte-stable output.

    Literals escape the N-Triples ECHAR set and write the other line breaks
    as ``\\uXXXX``, so every literal round-trips through ``import_ntriples``.
    """
    lines = sorted(str(t) for t in g)
    return "".join(line + "\n" for line in lines)


#: One term token of a statement: a quoted literal with whatever follows it
#: up to the next whitespace, any other run of non-whitespace, or a lone
#: quote that no closing quote ends.
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"\S*|[^\s"]\S*|"', re.S)
_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)


def _parse_term(token: str) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return Term(token[1:-1])
    if token.startswith('"'):
        m = _LITERAL.match(token)
        rest = token[m.end() :]
        if not (rest.startswith("^^<") and rest.endswith(">")):
            raise RdfError(f"literal missing ^^<datatype>: {token!r}")
        dt_iri = rest[3:-1]
        try:
            dt = Datatype(dt_iri)
        except ValueError:
            raise RdfError(f"unsupported datatype <{dt_iri}>") from None
        return Term(unescape_literal(m.group(1)), dt)
    raise RdfError(f"unrecognized term {token!r}")


def _token_error(body: str, tokens: list[str]) -> str:
    for m in _TOKEN.finditer(body):
        if m.group() == '"':
            return f"unterminated literal {body[m.start():]!r}"
    return f"expected 3 terms, got {len(tokens)}"


def import_ntriples(text: str) -> Graph:
    """Parse the flat-file format back into a Graph.

    Each distinct token becomes one ``Term``, shared by every triple that
    uses it.  Errors carry the 1-based line number and a reason.
    """
    g = Graph()
    terms: dict[str, Term] = {}
    # N-Triples ends a line only at \n, \r\n or \r; str.splitlines also
    # breaks at characters a string literal may hold, such as U+2028.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.endswith("."):
            raise RdfError(f"line {lineno}: missing terminating '.'")
        tokens = _TOKEN.findall(line, 0, len(line) - 1)
        try:
            if len(tokens) != 3 or '"' in tokens:
                raise RdfError(_token_error(line[:-1].rstrip(), tokens))
            s, p, o = [terms.get(tok) or terms.setdefault(tok, _parse_term(tok)) for tok in tokens]
            g.insert(Triple(s, p, o))
        except RdfError as exc:
            raise RdfError(f"line {lineno}: {exc}") from None
    return g
