"""Interpretation frames over an ordered sentence set.

A set of n sentences induces a frame of 2**n truth-value vectors.  Rows
are indexed canonically: row j spells j in binary with the truth value
of the first sentence as the most significant bit and bit value 1
meaning true.  A row is consistent when some assignment to the
underlying atoms realizes its truth-value vector; inconsistent rows are
kept in the frame and flagged, since queries decide per call whether to
prune them.

Consistency comes from one bit-parallel sweep: every truth table over
all atom assignments is one Python int, searched by a pruned DFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import AtomCapExceeded, CapExceeded, UnknownName
from .formula import Formula, atoms, truth_table

DEFAULT_MAX_SENTENCES = 10
DEFAULT_MAX_ATOMS = 20


@dataclass(frozen=True)
class SentenceSet:
    """Ordered, uniquely named sentences.  Order fixes row bit positions."""

    items: tuple[tuple[str, Formula], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("a sentence set needs at least one sentence")
        seen = set()
        for name, _ in self.items:
            if name in seen:
                raise ValueError(f"duplicate sentence name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items)

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(f for _, f in self.items)

    @cached_property
    def atom_names(self) -> tuple[str, ...]:
        merged: set[str] = set()
        for _, f in self.items:
            merged.update(atoms(f))
        return tuple(sorted(merged))

    def index_of(self, name: str) -> int:
        for i, (candidate, _) in enumerate(self.items):
            if candidate == name:
                return i
        raise KeyError(name)


def sentence_set(pairs: Iterable[tuple[str, Formula]]) -> SentenceSet:
    return SentenceSet(tuple(pairs))


def index_to_vector(j: int, n: int) -> tuple[bool, ...]:
    return tuple(bool((j >> (n - 1 - i)) & 1) for i in range(n))


def vector_to_index(v: Sequence[bool]) -> int:
    j = 0
    for b in v:
        j = (j << 1) | (1 if b else 0)
    return j


def _column(k: int, count: int) -> int:
    """Truth table of variable k of ``count`` over all 2**count
    assignments: bit t is bit ``count - 1 - k`` of t, so variable 0 is the
    most significant bit of the assignment index."""
    half = 1 << (count - 1 - k)
    column = ((1 << half) - 1) << half
    width = 2 * half
    while width < 1 << count:
        column |= column << width
        width *= 2
    return column


# Assignments per DFS slice.  A DFS step costs interpreter overhead plus
# time linear in its mask, so full-width (2**20-bit) steps are slow on
# dense frames and very narrow slices repeat the search too many times.
_SLICE_BITS = 1 << 17


# Serves repeated is_realizable calls; small, as each entry keeps its
# SentenceSet alive.
@lru_cache(maxsize=64)
def _realizable_indices(sentences: SentenceSet) -> frozenset[int]:
    """Indices of all realizable truth-value vectors: per slice of atom
    assignments, a DFS over the sentences splits the assignments left by
    each truth table in turn and skips empty branches."""
    names = sentences.atom_names
    size = 1 << len(names)
    columns = {name: _column(k, len(names)) for k, name in enumerate(names)}
    tables = [truth_table(f, columns, (1 << size) - 1) for f in sentences.formulas]
    full = 1 << sentences.n
    raw = [t.to_bytes((size + 7) // 8, "little") for t in tables]
    bits = min(size, _SLICE_BITS)
    step = (bits + 7) // 8
    # Rows found below each node of the tree of truth-value prefixes,
    # numbered as a binary heap: node k has children 2k (next sentence
    # false) and 2k + 1 (true), and leaf full + j is row j.  A subtree
    # whose rows are all found is not searched again in later slices.
    below = [0] * (2 * full)
    found = []
    for start in range(0, len(raw[0]), step):
        part = [int.from_bytes(r[start:start + step], "little") for r in raw]
        stack = [(1, (1 << bits) - 1)]
        while stack:
            k, rest = stack.pop()
            if k >= full:
                found.append(k - full)
                while k:
                    below[k] += 1
                    k >>= 1
                continue
            hit = rest & part[k.bit_length() - 1]
            room = full >> k.bit_length()
            if hit and below[2 * k + 1] < room:
                stack.append((2 * k + 1, hit))
            if hit != rest and below[2 * k] < room:
                stack.append((2 * k, rest ^ hit))
        if below[1] == full:
            break
    return frozenset(found)


def _check_atom_cap(sentences: SentenceSet, max_atoms: int):
    count = len(sentences.atom_names)
    if count > max_atoms:
        raise AtomCapExceeded(count, max_atoms)


def is_realizable(
    sentences: SentenceSet,
    v: Sequence[bool],
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> bool:
    """True iff some atom assignment gives every sentence the truth value
    the vector demands."""
    if len(v) != sentences.n:
        raise ValueError(f"vector length {len(v)} != {sentences.n} sentences")
    _check_atom_cap(sentences, max_atoms)
    return vector_to_index(v) in _realizable_indices(sentences)


@dataclass(frozen=True)
class InterpretationSpace:
    """All 2**n rows of a sentence set, each flagged consistent or not."""

    sentences: SentenceSet
    consistent: tuple[bool, ...]

    @property
    def n(self) -> int:
        return self.sentences.n

    @property
    def size(self) -> int:
        return len(self.consistent)

    def vector(self, j: int) -> tuple[bool, ...]:
        if not 0 <= j < self.size:
            raise IndexError(j)
        return index_to_vector(j, self.n)

    @cached_property
    def consistent_indices(self) -> frozenset[int]:
        return frozenset(j for j, ok in enumerate(self.consistent) if ok)

    def rows(self) -> Iterator[tuple[int, tuple[bool, ...], bool]]:
        for j, ok in enumerate(self.consistent):
            yield j, index_to_vector(j, self.n), ok


def interpretation_space(
    sentences: SentenceSet,
    *,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> InterpretationSpace:
    """Build the frame of all 2**n interpretations in canonical order."""
    if sentences.n > max_sentences:
        raise CapExceeded("sentences", sentences.n, max_sentences)
    _check_atom_cap(sentences, max_atoms)
    realizable = _realizable_indices(sentences)
    flags = tuple(j in realizable for j in range(1 << sentences.n))
    return InterpretationSpace(sentences, flags)


def _rows(space: InterpretationSpace, table: int, restrict: bool) -> frozenset[int]:
    """Rows whose bit is set in a truth table over the frame, optionally
    dropping inconsistent rows."""
    bits = reversed(f"{table:0{space.size}b}")
    rows = (j for j, bit in enumerate(bits) if bit == "1")
    if restrict:
        return frozenset(j for j in rows if space.consistent[j])
    return frozenset(rows)


def support_set(
    space: InterpretationSpace, i: int, restrict_consistent: bool = False
) -> frozenset[int]:
    """Row indices where sentence i is true, optionally dropping
    inconsistent rows."""
    if not 0 <= i < space.n:
        raise IndexError(i)
    return _rows(space, _column(i, space.n), restrict_consistent)


def rows_satisfying(
    space: InterpretationSpace, f: Formula, restrict_consistent: bool = False
) -> frozenset[int]:
    """Rows whose truth-value vector satisfies ``f`` when the sentence
    names are read as atoms."""
    names = space.sentences.names
    known = set(names)
    for name in atoms(f):
        if name not in known:
            raise UnknownName(f"formula mentions undeclared sentence {name!r}")
    columns = {name: _column(i, space.n) for i, name in enumerate(names)}
    table = truth_table(f, columns, (1 << space.size) - 1)
    return _rows(space, table, restrict_consistent)


def fresh_sentence_name(sentences: SentenceSet) -> str:
    """A generated name for an appended sentence, avoiding collisions."""
    taken = set(sentences.names)
    k = 0
    while f"_q{k}" in taken:
        k += 1
    return f"_q{k}"


def extended_set(sentences: SentenceSet, target: Formula) -> SentenceSet:
    """The sentence set with ``target`` appended under a fresh name."""
    return SentenceSet(sentences.items + ((fresh_sentence_name(sentences), target),))
