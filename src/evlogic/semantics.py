"""Interpretation frames over an ordered sentence set.

A set of n sentences induces a frame of 2**n truth-value vectors.  Rows
are indexed canonically: row j spells j in binary with the truth value
of the first sentence as the most significant bit and bit value 1
meaning true.  A row is consistent when some assignment to the
underlying atoms realizes its truth-value vector; inconsistent rows are
kept in the frame and flagged, since queries decide per call whether to
prune them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import AtomCapExceeded, CapExceeded, MissingAtom, UnknownName
from .formula import And, Atom, Const, Formula, Iff, Imp, Not, Or, atoms, evaluate

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_SENTENCES = 10
DEFAULT_MAX_ATOMS = 20

# Below this many atoms a plain Python sweep beats the fixed overhead of
# the vectorized one, numpy's import included.
_SMALL_SWEEP_ATOMS = 10


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


def _sweep_python(sentences: SentenceSet) -> frozenset[int]:
    names = sentences.atom_names
    formulas = sentences.formulas
    n = sentences.n
    found: set[int] = set()
    for t in range(1 << len(names)):
        assignment = {
            name: bool((t >> (len(names) - 1 - k)) & 1)
            for k, name in enumerate(names)
        }
        j = 0
        for f in formulas:
            j = (j << 1) | (1 if evaluate(f, assignment) else 0)
        found.add(j)
        if len(found) == 1 << n:
            break
    return frozenset(found)


def _eval_bulk(f: Formula, columns: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(f, Atom):
        return columns[f.name]
    if isinstance(f, Const):
        import numpy as np
        size = len(next(iter(columns.values())))
        return np.full(size, f.value, dtype=bool)
    if isinstance(f, Not):
        return ~_eval_bulk(f.operand, columns)
    if isinstance(f, And):
        return _eval_bulk(f.left, columns) & _eval_bulk(f.right, columns)
    if isinstance(f, Or):
        return _eval_bulk(f.left, columns) | _eval_bulk(f.right, columns)
    if isinstance(f, Imp):
        return ~_eval_bulk(f.left, columns) | _eval_bulk(f.right, columns)
    if isinstance(f, Iff):
        return _eval_bulk(f.left, columns) == _eval_bulk(f.right, columns)
    raise TypeError(f"not a formula: {f!r}")


def _sweep_numpy(sentences: SentenceSet) -> frozenset[int]:
    import numpy as np
    names = sentences.atom_names
    a = len(names)
    t = np.arange(1 << a, dtype=np.uint32)
    columns = {
        name: ((t >> (a - 1 - k)) & 1).astype(bool)
        for k, name in enumerate(names)
    }
    n = sentences.n
    codes = np.zeros(1 << a, dtype=np.uint32)
    for i, f in enumerate(sentences.formulas):
        codes |= _eval_bulk(f, columns).astype(np.uint32) << np.uint32(n - 1 - i)
    flags = np.zeros(1 << n, dtype=bool)
    flags[codes] = True
    return frozenset(int(j) for j in np.nonzero(flags)[0])


# Serves repeated is_realizable calls; small, as each entry keeps its
# SentenceSet alive.
@lru_cache(maxsize=64)
def _realizable_indices(sentences: SentenceSet) -> frozenset[int]:
    """Indices of all realizable truth-value vectors, by exhaustive sweep
    over every atom assignment."""
    if len(sentences.atom_names) <= _SMALL_SWEEP_ATOMS:
        return _sweep_python(sentences)
    return _sweep_numpy(sentences)


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


def support_set(
    space: InterpretationSpace, i: int, restrict_consistent: bool = False
) -> frozenset[int]:
    """Row indices where sentence i is true, optionally dropping
    inconsistent rows."""
    if not 0 <= i < space.n:
        raise IndexError(i)
    shift = space.n - 1 - i
    rows = (j for j in range(space.size) if (j >> shift) & 1)
    if restrict_consistent:
        return frozenset(j for j in rows if space.consistent[j])
    return frozenset(rows)


def sentence_matrix(
    space: InterpretationSpace, columns: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix of sentence truth values, one column per selected row."""
    for j in columns:
        if not 0 <= j < space.size:
            raise IndexError(j)
    n = space.n
    return tuple(
        tuple((j >> (n - 1 - i)) & 1 for j in columns) for i in range(n)
    )


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
    matching = []
    for j in range(space.size):
        if restrict_consistent and not space.consistent[j]:
            continue
        v = index_to_vector(j, space.n)
        try:
            if evaluate(f, dict(zip(names, v))):
                matching.append(j)
        except MissingAtom as exc:  # pragma: no cover - guarded above
            raise UnknownName(str(exc)) from exc
    return frozenset(matching)


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
