"""Evidential reasoning over the interpretation frame.

A mass function places exact rational weights on subsets of the frame's
rows; support and plausibility of a row set follow by subset summation.
Two mass functions combine by intersecting focal pairs and renormalizing
away the conflict.  Entailment of a query sentence from an interval
system is answered by optimizing over every mass function compatible
with the system: one exact LP, optimized once per bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from . import linsolve
from .errors import (
    CapExceeded,
    EmptyFocalElement,
    Infeasible,
    InfeasibleIntervals,
    MassSumNotOne,
    SpaceMismatch,
    TotalConflict,
)
from .formula import Formula
from .semantics import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_SENTENCES,
    InterpretationSpace,
    SentenceSet,
    extended_set,
    interpretation_space,
    rows_satisfying,
    support_set,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_MAX_VARIABLES = 65536

SupportSet = frozenset[int]

FocalSource = (
    Mapping[Iterable[int], Fraction] | Iterable[tuple[Iterable[int], Fraction]]
)


@dataclass(frozen=True)
class MassFunction:
    """A basic probability assignment over subsets of the frame's rows.

    ``focal`` maps each focal element (a nonempty frozenset of row
    indices) to its positive mass; the masses sum to one exactly.
    """

    space: InterpretationSpace
    focal: dict[SupportSet, Fraction]


def mass_function(
    space: InterpretationSpace,
    focal: FocalSource,
    mode: str = "generalized",
) -> MassFunction:
    """Validate and wrap a focal-element map.

    Equal extensions are merged by summing their masses and zero masses
    are dropped.  Strict mode additionally requires every focal element
    to sit inside the consistent rows.
    """
    if mode not in ("strict", "generalized"):
        raise ValueError(f"bad mode {mode!r}")
    if isinstance(focal, Mapping):
        pairs = focal.items()
    else:
        pairs = focal
    merged: dict[SupportSet, Fraction] = {}
    for extension, mass in pairs:
        element = frozenset(int(j) for j in extension)
        for j in element:
            if not 0 <= j < space.size:
                raise SpaceMismatch(f"row index {j} outside the frame")
        mass = Fraction(mass)
        if mass < 0:
            raise ValueError(f"negative mass {mass}")
        if mass == 0:
            continue
        if not element:
            raise EmptyFocalElement("positive mass on the empty set")
        if mode == "strict" and not all(space.consistent[j] for j in element):
            raise ValueError(
                "strict mode forbids focal elements with inconsistent rows")
        merged[element] = merged.get(element, ZERO) + mass
    total = sum(merged.values(), ZERO)
    if total != 1:
        raise MassSumNotOne(f"masses sum to {total}, not 1")
    return MassFunction(space, merged)


def _check_rows(m: MassFunction, rows: Iterable[int]) -> frozenset[int]:
    out = frozenset(int(j) for j in rows)
    for j in out:
        if not 0 <= j < m.space.size:
            raise SpaceMismatch(f"row index {j} outside the frame")
    return out


def support(m: MassFunction, a: Iterable[int]) -> Fraction:
    """Total mass of the focal elements contained in ``a``."""
    target = _check_rows(m, a)
    return sum(
        (mass for element, mass in m.focal.items() if element <= target),
        ZERO,
    )


def plausibility(m: MassFunction, a: Iterable[int]) -> Fraction:
    """One minus the support of the complement of ``a``."""
    target = _check_rows(m, a)
    complement = frozenset(range(m.space.size)) - target
    return ONE - support(m, complement)


@dataclass(frozen=True)
class EvidentialInterval:
    spt: Fraction
    pls: Fraction

    def __post_init__(self):
        if not ZERO <= self.spt <= self.pls <= ONE:
            raise ValueError(f"bad interval [{self.spt}, {self.pls}]")

    @property
    def is_point(self) -> bool:
        return self.spt == self.pls


@dataclass(frozen=True)
class IntervalSystem:
    """One evidential interval per sentence of a sentence set."""

    sentences: SentenceSet
    intervals: tuple[EvidentialInterval, ...]

    def __post_init__(self):
        if len(self.intervals) != self.sentences.n:
            raise ValueError(
                f"{len(self.intervals)} intervals for {self.sentences.n} sentences")


def interval_system(
    sentences: SentenceSet,
    m: MassFunction,
    mode: str = "generalized",
) -> IntervalSystem:
    """Read off [support, plausibility] for every sentence from ``m``."""
    if mode not in ("strict", "generalized"):
        raise ValueError(f"bad mode {mode!r}")
    if m.space.sentences != sentences:
        raise SpaceMismatch("mass function built over a different sentence set")
    restrict = mode == "strict"
    intervals = []
    for i in range(sentences.n):
        a = support_set(m.space, i, restrict_consistent=restrict)
        intervals.append(EvidentialInterval(support(m, a), plausibility(m, a)))
    return IntervalSystem(sentences, tuple(intervals))


def combine(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, Fraction]:
    """Dempster's rule: intersect focal pairs, renormalize by 1 - K.

    Returns the combined mass function and the conflict mass K.  Raises
    TotalConflict when every focal pair is disjoint (K = 1).
    """
    if m1.space != m2.space:
        raise SpaceMismatch("mass functions live on different frames")
    accumulated: dict[SupportSet, Fraction] = {}
    conflict = ZERO
    for a, mass_a in m1.focal.items():
        for b, mass_b in m2.focal.items():
            product = mass_a * mass_b
            meet = a & b
            if meet:
                accumulated[meet] = accumulated.get(meet, ZERO) + product
            else:
                conflict += product
    if conflict == 1:
        raise TotalConflict("all focal pairs are disjoint")
    norm = ONE - conflict
    combined = {element: mass / norm for element, mass in accumulated.items()}
    return mass_function(m1.space, combined), conflict


def collapse_check(system: IntervalSystem) -> Optional[tuple[Fraction, ...]]:
    """The point-probability vector when every interval is a point."""
    if all(interval.is_point for interval in system.intervals):
        return tuple(interval.spt for interval in system.intervals)
    return None


def evidential_entail(
    system: IntervalSystem,
    target: Formula,
    *,
    mode: str = "strict",
    relation: str = "exact",
    focal_family: Optional[Sequence[Formula]] = None,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    max_variables: int = DEFAULT_MAX_VARIABLES,
) -> EvidentialInterval:
    """Tight evidential interval for ``target`` given an interval system.

    Appends the target to the sentence set and optimizes over every
    mass function on the extended frame whose per-sentence supports and
    plausibilities satisfy the system: with the exact relation they must
    equal the given endpoints, with the relaxed relation support may
    exceed spt and plausibility may undercut pls.  The answer is
    [min support(target), max plausibility(target)] over the feasible
    set, both bounds from one exact LP with two objectives.

    The default focal family is every nonempty subset of the extended
    frame's rows (consistent rows only in strict mode), capped at
    ``max_variables`` LP variables; past the cap the caller must supply
    an explicit family of formulas over sentence names.
    """
    if mode not in ("strict", "generalized"):
        raise ValueError(f"bad mode {mode!r}")
    if relation not in ("exact", "relaxed"):
        raise ValueError(f"bad relation {relation!r}")
    sentences = system.sentences
    n = sentences.n
    if n > max_sentences:
        raise CapExceeded("sentences", n, max_sentences)
    space2 = interpretation_space(
        extended_set(sentences, target),
        max_sentences=max_sentences + 1,
        max_atoms=max_atoms,
    )
    if mode == "strict":
        universe = sorted(space2.consistent_indices)
    else:
        universe = list(range(space2.size))
    position = {j: k for k, j in enumerate(universe)}
    full_mask = (1 << len(universe)) - 1

    if focal_family is None:
        count = 1 << len(universe)
        if count > max_variables:
            raise CapExceeded("LP variables", count, max_variables)
        family = list(range(1, count))
    else:
        restrict = mode == "strict"
        masks = []
        for f in focal_family:
            rows = rows_satisfying(space2, f, restrict_consistent=restrict)
            mask = 0
            for j in rows:
                mask |= 1 << position[j]
            if mask == 0:
                raise EmptyFocalElement(
                    "a focal-family formula has an empty extension")
            masks.append(mask)
        family = list(dict.fromkeys(masks))

    def row_mask(rows: Iterable[int]) -> int:
        mask = 0
        for j in rows:
            if j in position:
                mask |= 1 << position[j]
        return mask

    def subset_coeffs(mask: int) -> list[tuple[int, Fraction]]:
        return [(k, ONE) for k, f in enumerate(family) if f & ~mask == 0]

    relation_sign = "=" if relation == "exact" else ">="
    constraints: list[tuple[linsolve.Coeffs, str, Fraction]] = [
        ([(k, ONE) for k in range(len(family))], "=", ONE),
    ]
    shift = space2.n - 1
    for i in range(n):
        a_mask = row_mask(j for j in universe if (j >> (shift - i)) & 1)
        interval = system.intervals[i]
        constraints.append((subset_coeffs(a_mask), relation_sign, interval.spt))
        constraints.append(
            (subset_coeffs(full_mask & ~a_mask), relation_sign, ONE - interval.pls))

    t_mask = row_mask(j for j in universe if j & 1)
    try:
        (lo, _), (anti, _) = linsolve.solve_each(
            linsolve.linear_program(len(family), constraints, []),
            [(subset_coeffs(t_mask), "minimize"),
             (subset_coeffs(full_mask & ~t_mask), "minimize")],
        )
    except Infeasible:
        raise InfeasibleIntervals(
            "no basic probability assignment matches the interval system"
        ) from None
    return EvidentialInterval(lo, ONE - anti)
