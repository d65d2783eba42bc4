"""Independent reference answers.

Each entailment LP is built here from the benchmark's own truth table of
its own formulas (see ``logic``), never from evlogic's frame or LP
builders, and solved in floating point by scipy's HiGHS.  The truth
table is bit-parallel: one Python integer per formula, one bit per atom
assignment.  An exact evlogic bound must agree with
it within ``TOLERANCE``.  Dempster combination is checked exactly by
enumerating focal pairs over bitmasks (``logic.dempster``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

TOLERANCE = 1e-9


@lru_cache(maxsize=None)
def _atom_masks(num_atoms: int) -> tuple[tuple[int, ...], int]:
    """Bit t of mask k is set when assignment t makes ``xk`` true (bit k
    of t); also the mask of all 2**num_atoms assignments."""
    size = 1 << num_atoms
    masks = []
    for k in range(num_atoms):
        mask, width = ((1 << (1 << k)) - 1) << (1 << k), 2 << k
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks), (1 << size) - 1


def _table(f, masks: tuple[int, ...], full: int) -> int:
    """The assignments that satisfy ``f``, as a bitmask."""
    tag = f[0]
    if tag == "atom":
        return masks[f[1]]
    if tag == "not":
        return full ^ _table(f[1], masks, full)
    if tag == "imp":
        return (full ^ _table(f[1], masks, full)) | _table(f[2], masks, full)
    parts = [_table(p, masks, full) for p in f[1]]
    out = parts[0]
    for p in parts[1:]:
        out = out & p if tag == "and" else out | p
    return out


def _realizable_rows(formulas, target, num_atoms: int) -> list[int]:
    """Sorted rows of the frame extended by ``target`` that some
    assignment realizes.  The first formula is the most significant bit
    and the target the least, as in evlogic's frame."""
    masks, full = _atom_masks(num_atoms)
    tables = [_table(f, masks, full) for f in list(formulas) + [target]]
    rows: list[int] = []

    def walk(i: int, row: int, alive: int):
        if i == len(tables):
            rows.append(row)
            return
        for bit, part in ((0, alive & ~tables[i]), (1, alive & tables[i])):
            if part:
                walk(i + 1, (row << 1) | bit, part)

    walk(0, 0, full)
    return rows


def _minimize(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """Optimal value, or None when the constraints are infeasible."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def entail(formulas, probs, target, mode: str, num_atoms: int):
    """(lo, hi) for ``target``, or None when the probabilities are
    incoherent.  Columns are the realizable rows of the extended frame
    (strict) or all of its rows (generalized)."""
    n = len(formulas)
    if mode == "strict":
        cols = np.array(_realizable_rows(formulas, target, num_atoms))
    else:
        cols = np.arange(1 << (n + 1))
    a_eq = [np.ones(len(cols))]
    for i in range(n):
        a_eq.append(((cols >> (n - i)) & 1).astype(float))
    b_eq = [1.0] + [float(p) for p in probs]
    c = (cols & 1).astype(float)
    lo = _minimize(c, np.array(a_eq), b_eq)
    if lo is None:
        return None
    return lo, -_minimize(-c, np.array(a_eq), b_eq)


def evidential(formulas, intervals, target, mode: str, relation: str, num_atoms: int):
    """(support lo, plausibility hi) for ``target`` over every mass
    function on nonempty subsets of the extended universe, or None when
    no mass function matches the intervals."""
    n = len(formulas)
    if mode == "strict":
        universe = _realizable_rows(formulas, target, num_atoms)
    else:
        universe = list(range(1 << (n + 1)))
    k = len(universe)
    full = (1 << k) - 1
    family = np.arange(1, 1 << k, dtype=np.int64)

    def mask(bit: int) -> int:
        return sum(1 << pos for pos, row in enumerate(universe) if (row >> bit) & 1)

    def inside(m: int) -> np.ndarray:
        return ((family & (full & ~m)) == 0).astype(float)

    rows, rhs = [], []
    for i, (spt, pls) in enumerate(intervals):
        a = mask(n - i)
        rows += [inside(a), inside(full & ~a)]
        rhs += [float(spt), 1.0 - float(pls)]
    ones = np.ones((1, len(family)))
    if relation == "exact":
        a_eq, b_eq = np.vstack([ones] + rows), [1.0] + rhs
        a_ub = b_ub = None
    else:
        a_eq, b_eq = ones, [1.0]
        a_ub, b_ub = -np.array(rows), [-v for v in rhs]
    t = mask(0)
    lo = _minimize(inside(t), a_eq, b_eq, a_ub, b_ub)
    if lo is None:
        return None
    anti = _minimize(inside(full & ~t), a_eq, b_eq, a_ub, b_ub)
    return lo, 1.0 - anti


def close(exact: Fraction, approx: float) -> bool:
    return abs(float(exact) - approx) <= TOLERANCE
