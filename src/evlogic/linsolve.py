"""Exact linear programming over rationals.

Dense-tableau two-phase simplex with Bland's anti-cycling pivot rule.
All arithmetic is on ``fractions.Fraction``, so optima and witnesses are
exact; there are no tolerances anywhere.  Problem sizes here are desk
scale (tens of rows, at most tens of thousands of columns), which is
what the dense representation is sized for.  A pivot updates rows in
place, only at the columns where the pivot row is nonzero.  Phase 1 runs
once per constraint set: ``solve_each`` starts the phase 2 of each
objective from a copy of that one feasible basis.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import Infeasible, PivotLimitExceeded, Unbounded

ZERO = Fraction(0)
ONE = Fraction(1)

Coeffs = Sequence[tuple[int, Fraction]]


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[int, Fraction], ...]
    relation: str  # "=", "<=", ">="
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """min/max of a linear objective over {x >= 0, constraints}."""

    num_vars: int
    constraints: tuple[Constraint, ...] = field(default_factory=tuple)
    objective: tuple[tuple[int, Fraction], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for row in self.constraints:
            if row.relation not in ("=", "<=", ">="):
                raise ValueError(f"bad relation {row.relation!r}")
            self._check_coeffs(row.coeffs)
        self._check_coeffs(self.objective)

    def _check_coeffs(self, coeffs: Coeffs):
        seen = set()
        for idx, _ in coeffs:
            if not 0 <= idx < self.num_vars:
                raise ValueError(f"variable index {idx} out of range")
            if idx in seen:
                raise ValueError(f"duplicate variable index {idx} in one row")
            seen.add(idx)


def linear_program(
    num_vars: int,
    constraints: Sequence[tuple[Coeffs, str, Fraction]],
    objective: Coeffs,
) -> LinearProgram:
    rows = tuple(
        Constraint(tuple((i, Fraction(c)) for i, c in coeffs), rel, Fraction(rhs))
        for coeffs, rel, rhs in constraints
    )
    return LinearProgram(num_vars, rows, tuple((i, Fraction(c)) for i, c in objective))


class _Tableau:
    """Simplex tableau: m rows over structural + slack + artificial columns.

    Row i stores the coefficients of the current basic solution's i-th
    equation; column ncols holds the right-hand side.
    """

    def __init__(self, lp: LinearProgram):
        m = len(lp.constraints)
        n = lp.num_vars
        slack_of_row: list[int | None] = [None] * m
        num_slacks = 0
        for i, row in enumerate(lp.constraints):
            if row.relation in ("<=", ">="):
                slack_of_row[i] = num_slacks
                num_slacks += 1
        self.n = n
        self.m = m
        self.num_slacks = num_slacks
        self.ncols = n + num_slacks + m  # artificials: one column per row
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        # artificial for row i sits at column n + num_slacks + i
        for i, row in enumerate(lp.constraints):
            dense = [ZERO] * (self.ncols + 1)
            for idx, c in row.coeffs:
                dense[idx] = c
            sign = 1 if row.relation != ">=" else -1
            if slack_of_row[i] is not None:
                dense[n + slack_of_row[i]] = Fraction(sign)
            dense[self.ncols] = row.rhs
            if row.rhs < 0:
                dense = [-v for v in dense]
            art = n + num_slacks + i
            dense[art] = ONE
            self.rows.append(dense)
            self.basis.append(art)
        self.pivots = 0
        # generous anti-runaway bound; Bland's rule already rules out cycling
        self.pivot_cap = max(1000, 10 * (self.ncols + m))

    def is_artificial(self, col: int) -> bool:
        return col >= self.n + self.num_slacks

    def copy(self) -> _Tableau:
        other = copy.copy(self)
        other.rows = [row[:] for row in self.rows]
        other.basis = self.basis[:]
        return other

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        """Cost row with basic columns eliminated; last entry is -objective."""
        cr = cost + [ZERO]
        for i, b in enumerate(self.basis):
            cb = cr[b]
            if cb:
                for c, rv in enumerate(self.rows[i]):
                    if rv:
                        cr[c] -= cb * rv
        return cr

    def pivot(self, i: int, j: int, cr: list[Fraction]):
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise PivotLimitExceeded(
                f"more than {self.pivot_cap} pivots; tableau is "
                f"{self.m} rows x {self.ncols} columns")
        row = self.rows[i]
        piv = row[j]
        nonzero = [c for c, v in enumerate(row) if v]
        if piv != 1:
            for c in nonzero:
                row[c] /= piv
        entries = [(c, row[c]) for c in nonzero]
        for other in self.rows + [cr]:
            f = other[j]
            if f and other is not row:
                for c, v in entries:
                    other[c] -= f * v
        self.basis[i] = j

    def run(self, cr: list[Fraction], allowed: int) -> None:
        """Minimize with Bland's rule over columns [0, allowed)."""
        while True:
            enter = -1
            for j in range(allowed):
                if cr[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best = None
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][self.ncols] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                raise Unbounded("objective decreases without bound")
            self.pivot(leave, enter, cr)


def _phase1(lp: LinearProgram) -> _Tableau:
    """A feasible basis free of artificials, with redundant rows dropped."""
    t = _Tableau(lp)

    # Minimize the sum of artificials.
    cost1 = [ZERO] * t.ncols
    for j in range(t.n + t.num_slacks, t.ncols):
        cost1[j] = ONE
    cr = t.reduced_costs(cost1)
    t.run(cr, allowed=t.n + t.num_slacks)
    if -cr[t.ncols] != 0:
        raise Infeasible("no nonnegative solution satisfies the constraints")

    # Drive leftover zero-level artificials out of the basis, dropping
    # rows that turn out redundant.
    keep: list[int] = []
    for i in range(t.m):
        if t.is_artificial(t.basis[i]):
            row = t.rows[i]
            j = next((j for j in range(t.n + t.num_slacks) if row[j] != 0), -1)
            if j < 0:
                continue  # redundant constraint row
            t.pivot(i, j, cr)
        keep.append(i)
    t.rows = [t.rows[i] for i in keep]
    t.basis = [t.basis[i] for i in keep]
    t.m = len(keep)
    return t


def _phase2(
    t: _Tableau, objective: Coeffs, direction: str
) -> tuple[Fraction, list[Fraction]]:
    """Optimize from a phase-1 basis, artificial columns off limits."""
    sign = ONE if direction == "minimize" else -ONE
    cost2 = [ZERO] * t.ncols
    for idx, c in objective:
        cost2[idx] = sign * c
    cr = t.reduced_costs(cost2)
    t.run(cr, allowed=t.n + t.num_slacks)

    witness = [ZERO] * t.n
    for i, b in enumerate(t.basis):
        if b < t.n:
            witness[b] = t.rows[i][t.ncols]
    value = sum((c * witness[idx] for idx, c in objective), ZERO)
    return value, witness


def solve_each(
    lp: LinearProgram, objectives: Sequence[tuple[Coeffs, str]]
) -> list[tuple[Fraction, list[Fraction]]]:
    """``solve`` for each ``(coeffs, direction)`` over the constraints of
    ``lp``, sharing one phase 1; results and exceptions are the same as
    from one ``solve`` per objective, in order.
    """
    for coeffs, direction in objectives:
        if direction not in ("minimize", "maximize"):
            raise ValueError(f"bad direction {direction!r}")
        lp._check_coeffs(coeffs)
    t = _phase1(lp)
    return [_phase2(t.copy(), coeffs, direction) for coeffs, direction in objectives]


def solve(
    lp: LinearProgram, direction: str = "minimize"
) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum and an attaining feasible point.

    Raises Infeasible when the feasible region is empty and Unbounded
    when the objective has no finite optimum in the given direction.
    """
    return solve_each(lp, [(lp.objective, direction)])[0]
