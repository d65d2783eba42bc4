"""Exact two-phase simplex."""

import random
from fractions import Fraction

import pytest

from evlogic import linsolve
from evlogic.errors import Infeasible, Unbounded
from evlogic.evidential import (
    EvidentialInterval,
    evidential_entail,
    interval_system,
    mass_function,
)
from evlogic.formula import parse
from evlogic.linsolve import LinearProgram, linear_program, solve, solve_each
from evlogic.problog import entail_bounds
from evlogic.semantics import interpretation_space, sentence_set

from .oracles import vertex_lp_oracle

F = Fraction


def feasible(lp: LinearProgram, point) -> bool:
    if any(v < 0 for v in point):
        return False
    for row in lp.constraints:
        lhs = sum((c * point[i] for i, c in row.coeffs), F(0))
        if row.relation == "=" and lhs != row.rhs:
            return False
        if row.relation == "<=" and lhs > row.rhs:
            return False
        if row.relation == ">=" and lhs < row.rhs:
            return False
    return True


def objective_at(lp: LinearProgram, point) -> Fraction:
    return sum((c * point[i] for i, c in lp.objective), F(0))


class TestBasics:
    def test_maximize_simplex_vertex(self):
        lp = linear_program(2, [([(0, 1), (1, 1)], "=", 1)], [(0, 1)])
        value, witness = solve(lp, "maximize")
        assert value == 1
        assert witness == [F(1), F(0)]

    def test_minimize_simplex_vertex(self):
        lp = linear_program(2, [([(0, 1), (1, 1)], "=", 1)], [(0, 1)])
        value, _ = solve(lp, "minimize")
        assert value == 0

    def test_negative_rhs_is_infeasible_with_nonnegativity(self):
        lp = linear_program(2, [([(0, 1), (1, 1)], "=", -1)], [(0, 1)])
        with pytest.raises(Infeasible):
            solve(lp, "minimize")

    def test_geq_constraint(self):
        lp = linear_program(1, [([(0, 1)], ">=", F(2, 3))], [(0, 1)])
        value, witness = solve(lp, "minimize")
        assert value == F(2, 3)
        assert feasible(lp, witness)

    def test_negative_rhs_row_normalization(self):
        lp = linear_program(1, [([(0, -1)], "<=", F(-1, 2))], [(0, 1)])
        value, _ = solve(lp, "minimize")
        assert value == F(1, 2)

    def test_unbounded(self):
        lp = linear_program(2, [([(1, 1)], "<=", 1)], [(0, 1)])
        with pytest.raises(Unbounded):
            solve(lp, "maximize")

    def test_no_constraints_minimize(self):
        lp = linear_program(1, [], [(0, 1)])
        assert solve(lp, "minimize")[0] == 0

    def test_redundant_duplicate_rows(self):
        lp = linear_program(
            2,
            [([(0, 1), (1, 1)], "=", 1), ([(0, 1), (1, 1)], "=", 1)],
            [(0, 1)],
        )
        assert solve(lp, "maximize")[0] == 1

    def test_contradictory_rows(self):
        lp = linear_program(
            2,
            [([(0, 1), (1, 1)], "=", 1), ([(0, 1), (1, 1)], "=", F(1, 2))],
            [(0, 1)],
        )
        with pytest.raises(Infeasible):
            solve(lp, "maximize")

    def test_bad_direction(self):
        lp = linear_program(1, [], [(0, 1)])
        with pytest.raises(ValueError):
            solve(lp, "upward")


class TestValidation:
    def test_bad_relation(self):
        with pytest.raises(ValueError):
            linear_program(1, [([(0, 1)], "<", 1)], [])

    def test_duplicate_index_in_row(self):
        with pytest.raises(ValueError):
            linear_program(2, [([(0, 1), (0, 1)], "=", 1)], [])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            linear_program(1, [([(1, 1)], "=", 1)], [])


class TestBlandTermination:
    def test_beale_cycling_instance(self):
        """The classic instance that cycles under the naive pivot choice."""
        lp = linear_program(
            4,
            [
                ([(0, F(1, 4)), (1, -60), (2, F(-1, 25)), (3, 9)], "<=", 0),
                ([(0, F(1, 2)), (1, -90), (2, F(-1, 50)), (3, 3)], "<=", 0),
                ([(2, 1)], "<=", 1),
            ],
            [(0, F(-3, 4)), (1, 150), (2, F(-1, 50)), (3, 6)],
        )
        value, witness = solve(lp, "minimize")
        assert value == F(-1, 20)
        assert feasible(lp, witness)
        assert objective_at(lp, witness) == value


class TestAgainstVertexOracle:
    def test_random_bounded_instances(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            num_vars = rng.randint(1, 4)
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [
                    (i, F(rng.randint(-3, 3)))
                    for i in range(num_vars)
                    if rng.random() < 0.8
                ]
                rows.append(
                    (coeffs, rng.choice(["=", "<=", ">="]),
                     F(rng.randint(-4, 4))))
            rows.append(
                ([(i, F(1)) for i in range(num_vars)], "<=", F(5)))
            objective = [(i, F(rng.randint(-3, 3))) for i in range(num_vars)]
            lp = linear_program(num_vars, rows, objective)
            expected = vertex_lp_oracle(num_vars, rows, objective)
            both = [(objective, "minimize"), (objective, "maximize")]
            if expected is None:
                with pytest.raises(Infeasible):
                    solve(lp, "minimize")
                with pytest.raises(Infeasible):
                    solve_each(lp, both)
                continue
            lo, lo_witness = solve(lp, "minimize")
            hi, hi_witness = solve(lp, "maximize")
            assert (lo, hi) == expected
            assert solve_each(lp, both) == [(lo, lo_witness), (hi, hi_witness)]
            for witness, value in ((lo_witness, lo), (hi_witness, hi)):
                assert feasible(lp, witness)
                assert objective_at(lp, witness) == value
            checked += 1
        assert checked >= 30


def test_one_phase_one_per_query(monkeypatch):
    """Both bounds of a query share one tableau and one phase 1."""
    built = []

    class Counted(linsolve._Tableau):
        def __init__(self, lp):
            built.append(lp)
            super().__init__(lp)

    monkeypatch.setattr(linsolve, "_Tableau", Counted)
    sentences = sentence_set([("a", parse("P")), ("b", parse("P -> Q"))])
    assert entail_bounds(sentences, [F(7, 10), F(9, 10)], parse("Q")) == (
        F(3, 5), F(9, 10))
    assert len(built) == 1

    space = interpretation_space(sentences)
    system = interval_system(
        sentences, mass_function(space, {(3,): F(3, 5), (1, 3): F(2, 5)}))
    assert evidential_entail(system, parse("Q")) == EvidentialInterval(
        F(3, 5), F(1))
    assert len(built) == 2
