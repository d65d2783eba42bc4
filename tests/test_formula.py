"""Parser, evaluator, atom listing, and canonical printer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlogic.errors import FormulaSyntaxError, MissingAtom
from evlogic.formula import (
    MAX_DEPTH,
    And,
    Atom,
    Const,
    Iff,
    Imp,
    Not,
    Or,
    atoms,
    evaluate,
    parse,
    to_text,
)

from .oracles import all_assignments, collect_atoms, eval_oracle

P, Q, R = Atom("P"), Atom("Q"), Atom("R")

_names = st.sampled_from(["P", "Q", "R", "s1", "s2", "long_name"])


def formulas(max_leaves: int = 12) -> st.SearchStrategy:
    leaves = st.one_of(
        _names.map(Atom),
        st.booleans().map(Const),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            st.tuples(inner, inner).map(lambda t: Imp(*t)),
            st.tuples(inner, inner).map(lambda t: Iff(*t)),
        ),
        max_leaves=max_leaves,
    )


class TestParse:
    def test_single_operator(self):
        assert parse("P -> Q") == Imp(P, Q)

    def test_precedence(self):
        assert parse("~P & Q | R") == Or(And(Not(P), Q), R)

    def test_imp_right_associative(self):
        assert parse("P -> Q -> R") == Imp(P, Imp(Q, R))

    def test_iff_right_associative(self):
        assert parse("P <-> Q <-> R") == Iff(P, Iff(Q, R))

    def test_and_left_associative(self):
        assert parse("P & Q & R") == And(And(P, Q), R)

    def test_or_left_associative(self):
        assert parse("P | Q | R") == Or(Or(P, Q), R)

    def test_full_precedence_chain(self):
        f = parse("P <-> Q -> R | P & ~Q")
        assert f == Iff(P, Imp(Q, Or(R, And(P, Not(Q)))))

    def test_parentheses_override(self):
        assert parse("(P | Q) & R") == And(Or(P, Q), R)

    def test_unicode_aliases(self):
        assert parse("¬P ∧ Q") == parse("~P & Q")
        assert parse("P ∨ Q") == parse("P | Q")
        assert parse("P → Q") == parse("P -> Q")
        assert parse("P ↔ Q") == parse("P <-> Q")

    def test_constants(self):
        assert parse("true") == Const(True)
        assert parse("false") == Const(False)
        assert parse("true | P") == Or(Const(True), P)

    def test_constant_prefix_is_an_atom(self):
        assert parse("true1") == Atom("true1")

    def test_whitespace_insignificant(self):
        assert parse(" P->Q ") == parse("P -> Q")

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("P &", 3),
            (")", 0),
            ("P Q", 2),
            ("(P", 2),
            ("P)", 1),
            ("P -> ", 5),
        ],
    )
    def test_syntax_errors_carry_offsets(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse(text)
        assert excinfo.value.offset == offset
        assert excinfo.value.expected

    @pytest.mark.parametrize(
        "text,offset",
        [
            # negations, parentheses and a right-associated chain cross the
            # cap at the token one level too deep; a left-associated chain
            # at the operator that makes it one level too tall
            ("~" * 5000 + "P", MAX_DEPTH),
            ("(" * 3000 + "P" + ")" * 3000, MAX_DEPTH),
            (" & ".join(["P"] * 3000), 4 * MAX_DEPTH - 2),
            (" -> ".join(["P"] * 3000), 5 * MAX_DEPTH),
        ],
        ids=["negations", "parentheses", "conjunctions", "implications"],
    )
    def test_deep_formulas_are_syntax_errors(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse(text)
        assert excinfo.value.offset == offset

    def test_formulas_at_the_depth_cap_parse(self):
        deepest = [
            "~" * (MAX_DEPTH - 1) + "P",
            "(" * MAX_DEPTH + "P" + ")" * MAX_DEPTH,
            " & ".join(["P"] * MAX_DEPTH),
            " <-> ".join(["P"] * MAX_DEPTH),
        ]
        for text in deepest:
            f = parse(text)
            # every recursive walker handles the deepest formula parse accepts
            assert evaluate(f, {"P": True}) == eval_oracle(f, {"P": True})
            assert atoms(f) == ("P",)
            assert parse(to_text(f)) == f

    def test_unicode_offset_is_in_bytes(self):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse("¬P &")
        assert excinfo.value.offset == len("¬P &".encode())

    def test_reserved_words_are_not_atom_names(self):
        for name in ("true", "false", "9x", "a b", ""):
            with pytest.raises(ValueError):
                Atom(name)


class TestEvaluate:
    def test_implication_falsifying_row(self):
        assert evaluate(parse("P -> Q"), {"P": True, "Q": False}) is False

    def test_constant_absorbs(self):
        assert evaluate(parse("true | P"), {"P": False}) is True

    def test_contradiction(self):
        assert evaluate(parse("P <-> ~P"), {"P": True}) is False

    def test_missing_atom(self):
        with pytest.raises(MissingAtom) as excinfo:
            evaluate(parse("P & Q"), {"P": True})
        assert excinfo.value.name == "Q"

    def test_extra_atoms_are_ignored(self):
        assert evaluate(P, {"P": True, "Z": False}) is True

    @settings(max_examples=300)
    @given(formulas())
    def test_agrees_with_independent_evaluator(self, f):
        for a in all_assignments(collect_atoms(f)):
            assert evaluate(f, a) == eval_oracle(f, a)


class TestAtoms:
    def test_dedup_and_sort(self):
        assert atoms(parse("Q & P | P")) == ("P", "Q")

    def test_no_atoms(self):
        assert atoms(parse("true")) == ()

    def test_lexicographic(self):
        assert atoms(parse("x1 -> x10")) == ("x1", "x10")

    @given(formulas())
    def test_agrees_with_independent_walker(self, f):
        assert atoms(f) == collect_atoms(f)


class TestToText:
    def test_atom_prints_bare(self):
        assert to_text(P) == "P"

    def test_constants(self):
        assert to_text(Const(True)) == "true"
        assert to_text(Const(False)) == "false"

    def test_full_parenthesization(self):
        assert to_text(parse("~P & Q | R")) == "(((~P) & Q) | R)"

    @settings(max_examples=300)
    @given(formulas())
    def test_round_trip(self, f):
        assert parse(to_text(f)) == f
