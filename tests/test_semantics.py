"""Interpretation frame construction, consistency, and support sets."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlogic import semantics
from evlogic.errors import AtomCapExceeded, CapExceeded, UnknownName
from evlogic.formula import And, Atom, Const, Iff, Imp, Not, Or, parse
from evlogic.semantics import (
    SentenceSet,
    extended_set,
    fresh_sentence_name,
    index_to_vector,
    interpretation_space,
    is_realizable,
    rows_satisfying,
    sentence_set,
    support_set,
    vector_to_index,
)

from .oracles import all_assignments, collect_atoms, eval_oracle


def S(*pairs: str) -> SentenceSet:
    return sentence_set(
        (name.strip(), parse(text))
        for name, _, text in (p.partition(":") for p in pairs)
    )


CHAIN = S("a: P", "b: P -> Q", "c: Q")


class TestSentenceSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SentenceSet(())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            S("a: P", "a: Q")

    def test_atom_names_merged_sorted(self):
        assert CHAIN.atom_names == ("P", "Q")

    def test_index_of(self):
        assert CHAIN.index_of("b") == 1
        with pytest.raises(KeyError):
            CHAIN.index_of("z")


class TestIndexVectorBijection:
    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_round_trip(self, n, data):
        j = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        assert vector_to_index(index_to_vector(j, n)) == j

    def test_first_sentence_is_most_significant(self):
        assert index_to_vector(4, 3) == (True, False, False)
        assert vector_to_index((True, False, False)) == 4


class TestInterpretationSpace:
    def test_single_free_atom(self):
        space = interpretation_space(S("P: P"))
        assert space.size == 2
        assert space.consistent == (True, True)

    def test_negation_pair(self):
        space = interpretation_space(S("a: P", "b: ~P"))
        flags = {j: ok for j, _, ok in space.rows()}
        assert flags == {0: False, 1: True, 2: True, 3: False}

    def test_chain_has_four_consistent_vectors(self):
        space = interpretation_space(CHAIN)
        expected = {
            vector_to_index(v)
            for v in [
                (True, True, True),
                (True, False, False),
                (False, True, True),
                (False, True, False),
            ]
        }
        assert space.consistent_indices == frozenset(expected)
        assert expected == {7, 4, 3, 2}

    def test_row_order_is_canonical(self):
        space = interpretation_space(CHAIN)
        listed = [(j, v) for j, v, _ in space.rows()]
        assert listed == [(j, index_to_vector(j, 3)) for j in range(8)]

    def test_vector_bounds(self):
        space = interpretation_space(S("P: P"))
        with pytest.raises(IndexError):
            space.vector(2)

    def test_sentence_cap(self):
        pairs = [f"s{i}: P{i}" for i in range(4)]
        with pytest.raises(CapExceeded):
            interpretation_space(S(*pairs), max_sentences=3)

    def test_atom_cap(self):
        wide = sentence_set(
            [("s", parse(" | ".join(f"x{i:02d}" for i in range(21))))])
        with pytest.raises(AtomCapExceeded):
            interpretation_space(wide)


class TestIsRealizable:
    def test_negation_pair_both_true(self):
        assert is_realizable(S("a: P", "b: ~P"), (True, True)) is False

    def test_modus_ponens_forces_q(self):
        assert is_realizable(CHAIN, (True, True, False)) is False

    def test_disjunction_witness(self):
        assert is_realizable(S("a: P | Q"), (True,)) is True

    def test_length_check(self):
        with pytest.raises(ValueError):
            is_realizable(CHAIN, (True, True))

    def test_flags_match_witness_oracle(self):
        """Every consistency flag is re-derived from raw assignment
        enumeration, over 200 random small sentence sets."""
        rng = random.Random(11)
        pool = [
            "P", "Q", "R", "~P", "P -> Q", "Q -> R", "P & Q", "P | Q",
            "P <-> Q", "~P | R", "P & ~Q", "(P & Q) -> R",
        ]
        for _ in range(200):
            n = rng.randint(1, 3)
            formulas = [parse(t) for t in rng.sample(pool, n)]
            sentences = sentence_set(
                (f"s{i}", f) for i, f in enumerate(formulas))
            space = interpretation_space(sentences)
            names = sentences.atom_names
            realizable = set()
            for a in all_assignments(names):
                realizable.add(
                    tuple(eval_oracle(f, a) for f in formulas))
            for j, v, flag in space.rows():
                assert flag == (v in realizable)


_BINARY = [And, Or, Imp, Iff]


def formulas_over(names: list[str], max_leaves: int = 8) -> st.SearchStrategy:
    leaves = st.booleans().map(Const)
    if names:
        leaves = st.one_of(st.sampled_from(names).map(Atom), leaves)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(st.sampled_from(_BINARY), inner, inner).map(
                lambda t: t[0](t[1], t[2])),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def frames(draw) -> SentenceSet:
    """1-5 sentences over exactly 0-14 atoms.  One sentence chains every
    atom with random connectives, so the frame reaches its atom count;
    the others reuse atoms freely."""
    count = draw(st.integers(min_value=0, max_value=14))
    names = [f"p{k:02d}" for k in range(count)]
    formulas = draw(st.lists(formulas_over(names), min_size=0, max_size=4))
    chain = Atom(names[0]) if names else draw(st.booleans().map(Const))
    for name in names[1:]:
        chain = draw(st.sampled_from(_BINARY))(chain, Atom(name))
    formulas.insert(draw(st.integers(0, len(formulas))), chain)
    return sentence_set((f"s{i}", f) for i, f in enumerate(formulas))


def realizable_oracle(sentences: SentenceSet) -> frozenset[int]:
    """Row indices read off every atom assignment, first sentence as the
    most significant bit."""
    formulas = sentences.formulas
    names: set[str] = set()
    for f in formulas:
        names.update(collect_atoms(f))
    return frozenset(
        sum(eval_oracle(f, a) << (len(formulas) - 1 - i)
            for i, f in enumerate(formulas))
        for a in all_assignments(sorted(names)))


def consistent_indices(sentences: SentenceSet, slice_bits: int) -> frozenset[int]:
    """The sweep's answer with slices of ``slice_bits`` assignments."""
    with mock.patch.object(semantics, "_SLICE_BITS", slice_bits):
        semantics._realizable_indices.cache_clear()
        try:
            return interpretation_space(sentences).consistent_indices
        finally:
            semantics._realizable_indices.cache_clear()


class TestSweep:
    """The bit-parallel sweep against raw assignment enumeration."""

    @settings(max_examples=80, deadline=None)
    @given(frames(), st.sampled_from([8, 64, 1024, semantics._SLICE_BITS]))
    def test_matches_assignment_oracle(self, sentences, slice_bits):
        # narrow slices put small frames on both sides of the slice width
        assert len(sentences.atom_names) <= 14
        assert consistent_indices(sentences, slice_bits) == realizable_oracle(
            sentences)

    def test_dense_frame_realizes_every_row(self):
        # eleven contingent sentences over disjoint atoms are independent
        texts = [f"a{i:02d} -> b{i:02d}" for i in range(9)] + ["a09", "~a10"]
        sentences = sentence_set(
            (f"s{i}", parse(t)) for i, t in enumerate(texts))
        assert len(sentences.atom_names) == 20
        space = interpretation_space(sentences, max_sentences=11)
        assert space.consistent_indices == frozenset(range(2048))

    def test_twenty_atoms_one_unrealizable_row(self):
        # s10 is forced true exactly when s0..s9 are all true
        zs = " & ".join(f"z{i}" for i in range(10))
        ys = " & ".join(f"y{i}" for i in range(10))
        texts = [f"z{i}" for i in range(10)] + [f"({zs}) | ({ys})"]
        sentences = sentence_set(
            (f"s{i}", parse(t)) for i, t in enumerate(texts))
        assert len(sentences.atom_names) == 20
        space = interpretation_space(sentences, max_sentences=11)
        assert space.consistent_indices == frozenset(range(2048)) - {0b11111111110}

    def test_single_atom(self):
        space = interpretation_space(S("a: P", "b: ~P", "c: P <-> P", "d: P -> false"))
        assert space.consistent_indices == frozenset({0b1010, 0b0111})


class TestSupportSet:
    def test_single_sentence(self):
        space = interpretation_space(S("P: P"))
        assert support_set(space, 0) == frozenset({1})

    def test_negation_pair_restricted(self):
        space = interpretation_space(S("a: P", "b: ~P"))
        assert support_set(space, 0, restrict_consistent=True) == frozenset({2})

    def test_chain_restricted(self):
        space = interpretation_space(CHAIN)
        assert support_set(space, 2, restrict_consistent=True) == frozenset({7, 3})

    def test_partition_of_selected_rows(self):
        space = interpretation_space(CHAIN)
        for restrict in (False, True):
            selected = (
                space.consistent_indices if restrict
                else frozenset(range(space.size)))
            for i in range(space.n):
                inside = support_set(space, i, restrict_consistent=restrict)
                outside = selected - inside
                assert inside | outside == selected
                assert not inside & outside
                for j in inside:
                    assert index_to_vector(j, space.n)[i] is True
                for j in outside:
                    assert index_to_vector(j, space.n)[i] is False

    def test_index_out_of_range(self):
        space = interpretation_space(S("P: P"))
        with pytest.raises(IndexError):
            support_set(space, 1)


class TestRowsSatisfying:
    def test_sentence_names_are_the_atoms(self):
        space = interpretation_space(S("a: P", "b: ~P"))
        assert rows_satisfying(space, parse("a & ~b")) == frozenset({2})

    def test_true_denotes_the_whole_frame(self):
        space = interpretation_space(S("a: P", "b: ~P"))
        assert rows_satisfying(space, parse("true")) == frozenset({0, 1, 2, 3})

    def test_restrict_consistent(self):
        space = interpretation_space(S("a: P", "b: ~P"))
        assert rows_satisfying(
            space, parse("true"), restrict_consistent=True) == frozenset({1, 2})

    def test_unknown_name(self):
        space = interpretation_space(S("a: P"))
        with pytest.raises(UnknownName):
            rows_satisfying(space, parse("z"))

    @settings(max_examples=60, deadline=None)
    @given(formulas_over(list(CHAIN.names)), st.booleans())
    def test_matches_row_oracle(self, f, restrict):
        space = interpretation_space(CHAIN)
        expected = frozenset(
            j for j, v, ok in space.rows()
            if eval_oracle(f, dict(zip(CHAIN.names, v)))
            and (ok or not restrict))
        assert rows_satisfying(space, f, restrict_consistent=restrict) == expected


class TestExtendedSet:
    def test_appends_with_fresh_name(self):
        extended = extended_set(CHAIN, parse("P & Q"))
        assert extended.n == 4
        assert extended.names[:3] == CHAIN.names
        assert extended.names[3] == "_q0"
        assert extended.formulas[3] == parse("P & Q")

    def test_fresh_name_avoids_collisions(self):
        taken = S("_q0: P", "_q1: Q")
        assert fresh_sentence_name(taken) == "_q2"
