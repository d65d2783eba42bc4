"""Probabilistic logic over the interpretation frame.

Treats the sentence set as a multi-dimensional binary random variable:
a joint distribution assigns an exact rational probability to every row
of the frame.  Marginals, conditionals and the Bayes identities fall
out by summation; entailment bounds on a query sentence are the exact
minimum and maximum of one LP over the permissible distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linsolve
from .errors import (
    CapExceeded,
    Incoherent,
    Infeasible,
    ImpermissibleConditional,
    InvalidDistribution,
    OverlappingSpecs,
    ZeroProbabilityCondition,
)
from .formula import Formula
from .semantics import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_SENTENCES,
    InterpretationSpace,
    SentenceSet,
    extended_set,
    index_to_vector,
    interpretation_space,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# Maps sentence index -> required truth value; unmentioned indices are free.
MarginSpec = Mapping[int, bool]


@dataclass(frozen=True)
class JointDistribution:
    space: InterpretationSpace
    probs: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return self.space.n


def joint_distribution(
    space: InterpretationSpace,
    probs: Sequence[Fraction],
    mode: str = "strict",
) -> JointDistribution:
    """Validate and wrap a probability vector over the frame's rows.

    In strict mode every inconsistent row must carry zero probability.
    """
    _check_mode(mode)
    if len(probs) != space.size:
        raise InvalidDistribution(
            f"{len(probs)} probabilities for {space.size} rows")
    values = tuple(Fraction(p) for p in probs)
    for j, p in enumerate(values):
        if p < 0:
            raise InvalidDistribution(f"negative probability at row {j}")
        if mode == "strict" and p > 0 and not space.consistent[j]:
            raise InvalidDistribution(
                f"row {j} is inconsistent but has probability {p}")
    total = sum(values, ZERO)
    if total != 1:
        raise InvalidDistribution(f"probabilities sum to {total}, not 1")
    return JointDistribution(space, values)


def _check_mode(mode: str):
    if mode not in ("strict", "generalized"):
        raise ValueError(f"bad mode {mode!r}")


def _normalize_spec(joint: JointDistribution, spec: MarginSpec) -> dict[int, bool]:
    out = {}
    for i, value in spec.items():
        if not 0 <= i < joint.n:
            raise IndexError(i)
        out[i] = bool(value)
    return out


def _matches(j: int, n: int, spec: Mapping[int, bool]) -> bool:
    return all(bool((j >> (n - 1 - i)) & 1) == want for i, want in spec.items())


def valuation(joint: JointDistribution) -> tuple[Fraction, ...]:
    """Per-sentence probabilities: the sentence matrix applied to the
    joint probability vector."""
    n = joint.n
    out = [ZERO] * n
    for j, p in enumerate(joint.probs):
        if p == 0:
            continue
        for i in range(n):
            if (j >> (n - 1 - i)) & 1:
                out[i] += p
    return tuple(out)


def marginal(joint: JointDistribution, u: MarginSpec) -> Fraction:
    """Total probability of the rows matching every fixed component of u."""
    spec = _normalize_spec(joint, u)
    return sum(
        (p for j, p in enumerate(joint.probs) if _matches(j, joint.n, spec)),
        ZERO,
    )


def conditional(joint: JointDistribution, u: MarginSpec, w: MarginSpec) -> Fraction:
    """p(u | w) as the exact ratio of matching-row sums."""
    u_spec = _normalize_spec(joint, u)
    w_spec = _normalize_spec(joint, w)
    if u_spec.keys() & w_spec.keys():
        raise OverlappingSpecs("condition and target fix a common sentence")
    denom = marginal(joint, w_spec)
    if denom == 0:
        raise ZeroProbabilityCondition("conditioning event has probability zero")
    return marginal(joint, {**u_spec, **w_spec}) / denom


def bayes_posterior(joint: JointDistribution, u: MarginSpec, w: MarginSpec) -> Fraction:
    """p(w | u) computed the long way round, as p(w) p(u|w) / p(u).

    Agrees exactly with ``conditional(joint, w, u)``.
    """
    u_spec = _normalize_spec(joint, u)
    w_spec = _normalize_spec(joint, w)
    if u_spec.keys() & w_spec.keys():
        raise OverlappingSpecs("the two specifications fix a common sentence")
    p_u = marginal(joint, u_spec)
    p_w = marginal(joint, w_spec)
    if p_u == 0 or p_w == 0:
        raise ZeroProbabilityCondition("both events need positive probability")
    p_u_given_w = marginal(joint, {**u_spec, **w_spec}) / p_w
    return p_w * p_u_given_w / p_u


def entail_bounds(
    sentences: SentenceSet,
    probs: Sequence[Fraction],
    target: Formula,
    mode: str = "strict",
    *,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> tuple[Fraction, Fraction]:
    """Tight probability bounds for ``target`` given point probabilities.

    Appends the target to the sentence set, builds the extended frame,
    and solves for the minimum and maximum total probability of the
    target-true columns over all distributions whose per-sentence
    marginals equal ``probs``.  Strict mode admits only consistent
    columns; generalized mode admits all of them.
    """
    _check_mode(mode)
    if len(probs) != sentences.n:
        raise ValueError(f"{len(probs)} probabilities for {sentences.n} sentences")
    pi = [Fraction(p) for p in probs]
    for p in pi:
        if not 0 <= p <= 1:
            raise ValueError(f"probability {p} outside [0, 1]")
    space = _extended_space(
        sentences, target, max_sentences=max_sentences, max_atoms=max_atoms)
    if mode == "strict":
        columns = sorted(space.consistent_indices)
    else:
        columns = list(range(space.size))
    n = sentences.n
    constraints: list[tuple[linsolve.Coeffs, str, Fraction]] = [
        ([(k, ONE) for k in range(len(columns))], "=", ONE),
    ]
    for i in range(n):
        shift = space.n - 1 - i
        coeffs = [(k, ONE) for k, j in enumerate(columns) if (j >> shift) & 1]
        constraints.append((coeffs, "=", pi[i]))
    objective = [(k, ONE) for k, j in enumerate(columns) if j & 1]
    lp = linsolve.linear_program(len(columns), constraints, objective)
    try:
        (lo, _), (hi, _) = linsolve.solve_each(
            lp, [(lp.objective, "minimize"), (lp.objective, "maximize")])
    except Infeasible:
        raise Incoherent("incoherent probability assignment") from None
    return lo, hi


def _extended_space(
    sentences: SentenceSet,
    target: Formula,
    *,
    max_sentences: int,
    max_atoms: int,
) -> InterpretationSpace:
    if sentences.n > max_sentences:
        raise CapExceeded("sentences", sentences.n, max_sentences)
    return interpretation_space(
        extended_set(sentences, target),
        max_sentences=max_sentences + 1,
        max_atoms=max_atoms,
    )


def extend_joint(
    joint: JointDistribution,
    s: Formula,
    q: Mapping[tuple[bool, ...], Fraction],
    mode: str = "strict",
    *,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> JointDistribution:
    """Append sentence ``s`` using conditional probabilities given each row.

    ``q[v]`` is the probability of ``s`` being true when the sentences
    take the truth values ``v``; the extended joint places
    ``p(v) * q(v)`` and ``p(v) * (1 - q(v))`` on the two rows extending
    ``v``.  Strict mode first checks permissibility: a row of positive
    probability may not send conditional mass to an unrealizable
    extension.
    """
    _check_mode(mode)
    sentences = joint.space.sentences
    n = joint.n
    table: dict[tuple[bool, ...], Fraction] = {}
    for v, value in q.items():
        key = tuple(bool(b) for b in v)
        if len(key) != n:
            raise ValueError(f"conditional row {key} has wrong length")
        value = Fraction(value)
        if not 0 <= value <= 1:
            raise ValueError(f"conditional probability {value} outside [0, 1]")
        table[key] = value
    if len(table) != joint.space.size:
        raise ValueError(
            f"conditional table covers {len(table)} of {joint.space.size} rows")
    space2 = _extended_space(
        sentences, s, max_sentences=max_sentences, max_atoms=max_atoms)
    if mode == "strict":
        for j, p in enumerate(joint.probs):
            if p == 0:
                continue
            v = index_to_vector(j, n)
            if not space2.consistent[2 * j + 1] and table[v] != 0:
                raise ImpermissibleConditional(
                    v, "the appended sentence cannot be true here, so the "
                       "conditional must be 0")
            if not space2.consistent[2 * j] and table[v] != 1:
                raise ImpermissibleConditional(
                    v, "the appended sentence cannot be false here, so the "
                       "conditional must be 1")
    probs2 = [ZERO] * (2 * joint.space.size)
    for j, p in enumerate(joint.probs):
        qv = table[index_to_vector(j, n)]
        probs2[2 * j + 1] = p * qv
        probs2[2 * j] = p * (ONE - qv)
    return joint_distribution(space2, probs2, mode)
