"""The benchmark's own propositional logic, independent of evlogic.

Formulas are nested tuples over atoms ``x0, x1, ...``:

    ("atom", k)  ("not", f)  ("and", [f, ...])  ("or", [f, ...])  ("imp", f, g)

The generators build formulas here and render them to text for evlogic;
the reference answers evaluate them here or in ``reference``.  Nothing
here imports evlogic, so a fault in evlogic's parser or sweep cannot
hide in the reference, and nothing here imports numpy, so the worker
that generates queries next to evlogic adds no numpy to its memory.
"""

from __future__ import annotations

from fractions import Fraction


def atom(k: int):
    return ("atom", k)


def neg(f):
    return ("not", f)


def conj(*parts):
    return ("and", list(parts))


def disj(*parts):
    return ("or", list(parts))


def imp(f, g):
    return ("imp", f, g)


def render(f, prefix: str = "x") -> str:
    """Text evlogic parses, atom k spelled ``<prefix>k``.  Atoms, negated
    atoms and two-operand connectives render exactly as evlogic's
    canonical ``to_text``."""
    tag = f[0]
    if tag == "atom":
        return f"{prefix}{f[1]}"
    if tag == "not":
        return f"(~{render(f[1], prefix)})"
    if tag == "imp":
        return f"({render(f[1], prefix)} -> {render(f[2], prefix)})"
    op = " & " if tag == "and" else " | "
    return "(" + op.join(render(p, prefix) for p in f[1]) + ")"


def holds(f, point) -> bool:
    """Truth value of ``f`` under one assignment ``point[k]`` for ``xk``."""
    tag = f[0]
    if tag == "atom":
        return bool(point[f[1]])
    if tag == "not":
        return not holds(f[1], point)
    if tag == "imp":
        return (not holds(f[1], point)) or holds(f[2], point)
    if tag == "and":
        return all(holds(p, point) for p in f[1])
    return any(holds(p, point) for p in f[1])


def realizable_rows(formulas, num_atoms: int) -> list[int]:
    """Sorted truth-value rows that some assignment realizes.  The first
    formula is the most significant bit, as in evlogic's frame."""
    found = set()
    for t in range(1 << num_atoms):
        point = [(t >> k) & 1 for k in range(num_atoms)]
        code = 0
        for f in formulas:
            code = (code << 1) | holds(f, point)
        found.add(code)
    return sorted(found)


def probability(f, points, weights) -> Fraction:
    """Exact probability of ``f`` under a distribution on assignments."""
    return sum((w for p, w in zip(points, weights) if holds(f, p)), Fraction(0))


def dempster(focal1: dict[int, Fraction], focal2: dict[int, Fraction]):
    """Combined focal masses (bitmask -> mass) and the conflict K, by
    enumerating every focal pair."""
    acc: dict[int, Fraction] = {}
    conflict = Fraction(0)
    for a, ma in focal1.items():
        for b, mb in focal2.items():
            meet = a & b
            if meet:
                acc[meet] = acc.get(meet, Fraction(0)) + ma * mb
            else:
                conflict += ma * mb
    if conflict == 1:
        return {}, conflict
    norm = 1 - conflict
    return {m: v / norm for m, v in acc.items()}, conflict
