"""Seeded query generators for the four workloads.

Every generator takes the seed and a directory for the files the ``cli``
queries read, and yields an endless stream of ``Query``; the same seed
gives the same stream.  ``payload`` is all the worker hands to evlogic:
formula text, ``a/b`` rationals and, on ``cli``, an argument vector.
``expect`` stays in this process for ``check``.

Query classes are laid out in a fixed cycle per workload, so every run
of a workload has the same mix whatever its seed; the seed picks the
formulas and numbers inside each class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import logic
from logic import atom, conj, disj, imp, neg, render


@dataclass
class Query:
    label: str
    payload: dict
    expect: dict = field(default_factory=dict)


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _weights(rng: random.Random, k: int, total: int = 100) -> list[Fraction]:
    """k positive multiples of 1/total that sum to one."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


def _literal(rng: random.Random, k: int):
    return atom(k) if rng.random() < 0.5 else neg(atom(k))


def _distribution(rng: random.Random, num_atoms: int, lo: int = 3, hi: int = 8):
    """A random distribution on a few atom assignments, weights in 1/100."""
    k = rng.randint(lo, hi)
    points = [[rng.random() < 0.6 for _ in range(num_atoms)] for _ in range(k)]
    return points, _weights(rng, k)


# --- entail-chain ---------------------------------------------------------

# sN: strict, N sentences, coherent; gN: generalized; i: strict,
# perturbed to incoherent.  Half the queries are s8, so the median falls
# inside one class; s9, s10, g6 and g7 take turns as the one slow query
# of each block of 20, which puts the 90th percentile in the upper tail
# of s8 and g5 rather than on the edge between two classes.
_ENTAIL_CYCLE = [
    q for slow in ("s9", "s10", "g6", "g7")
    for q in ("s8", "g5", "s8", "i", "s8", "g5", "s7", "s8", "s6", "s8",
              "g5", "s8", "i", "s8", "g5", "s7", "s8", slow, "s8", "s8")
]


def _chain_sentences(rng: random.Random, n: int):
    """``s0: x0`` and ``si: x(parent) -> xi``; the parent is ``i - 1`` in
    a chain and any earlier atom in a fork."""
    fork = rng.random() < 0.5
    formulas = [atom(0)]
    for i in range(1, n):
        parent = rng.randrange(i) if fork else i - 1
        formulas.append(imp(atom(parent), atom(i)))
    return formulas


def _chain_target(rng: random.Random, n: int):
    a, b = rng.sample(range(1, n), 2)
    pick = rng.randrange(3)
    if pick == 0:
        return atom(n - 1)
    if pick == 1:
        return conj(atom(a), atom(b))
    return disj(atom(a), neg(atom(b)))


def entail_chain(seed: int, work: Path):
    rng = random.Random(seed)
    for q in itertools.count():
        cls = _ENTAIL_CYCLE[q % len(_ENTAIL_CYCLE)]
        incoherent = cls == "i"
        n = rng.randint(6, 10) if incoherent else int(cls[1:])
        mode = "generalized" if cls[0] == "g" else "strict"
        formulas = _chain_sentences(rng, n)
        target = _chain_target(rng, n)
        points, weights = _distribution(rng, n)
        probs = [logic.probability(f, points, weights) for f in formulas]
        if incoherent:
            # p(x0 -> x1) >= 1 - p(x0) holds in every distribution.
            a = Fraction(rng.randint(30, 80), 100)
            probs[0], probs[1] = a, 1 - a - Fraction(rng.randint(2, 15), 100)
        yield Query(cls, {
            "kind": "entail",
            "sentences": [[f"s{i}", render(f)] for i, f in enumerate(formulas)],
            "probs": [frac(p) for p in probs],
            "target": render(target),
            "mode": mode,
        }, {
            "formulas": formulas, "target": target, "num_atoms": n,
            "incoherent": incoherent,
            "target_prob": None if incoherent else logic.probability(
                target, points, weights),
        })


# --- ds-entail ------------------------------------------------------------

# kN: strict with N consistent extended rows (2**N - 1 LP columns); g2:
# generalized, two sentences (255 columns); c: Dempster combination.  k7
# and g2 take half the queries, so the median falls among them.
_DS_CYCLE = ["k5", "k7", "g2", "k9", "k6", "k7", "c", "k9", "k7", "g2",
             "k8", "k7", "c", "k9", "k6", "g2", "k7", "k8", "g2", "k7"]


def _small_formula(rng: random.Random, num_atoms: int):
    a, b = rng.sample(range(num_atoms), 2)
    x, y = _literal(rng, a), _literal(rng, b)
    return rng.choice([imp(x, y), disj(x, y), conj(x, y)])


def _mass_on(rng: random.Random, rows: list[int], lo: int, hi: int):
    """Focal elements as bitmasks over ``rows`` positions -> mass."""
    k = len(rows)
    count = min(rng.randint(lo, hi), (1 << k) - 1)
    masks = rng.sample(range(1, 1 << k), count)
    return dict(zip(masks, _weights(rng, count, total=max(100, count))))


def _rows_of(mask: int, rows: list[int]) -> list[int]:
    return [r for pos, r in enumerate(rows) if (mask >> pos) & 1]


def _ds_query(rng: random.Random, cls: str) -> Query:
    if cls == "g2":
        n, mode = 2, "generalized"
        num_atoms = rng.randint(2, 3)
        formulas = [_small_formula(rng, num_atoms) for _ in range(n)]
        target = _small_formula(rng, num_atoms)
        base = list(range(1 << n))
        # every base row extends both ways in the generalized frame
        t_true = t_false = set(base)
    else:
        want, mode = int(cls[1:]), "strict"
        while True:
            n, num_atoms = rng.randint(2, 4), rng.randint(3, 4)
            formulas = [_small_formula(rng, num_atoms) for _ in range(n)]
            target = _small_formula(rng, num_atoms)
            extended = logic.realizable_rows(formulas + [target], num_atoms)
            if len(extended) == want:
                break
        base = sorted({j >> 1 for j in extended})
        # base rows with a consistent extension where the target is true/false
        t_true = {j >> 1 for j in extended if j & 1}
        t_false = {j >> 1 for j in extended if not j & 1}
    mass = {frozenset(_rows_of(e, base)): m for e, m in _mass_on(rng, base, 2, 5).items()}
    intervals = []
    for i in range(n):
        a = {r for r in base if (r >> (n - 1 - i)) & 1}
        spt = sum((m for e, m in mass.items() if e <= a), Fraction(0))
        anti = sum((m for e, m in mass.items() if not e & a), Fraction(0))
        intervals.append((spt, 1 - anti))
    # The generating mass, lifted to the extended frame, bounds the answer.
    spt_t = sum((m for e, m in mass.items() if not e & t_false), Fraction(0))
    pls_t = 1 - sum((m for e, m in mass.items() if not e & t_true), Fraction(0))
    return Query(cls, {
        "kind": "ds-entail",
        "sentences": [[f"s{i}", render(f)] for i, f in enumerate(formulas)],
        "intervals": [[frac(a), frac(b)] for a, b in intervals],
        "target": render(target),
        "mode": mode,
        "relation": rng.choice(["exact", "relaxed"]),
    }, {
        "formulas": formulas, "target": target, "num_atoms": num_atoms,
        "incoherent": False, "generating_interval": (spt_t, pls_t),
    })


def _combine_query(rng: random.Random) -> Query:
    n = rng.randint(3, 4)
    num_atoms = rng.randint(3, 4)
    formulas = [_small_formula(rng, num_atoms) for _ in range(n)]
    rows = list(range(1 << n))
    while True:
        m1, m2 = _mass_on(rng, rows, 8, 64), _mass_on(rng, rows, 8, 64)
        combined, conflict = logic.dempster(m1, m2)
        if conflict != 1:
            break
    return Query("c", {
        "kind": "combine",
        "sentences": [[f"s{i}", render(f)] for i, f in enumerate(formulas)],
        "mass1": [[_rows_of(e, rows), frac(m)] for e, m in m1.items()],
        "mass2": [[_rows_of(e, rows), frac(m)] for e, m in m2.items()],
    }, {
        "focal": {frozenset(_rows_of(e, rows)): m for e, m in combined.items()},
        "conflict": conflict,
    })


def ds_entail(seed: int, work: Path):
    rng = random.Random(seed)
    for q in itertools.count():
        cls = _DS_CYCLE[q % len(_DS_CYCLE)]
        yield _combine_query(rng) if cls == "c" else _ds_query(rng, cls)


# --- sweep-wide -----------------------------------------------------------

# (atoms, sentences) per knowledge base.  Ten atoms or fewer takes
# evlogic's pure-Python sweep, more takes its numpy sweep.  The two
# (10, 3) bases sit in the middle of the latency order, so the median
# falls inside one class; the three 20-atom bases hold the 90th percentile.
_SWEEP_CYCLE = [(10, 3), (20, 3), (9, 4), (16, 3), (10, 4), (20, 2), (12, 3), (20, 4),
                (10, 3), (18, 3)]
_SWEEP_CLAUSES = 10
# Queries per knowledge base, each with its own target; evlogic sweeps
# the extended frame afresh for every one.
_SWEEP_TARGETS = 4


def _long_sentences(rng: random.Random, num_atoms: int, n: int):
    """n CNF/DNF sentences of 3-literal clauses that together use every
    atom; the first is a CNF whose leading unit clause it entails."""
    slots = list(range(num_atoms))
    rng.shuffle(slots)
    formulas = []
    for i in range(n):
        parts = []
        for _ in range(_SWEEP_CLAUSES):
            picks = [slots.pop()] if slots else []
            while len(picks) < 3:
                k = rng.randrange(num_atoms)
                if k not in picks:
                    picks.append(k)
            lits = [_literal(rng, k) for k in picks]
            parts.append(disj(*lits) if i % 2 == 0 else conj(*lits))
        formulas.append(conj(*parts) if i % 2 == 0 else disj(*parts))
    unit = _literal(rng, rng.randrange(num_atoms))
    formulas[0] = conj(unit, *formulas[0][1])
    return formulas, unit


def sweep_wide(seed: int, work: Path):
    rng = random.Random(seed)
    for b in itertools.count():
        num_atoms, n = _SWEEP_CYCLE[b % len(_SWEEP_CYCLE)]
        formulas, unit = _long_sentences(rng, num_atoms, n)
        points, weights = _distribution(rng, num_atoms)
        sentences = [[f"s{i}", render(f)] for i, f in enumerate(formulas)]
        probs = [frac(logic.probability(f, points, weights)) for f in formulas]
        # s0 entails the unit literal, so it entails every target and row
        # (s0 true, target false) is unrealizable: no sweep stops early.
        unit_atom = unit[1] if unit[0] == "atom" else unit[1][1]
        others = rng.sample([k for k in range(num_atoms) if k != unit_atom],
                            _SWEEP_TARGETS - 1)
        for target in [unit] + [disj(unit, _literal(rng, k)) for k in others]:
            yield Query(f"a{num_atoms}n{n}", {
                "kind": "entail",
                "sentences": sentences,
                "probs": probs,
                "target": render(target),
                "mode": "strict",
            }, {
                "formulas": formulas, "target": target, "num_atoms": num_atoms,
                "incoherent": False,
                "target_prob": logic.probability(target, points, weights),
            })


# --- cli ------------------------------------------------------------------

# The first queries run the documented examples in tests/data, each once;
# after them the generated cycle repeats.  Sentences are named x0, x1, ...
# and their formulas use atoms y0, y1, ...
_TESTS_DATA = [
    (["entail", "tests/data/modus_ponens.kb"], 0,
     "Q: [3/5, 9/10] (0.600000, 0.900000)\n"),
    (["entail", "tests/data/quaker.kb"], 2, ""),
    (["ds-combine", "tests/data/single.kb", "tests/data/left.mass",
      "tests/data/right.mass"], 0,
     "mass ~P = 1/4\nmass true = 1/8\nmass P = 5/8\n# conflict = 1/5 (0.200000)\n"),
    (["ds-entail", "tests/data/modus_ponens_intervals.kb"], 0,
     "Q: [3/5, 9/10] (0.600000, 0.900000)\n"),
    (["joint", "tests/data/joint2.kb", "tests/data/joint2.joint",
      "--conditional", "A=1|B=1"], 0, "p(A=1 | B=1) = 4/7 (0.571429)\n"),
]
# "ds" calls solve the largest LPs (127 columns) and are the slowest by
# a clear margin; two in ten put the 90th percentile inside that kind
# rather than on its edge.
_CLI_CYCLE = ["interp", "entail", "ds", "combine", "joint",
              "entail-json", "incoherent", "cap", "syntax", "ds"]


def dec(x: Fraction) -> str:
    return f"{float(x):.6f}"


def _bits(j: int, n: int) -> str:
    return format(j, f"0{n}b")


def _kb_text(formulas, numbers=(), queries=()) -> str:
    """A KB file; ``numbers`` holds one (``prob`` or ``interval``, value
    text) pair per sentence."""
    lines = [f"sentence x{i} : {render(f, 'y')}" for i, f in enumerate(formulas)]
    lines += [f"{keyword} x{i} = {value}" for i, (keyword, value) in enumerate(numbers)]
    lines += [f"query {render(t, 'y')}" for t in queries]
    return "\n".join(lines) + "\n"


def _name_formula(rng: random.Random, n: int):
    """A formula over sentence names with a nonempty extension."""
    if n < 2 or rng.random() < 0.3:
        return _literal(rng, rng.randrange(n))
    a, b = rng.sample(range(n), 2)
    return rng.choice([conj, disj])(_literal(rng, a), _literal(rng, b))


def _extension(f, n: int) -> int:
    """Bitmask of frame rows (row j at bit j) whose vector satisfies f."""
    mask = 0
    for j in range(1 << n):
        if logic.holds(f, [(j >> (n - 1 - k)) & 1 for k in range(n)]):
            mask |= 1 << j
    return mask


def _element_text(mask: int, n: int) -> str:
    rows = [j for j in range(1 << n) if (mask >> j) & 1]
    if len(rows) == 1 << n:
        return "true"
    return " | ".join(
        " & ".join(f"x{k}" if (j >> (n - 1 - k)) & 1 else f"~x{k}" for k in range(n))
        for j in rows)


def _cli_query(rng: random.Random, kind: str, work: Path, tag: str) -> Query:
    def write(name: str, text: str) -> str:
        path = work / f"{tag}-{name}"
        path.write_text(text, encoding="utf-8")
        return path.as_posix()

    num_atoms = 3
    n = rng.randint(2, 4)
    formulas = [_small_formula(rng, num_atoms) for _ in range(n)]
    realizable = logic.realizable_rows(formulas, num_atoms)

    if kind == "interp":
        argv = ["interpretations", write("i.kb", _kb_text(formulas))]
        flag = {j: j in realizable for j in range(1 << n)}
        if rng.random() < 0.5:
            return Query(kind, {"kind": "cli", "argv": argv + ["--json"]}, {
                "code": 0, "json": [
                    {"index": j, "bits": _bits(j, n), "consistent": ok}
                    for j, ok in flag.items()]})
        return Query(kind, {"kind": "cli", "argv": argv}, {"code": 0, "stdout": "".join(
            f"{j} {_bits(j, n)} {'consistent' if ok else 'inconsistent'}\n"
            for j, ok in flag.items())})

    if kind in ("entail", "entail-json"):
        n = rng.randint(3, 5)
        formulas = _chain_sentences(rng, n)
        points, weights = _distribution(rng, n)
        probs = [logic.probability(f, points, weights) for f in formulas]
        targets = [_chain_target(rng, n) for _ in range(rng.randint(1, 2))]
        text = _kb_text(formulas, [("prob", f"{float(p):.2f}") for p in probs], targets)
        argv = ["entail", write("e.kb", text)]
        if kind == "entail-json":
            argv.append("--json")
        return Query(kind, {"kind": "cli", "argv": argv}, {
            "code": 0, "json_bounds" if kind == "entail-json" else "bounds": [
                (render(t, "y"), ("entail", formulas, probs, t, "strict", n))
                for t in targets]})

    if kind == "ds":
        q = _ds_query(rng, "k7")
        formulas, target = q.expect["formulas"], q.expect["target"]
        intervals = [(Fraction(a), Fraction(b)) for a, b in q.payload["intervals"]]
        text = _kb_text(formulas, [("interval", f"[{a}, {b}]") for a, b in intervals],
                        [target])
        relation = q.payload["relation"]
        return Query(kind, {"kind": "cli", "argv": [
            "ds-entail", write("d.kb", text), "--relation", relation]}, {
            "code": 0, "bounds": [(render(target, "y"), (
                "evidential", formulas, intervals, target, "strict", relation,
                q.expect["num_atoms"]))]})

    if kind == "combine":
        masses = []
        for _ in range(2):
            elements = [_name_formula(rng, n) for _ in range(rng.randint(2, 4))]
            weights = _weights(rng, len(elements))
            masses.append((elements, weights))
        focal = []
        for elements, weights in masses:
            merged: dict[int, Fraction] = {}
            for f, w in zip(elements, weights):
                m = _extension(f, n)
                merged[m] = merged.get(m, Fraction(0)) + w
            focal.append(merged)
        combined, conflict = logic.dempster(*focal)
        if conflict == 1:
            return _cli_query(rng, kind, work, tag)
        order = sorted(combined, key=lambda m: [j for j in range(1 << n) if (m >> j) & 1])
        stdout = "".join(f"mass {_element_text(m, n)} = {combined[m]}\n" for m in order)
        stdout += f"# conflict = {conflict} ({dec(conflict)})\n"
        paths = [write(f"m{k}.mass", "".join(
            f"mass {render(f, 'x')} = {float(w):.2f}\n" for f, w in zip(*masses[k])))
            for k in range(2)]
        return Query(kind, {"kind": "cli", "argv": [
            "ds-combine", write("c.kb", _kb_text(formulas)), *paths]},
            {"code": 0, "stdout": stdout})

    if kind == "joint":
        weights = _weights(rng, len(realizable))
        probs = dict(zip(realizable, weights))
        rows = "".join(f"p {_bits(j, n)} = {float(p):.2f}\n" for j, p in probs.items())
        argv = ["joint", write("j.kb", _kb_text(formulas)), write("j.joint", rows)]

        def marginal(spec):
            return sum((p for j, p in probs.items()
                        if all((j >> (n - 1 - i)) & 1 == v for i, v in spec.items())),
                       Fraction(0))

        def spec_text(spec):
            return ",".join(f"x{i}={v}" for i, v in sorted(spec.items()))

        pick = rng.randrange(4)
        if pick == 0:
            return Query(kind, {"kind": "cli", "argv": argv}, {"code": 0, "stdout": "".join(
                f"p(x{i}) = {marginal({i: 1})} ({dec(marginal({i: 1}))})\n"
                for i in range(n))})
        # Specs read off rows of positive probability, so no condition
        # has probability zero.
        a, b = rng.sample(range(n), 2)
        r1, r2 = rng.choice(realizable), rng.choice(realizable)
        u = {a: (r1 >> (n - 1 - a)) & 1}
        w = {b: (r2 >> (n - 1 - b)) & 1}
        if pick == 1:
            u[b] = w[b]
            value = marginal(u)
            return Query(kind, {"kind": "cli", "argv": argv + [
                "--marginal", spec_text(u)]}, {"code": 0, "stdout":
                f"p({spec_text(u)}) = {value} ({dec(value)})\n"})
        value = marginal({**u, **w}) / marginal(w)
        flag = "--conditional" if pick == 2 else "--bayes"
        return Query(kind, {"kind": "cli", "argv": argv + [
            flag, f"{spec_text(u)}|{spec_text(w)}"]}, {"code": 0, "stdout":
            f"p({spec_text(u)} | {spec_text(w)}) = {value} ({dec(value)})\n"})

    if kind == "incoherent":
        qk, pa, re_ = rng.sample(range(6), 3)
        formulas = [atom(qk), imp(atom(qk), atom(pa)), imp(atom(re_), neg(atom(pa))),
                    atom(re_)]
        text = _kb_text(formulas, [("prob", "1")] * 4, [atom(pa)])
        return Query(kind, {"kind": "cli", "argv": ["entail", write("q.kb", text)]},
                     {"code": 2, "stdout": ""})

    if kind == "cap":
        n = rng.randint(3, 5)
        formulas = _chain_sentences(rng, n)
        text = _kb_text(formulas, [("prob", "0.5")] * n, [atom(n - 1)])
        cap = (["--max-sentences", str(n - 1)] if rng.random() < 0.5
               else ["--max-atoms", str(n - 1)])
        return Query(kind, {"kind": "cli", "argv": ["entail", write("x.kb", text), *cap]},
                     {"code": 3, "stdout": ""})

    # syntax: a sentence whose formula stops short.
    broken = render(formulas[0], "y")[:-1] + rng.choice([" &", " |", " ->", ""])
    text = _kb_text(formulas).replace(render(formulas[0], "y"), broken, 1)
    return Query(kind, {"kind": "cli", "argv": ["entail", write("s.kb", text)]},
                 {"code": 1, "stdout": ""})


def cli(seed: int, work: Path):
    rng = random.Random(seed)
    for argv, code, stdout in _TESTS_DATA:
        yield Query("tests-data", {"kind": "cli", "argv": argv},
                    {"code": code, "stdout": stdout})
    for q in itertools.count():
        yield _cli_query(rng, _CLI_CYCLE[q % len(_CLI_CYCLE)], work, f"{q:05d}")


GENERATORS = {
    "entail-chain": entail_chain,
    "ds-entail": ds_entail,
    "sweep-wide": sweep_wide,
    "cli": cli,
}
