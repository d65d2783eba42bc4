"""Command-line front end.

Subcommands: ``interpretations``, ``entail``, ``ds-entail``,
``ds-combine``, and ``joint``.  Output is deterministic text with exact
rationals plus 6-decimal approximations, or JSON under ``--json``.
Exit codes: 0 success; 1 usage, file, or data errors; 2 for an
unsatisfiable probability or interval system; 3 for exceeded size caps;
4 for an internal fault of the engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import kb as kbfiles
from .errors import (
    AtomCapExceeded,
    CapExceeded,
    EngineError,
    Incoherent,
    InfeasibleIntervals,
    PivotLimitExceeded,
    TotalConflict,
    Unbounded,
)
from .evidential import IntervalSystem, combine, evidential_entail
from .formula import to_text
from .problog import (
    JointDistribution,
    bayes_posterior,
    conditional,
    entail_bounds,
    extend_joint,
    marginal,
    valuation,
)
from .semantics import (
    DEFAULT_MAX_ATOMS,
    DEFAULT_MAX_SENTENCES,
    InterpretationSpace,
    SentenceSet,
    index_to_vector,
    interpretation_space,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _UsageError(message)


def _bits(v: Sequence[bool]) -> str:
    return "".join("1" if b else "0" for b in v)


def _dec(x: Fraction) -> str:
    return f"{float(x):.6f}"


def _jdec(x: Fraction) -> float:
    return round(float(x), 6)


def _dump(payload) -> list[str]:
    return [json.dumps(payload, indent=2)]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evlogic",
        description="Exact probabilistic and evidential entailment engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mode=True):
        sp.add_argument("kb", help="knowledge-base file")
        if mode:
            sp.add_argument(
                "--mode", choices=("strict", "generalized"), default="strict")
        sp.add_argument("--json", action="store_true")
        sp.add_argument(
            "--max-atoms", type=int, default=DEFAULT_MAX_ATOMS, dest="max_atoms")
        sp.add_argument(
            "--max-sentences", type=int, default=DEFAULT_MAX_SENTENCES,
            dest="max_sentences")

    common(sub.add_parser(
        "interpretations", help="print the frame rows with consistency flags"),
        mode=False)

    common(sub.add_parser(
        "entail", help="probability bounds for each query from point probs"))

    ds = sub.add_parser(
        "ds-entail", help="evidential interval for each query from intervals")
    common(ds)
    ds.add_argument(
        "--relation", choices=("exact", "relaxed"), default="exact")
    ds.add_argument(
        "--focal", metavar="FILE",
        help="explicit focal family, one formula over sentence names per line")

    dc = sub.add_parser(
        "ds-combine", help="combine two mass functions by Dempster's rule")
    common(dc, mode=False)
    dc.add_argument("mass1", help="first mass-function file")
    dc.add_argument("mass2", help="second mass-function file")

    jt = sub.add_parser(
        "joint", help="marginals, conditionals, Bayes, or extension of a joint")
    common(jt)
    jt.add_argument("joint_file", help="joint-distribution file")
    which = jt.add_mutually_exclusive_group()
    which.add_argument("--marginal", metavar="SPEC",
                       help="e.g. P=1,Q=0")
    which.add_argument("--conditional", metavar="SPEC",
                       help="e.g. 'P=1|Q=1'")
    which.add_argument("--bayes", metavar="SPEC",
                       help="posterior via the Bayes identity, e.g. 'P=1|Q=1'")
    which.add_argument("--extend", metavar="FILE",
                       help="appended-sentence conditional file")
    return parser


def _space(base: kbfiles.KnowledgeBase, args) -> InterpretationSpace:
    return interpretation_space(
        base.sentences,
        max_sentences=args.max_sentences,
        max_atoms=args.max_atoms,
    )


def _cmd_interpretations(args) -> list[str]:
    base = kbfiles.load_kb(args.kb)
    space = _space(base, args)
    if args.json:
        return _dump([
            {"index": j, "bits": _bits(v), "consistent": flag}
            for j, v, flag in space.rows()
        ])
    return [
        f"{j} {_bits(v)} {'consistent' if flag else 'inconsistent'}"
        for j, v, flag in space.rows()
    ]


def _point_vector(base: kbfiles.KnowledgeBase) -> list[Fraction]:
    if base.point_probs is None:
        raise _UsageError("the knowledge base gives no prob lines")
    for name in base.sentences.names:
        if name not in base.point_probs:
            raise _UsageError(f"no prob for sentence {name!r}")
    return [base.point_probs[name] for name in base.sentences.names]


def _cmd_entail(args) -> list[str]:
    base = kbfiles.load_kb(args.kb)
    pi = _point_vector(base)
    results = []
    for q in base.queries:
        lo, hi = entail_bounds(
            base.sentences, pi, q, args.mode,
            max_sentences=args.max_sentences, max_atoms=args.max_atoms)
        results.append((q, lo, hi))
    if args.json:
        return _dump([
            {
                "query": to_text(q),
                "lo": str(lo),
                "hi": str(hi),
                "lo_dec": _jdec(lo),
                "hi_dec": _jdec(hi),
                "mode": args.mode,
            }
            for q, lo, hi in results
        ])
    return [
        f"{to_text(q)}: [{lo}, {hi}] ({_dec(lo)}, {_dec(hi)})"
        for q, lo, hi in results
    ]


def _interval_system(base: kbfiles.KnowledgeBase) -> IntervalSystem:
    if base.intervals is None:
        raise _UsageError("the knowledge base gives no interval lines")
    for name in base.sentences.names:
        if name not in base.intervals:
            raise _UsageError(f"no interval for sentence {name!r}")
    return IntervalSystem(
        base.sentences,
        tuple(base.intervals[name] for name in base.sentences.names),
    )


def _cmd_ds_entail(args) -> list[str]:
    base = kbfiles.load_kb(args.kb)
    system = _interval_system(base)
    family = kbfiles.load_focal(args.focal) if args.focal else None
    results = []
    for q in base.queries:
        answer = evidential_entail(
            system, q, mode=args.mode, relation=args.relation,
            focal_family=family,
            max_sentences=args.max_sentences, max_atoms=args.max_atoms)
        results.append((q, answer.spt, answer.pls))
    if args.json:
        return _dump([
            {
                "query": to_text(q),
                "lo": str(lo),
                "hi": str(hi),
                "lo_dec": _jdec(lo),
                "hi_dec": _jdec(hi),
                "mode": args.mode,
                "relation": args.relation,
            }
            for q, lo, hi in results
        ])
    return [
        f"{to_text(q)}: [{lo}, {hi}] ({_dec(lo)}, {_dec(hi)})"
        for q, lo, hi in results
    ]


def _element_formula(space: InterpretationSpace, element: frozenset[int]) -> str:
    """A formula over sentence names whose extension is exactly ``element``."""
    if len(element) == space.size:
        return "true"
    names = space.sentences.names
    terms = []
    for j in sorted(element):
        v = index_to_vector(j, space.n)
        terms.append(" & ".join(
            name if b else f"~{name}" for name, b in zip(names, v)))
    return " | ".join(terms)


def _cmd_ds_combine(args) -> list[str]:
    base = kbfiles.load_kb(args.kb)
    space = _space(base, args)
    m1 = kbfiles.load_mass(args.mass1, space)
    m2 = kbfiles.load_mass(args.mass2, space)
    merged, conflict = combine(m1, m2)
    elements = sorted(merged.focal, key=lambda e: tuple(sorted(e)))
    if args.json:
        return _dump({
            "masses": [
                {
                    "set": _element_formula(space, e),
                    "mass": str(merged.focal[e]),
                    "mass_dec": _jdec(merged.focal[e]),
                }
                for e in elements
            ],
            "conflict": str(conflict),
            "conflict_dec": _jdec(conflict),
        })
    lines = [
        f"mass {_element_formula(space, e)} = {merged.focal[e]}"
        for e in elements
    ]
    lines.append(f"# conflict = {conflict} ({_dec(conflict)})")
    return lines


def _parse_margin(text: str, sentences: SentenceSet) -> dict[int, bool]:
    spec: dict[int, bool] = {}
    for part in text.split(","):
        part = part.strip()
        name, sep, value = part.partition("=")
        value = value.strip()
        if not sep or value not in ("0", "1"):
            raise _UsageError(
                f"bad margin item {part!r} (expected <name>=0 or <name>=1)")
        try:
            i = sentences.index_of(name.strip())
        except KeyError:
            raise _UsageError(f"no sentence named {name.strip()!r}") from None
        if i in spec:
            raise _UsageError(f"sentence {name.strip()!r} fixed twice")
        spec[i] = value == "1"
    return spec


def _margin_text(spec: dict[int, bool], sentences: SentenceSet) -> str:
    return ",".join(
        f"{sentences.names[i]}={1 if b else 0}" for i, b in sorted(spec.items()))


def _split_conditional(text: str) -> tuple[str, str]:
    left, sep, right = text.partition("|")
    if not sep or "|" in right:
        raise _UsageError(f"expected exactly one '|' in {text!r}")
    return left, right


def _scalar_lines(args, label: str, value: Fraction) -> list[str]:
    if args.json:
        return _dump({
            "query": label,
            "result": str(value),
            "result_dec": _jdec(value),
            "mode": args.mode,
        })
    return [f"{label} = {value} ({_dec(value)})"]


def _cmd_joint(args) -> list[str]:
    base = kbfiles.load_kb(args.kb)
    space = _space(base, args)
    joint = kbfiles.load_joint(args.joint_file, space, args.mode)
    sentences = base.sentences
    if args.marginal:
        u = _parse_margin(args.marginal, sentences)
        return _scalar_lines(
            args, f"p({_margin_text(u, sentences)})", marginal(joint, u))
    if args.conditional:
        left, right = _split_conditional(args.conditional)
        u = _parse_margin(left, sentences)
        w = _parse_margin(right, sentences)
        label = f"p({_margin_text(u, sentences)} | {_margin_text(w, sentences)})"
        return _scalar_lines(args, label, conditional(joint, u, w))
    if args.bayes:
        left, right = _split_conditional(args.bayes)
        w = _parse_margin(left, sentences)
        u = _parse_margin(right, sentences)
        label = f"p({_margin_text(w, sentences)} | {_margin_text(u, sentences)})"
        return _scalar_lines(args, label, bayes_posterior(joint, u, w))
    if args.extend:
        _, f, table = kbfiles.load_extension(args.extend, space.n)
        extended = extend_joint(
            joint, f, table, args.mode,
            max_sentences=args.max_sentences, max_atoms=args.max_atoms)
        return _joint_lines(args, extended)
    values = valuation(joint)
    if args.json:
        return _dump([
            {"name": name, "prob": str(p), "prob_dec": _jdec(p)}
            for name, p in zip(sentences.names, values)
        ])
    return [
        f"p({name}) = {p} ({_dec(p)})"
        for name, p in zip(sentences.names, values)
    ]


def _joint_lines(args, joint: JointDistribution) -> list[str]:
    rows = [
        (_bits(index_to_vector(j, joint.space.n)), p)
        for j, p in enumerate(joint.probs)
    ]
    if args.json:
        return _dump([{"bits": bits, "prob": str(p)} for bits, p in rows])
    return [f"p {bits} = {p}" for bits, p in rows]


_COMMANDS = {
    "interpretations": _cmd_interpretations,
    "entail": _cmd_entail,
    "ds-entail": _cmd_ds_entail,
    "ds-combine": _cmd_ds_combine,
    "joint": _cmd_joint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        lines = _COMMANDS[args.command](args)
    except (Incoherent, InfeasibleIntervals, TotalConflict) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, AtomCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Unbounded, PivotLimitExceeded) as exc:
        print(f"error: internal fault: {exc}", file=sys.stderr)
        return 4
    except (_UsageError, EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def run() -> None:
    raise SystemExit(main())
