"""Answer checks, run after the timed loop.

``check`` compares evlogic's answer to a query with the independent
reference and returns '' or the reason the answer is wrong.
``corrupted`` makes wrong variants of a right answer; ``run.py`` asks
``check`` to reject each of them, so a reference that accepts anything
cannot report a clean run.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import reference
from workloads import Query, dec, frac


def _check_bounds(q: Query, answer: dict) -> str:
    e = q.expect
    p = q.payload
    if p["kind"] == "entail":
        ref = reference.entail(e["formulas"], [Fraction(x) for x in p["probs"]],
                               e["target"], p["mode"], e["num_atoms"])
    else:
        ref = reference.evidential(
            e["formulas"], [(Fraction(a), Fraction(b)) for a, b in p["intervals"]],
            e["target"], p["mode"], p["relation"], e["num_atoms"])
    if e["incoherent"]:
        if not answer.get("incoherent"):
            return f"expected Incoherent, got {answer}"
        return "" if ref is None else f"reference finds bounds {ref}"
    if "bounds" not in answer:
        return f"expected bounds, got {answer}"
    if ref is None:
        return "reference finds the system infeasible"
    lo, hi = (Fraction(x) for x in answer["bounds"])
    if not (reference.close(lo, ref[0]) and reference.close(hi, ref[1])):
        return f"[{lo}, {hi}] differs from reference {ref}"
    tp = e.get("target_prob")
    if tp is not None and not lo <= tp <= hi:
        return f"generating probability {tp} outside [{lo}, {hi}]"
    gen = e.get("generating_interval")
    if gen is not None and not (lo <= gen[0] and gen[1] <= hi):
        return f"generating interval {gen} not inside [{lo}, {hi}]"
    return ""


def _check_combine(q: Query, answer: dict) -> str:
    if "focal" not in answer:
        return f"expected a mass function, got {answer}"
    got = {frozenset(rows): Fraction(m) for rows, m in answer["focal"]}
    if sum(got.values(), Fraction(0)) != 1:
        return "combined masses do not sum to 1"
    if Fraction(answer["conflict"]) != q.expect["conflict"]:
        return f"conflict {answer['conflict']} != {q.expect['conflict']}"
    if got != q.expect["focal"]:
        return "combined focal elements differ from pair enumeration"
    return ""


_BOUNDS_LINE = re.compile(r"(.*): \[(\S+), (\S+)\] \((\S+), (\S+)\)\Z")


def _reference_bounds(args):
    if args[0] == "entail":
        return reference.entail(*args[1:])
    return reference.evidential(*args[1:])


def _check_cli(q: Query, answer: dict) -> str:
    e = q.expect
    if answer.get("code") != e["code"]:
        return f"exit code {answer.get('code')}, expected {e['code']}"
    out = answer.get("stdout", "")
    if "stdout" in e:
        return "" if out == e["stdout"] else f"stdout {out!r} != {e['stdout']!r}"
    if "json" in e:
        try:
            return "" if json.loads(out) == e["json"] else "JSON rows differ"
        except ValueError:
            return "stdout is not JSON"
    if "json_bounds" in e:
        try:
            rows = json.loads(out)
            got = [(r["query"], r["lo"], r["hi"], r["lo_dec"], r["hi_dec"])
                   for r in rows]
        except (ValueError, KeyError, TypeError):
            return "stdout is not the JSON bounds list"
        expected = e["json_bounds"]
    else:
        got = []
        for line in out.splitlines():
            m = _BOUNDS_LINE.match(line)
            if not m:
                return f"unparsable line {line!r}"
            got.append(m.groups())
        expected = e["bounds"]
    if len(got) != len(expected):
        return f"{len(got)} answers for {len(expected)} queries"
    for (label, lo, hi, lo_dec, hi_dec), (want_label, args) in zip(got, expected):
        try:
            lo, hi = Fraction(lo), Fraction(hi)
        except (ValueError, TypeError, ZeroDivisionError):
            return f"{label}: bounds {lo!r}, {hi!r} are not rationals"
        decimals = ((lo_dec, hi_dec) == (round(float(lo), 6), round(float(hi), 6))
                    if "json_bounds" in e else (lo_dec, hi_dec) == (dec(lo), dec(hi)))
        if label != want_label or not decimals:
            return f"line {label}: [{lo}, {hi}] ({lo_dec}, {hi_dec}) is malformed"
        ref = _reference_bounds(args)
        if ref is None or not (reference.close(lo, ref[0]) and reference.close(hi, ref[1])):
            return f"{label}: [{lo}, {hi}] differs from reference {ref}"
    return ""


def check(q: Query, answer: dict) -> str:
    """'' when evlogic's answer to ``q`` is right, else the reason."""
    if "error" in answer:
        return answer["error"]
    kind = q.payload["kind"]
    if kind == "cli":
        return _check_cli(q, answer)
    if kind == "combine":
        return _check_combine(q, answer)
    return _check_bounds(q, answer)


def corrupted(answer: dict) -> list[dict]:
    """Wrong variants of a right answer: bounds off by 1/1000 or swapped,
    a conflict off by 1/1000, a wrong exit code or one digit changed."""
    thousandth = Fraction(1, 1000)
    if "bounds" in answer:
        lo, hi = answer["bounds"]
        out = [{"bounds": [frac(Fraction(lo) + thousandth), hi]}]
        if Fraction(lo) != Fraction(hi):
            out.append({"bounds": [hi, lo]})
        return out
    if "incoherent" in answer:
        return [{"bounds": ["0", "1"]}]
    if "focal" in answer:
        return [dict(answer, conflict=frac(Fraction(answer["conflict"]) + thousandth))]
    out = [dict(answer, code=answer["code"] + 1)]
    digit = re.search(r"\d", answer["stdout"])
    if digit:
        i, text = digit.start(), answer["stdout"]
        out.append(dict(answer, stdout=text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]))
    return out
