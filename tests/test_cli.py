"""Command-line golden transcripts, JSON output, exit codes, and
round-trips through the printed formats."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evlogic
from evlogic import linsolve
from evlogic.cli import main
from evlogic.errors import PivotLimitExceeded, Unbounded
from evlogic.formula import parse
from evlogic.kb import load_joint, load_mass
from evlogic.semantics import interpretation_space, sentence_set

F = Fraction
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInterpretations:
    def test_rows_with_flags(self, capsys):
        code, out, _ = run(capsys, "interpretations", DATA / "modus_ponens.kb")
        assert code == 0
        assert out.splitlines() == [
            "0 00 inconsistent",
            "1 01 consistent",
            "2 10 consistent",
            "3 11 consistent",
        ]


class TestEntail:
    def test_modus_ponens_line(self, capsys):
        code, out, err = run(capsys, "entail", DATA / "modus_ponens.kb")
        assert code == 0
        assert err == ""
        assert out == "Q: [3/5, 9/10] (0.600000, 0.900000)\n"

    def test_modus_ponens_json(self, capsys):
        code, out, _ = run(capsys, "entail", DATA / "modus_ponens.kb", "--json")
        assert code == 0
        assert json.loads(out) == [
            {
                "query": "Q",
                "lo": "3/5",
                "hi": "9/10",
                "lo_dec": 0.6,
                "hi_dec": 0.9,
                "mode": "strict",
            }
        ]

    def test_incoherent_certainties(self, capsys):
        code, out, err = run(capsys, "entail", DATA / "quaker.kb")
        assert code == 2
        assert out == ""
        assert "incoherent probability assignment" in err

    def test_generalized_mode_recovers(self, capsys):
        code, out, _ = run(
            capsys, "entail", DATA / "quaker.kb", "--mode", "generalized")
        assert code == 0
        assert out == "Pa: [0, 1] (0.000000, 1.000000)\n"


class TestDsEntail:
    def test_interval_bounds_line(self, capsys):
        code, out, _ = run(capsys, "ds-entail", DATA / "single_interval.kb")
        assert code == 0
        assert out == "P: [3/5, 4/5] (0.600000, 0.800000)\n"

    def test_point_intervals_match_probabilistic_answer(self, capsys):
        code, ds_out, _ = run(
            capsys, "ds-entail", DATA / "modus_ponens_intervals.kb")
        assert code == 0
        _, prob_out, _ = run(capsys, "entail", DATA / "modus_ponens.kb")
        assert ds_out == prob_out == "Q: [3/5, 9/10] (0.600000, 0.900000)\n"

    def test_relaxed_relation_flag(self, capsys):
        code, out, _ = run(
            capsys, "ds-entail", DATA / "single_interval.kb",
            "--relation", "relaxed")
        assert code == 0
        assert out == "P: [3/5, 4/5] (0.600000, 0.800000)\n"

    def test_json_carries_relation(self, capsys):
        _, out, _ = run(
            capsys, "ds-entail", DATA / "single_interval.kb", "--json")
        payload = json.loads(out)
        assert payload[0]["relation"] == "exact"
        assert payload[0]["lo"] == "3/5"

    def test_focal_family_file(self, capsys):
        code, out, _ = run(
            capsys, "ds-entail", DATA / "single_interval.kb",
            "--focal", DATA / "family.focal")
        assert code == 0
        assert out == "P: [3/5, 4/5] (0.600000, 0.800000)\n"

    def test_singleton_family_is_infeasible(self, capsys, tmp_path):
        family = tmp_path / "singletons.focal"
        family.write_text("P\n~P\n", encoding="utf-8")
        code, out, err = run(
            capsys, "ds-entail", DATA / "single_interval.kb",
            "--focal", family)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_point_probs_file_is_rejected(self, capsys):
        code, _, err = run(capsys, "ds-entail", DATA / "modus_ponens.kb")
        assert code == 1
        assert "interval" in err


class TestDsCombine:
    def test_vacuous_identity(self, capsys):
        code, out, _ = run(
            capsys, "ds-combine", DATA / "single.kb",
            DATA / "left.mass", DATA / "vacuous.mass")
        assert code == 0
        assert out.splitlines() == [
            "mass true = 1/2",
            "mass P = 1/2",
            "# conflict = 0 (0.000000)",
        ]

    def test_conflicting_sources(self, capsys):
        code, out, _ = run(
            capsys, "ds-combine", DATA / "single.kb",
            DATA / "left.mass", DATA / "right.mass")
        assert code == 0
        assert out.splitlines() == [
            "mass ~P = 1/4",
            "mass true = 1/8",
            "mass P = 5/8",
            "# conflict = 1/5 (0.200000)",
        ]

    def test_output_reloads_as_mass_file(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "ds-combine", DATA / "single.kb",
            DATA / "left.mass", DATA / "right.mass")
        path = tmp_path / "combined.mass"
        path.write_text(out, encoding="utf-8")
        space = interpretation_space(
            sentence_set([("P", parse("P"))]))
        m = load_mass(str(path), space)
        assert m.focal == {
            frozenset({0}): F(1, 4),
            frozenset({0, 1}): F(1, 8),
            frozenset({1}): F(5, 8),
        }

    def test_total_conflict(self, capsys, tmp_path):
        yes = tmp_path / "yes.mass"
        no = tmp_path / "no.mass"
        yes.write_text("mass P = 1\n", encoding="utf-8")
        no.write_text("mass ~P = 1\n", encoding="utf-8")
        code, out, err = run(
            capsys, "ds-combine", DATA / "single.kb", yes, no)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_json_masses(self, capsys):
        _, out, _ = run(
            capsys, "ds-combine", DATA / "single.kb",
            DATA / "left.mass", DATA / "right.mass", "--json")
        payload = json.loads(out)
        assert payload["conflict"] == "1/5"
        assert payload["conflict_dec"] == 0.2
        assert {"set": "P", "mass": "5/8", "mass_dec": 0.625} in payload["masses"]


class TestJoint:
    def test_default_prints_valuation(self, capsys):
        code, out, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint")
        assert code == 0
        assert out.splitlines() == [
            "p(A) = 3/5 (0.600000)",
            "p(B) = 7/10 (0.700000)",
        ]

    def test_marginal(self, capsys):
        code, out, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--marginal", "A=1")
        assert code == 0
        assert out == "p(A=1) = 3/5 (0.600000)\n"

    def test_conditional(self, capsys):
        code, out, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--conditional", "B=1|A=1")
        assert code == 0
        assert out == "p(B=1 | A=1) = 2/3 (0.666667)\n"

    def test_bayes(self, capsys):
        code, out, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--bayes", "A=1|B=1")
        assert code == 0
        assert out == "p(A=1 | B=1) = 4/7 (0.571429)\n"

    def test_marginal_json(self, capsys):
        _, out, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--marginal", "A=1", "--json")
        assert json.loads(out) == {
            "query": "p(A=1)",
            "result": "3/5",
            "result_dec": 0.6,
            "mode": "strict",
        }

    def test_extend_rows(self, capsys):
        code, out, _ = run(
            capsys, "joint", DATA / "single.kb", DATA / "single.joint",
            "--extend", DATA / "extend.cond")
        assert code == 0
        assert out.splitlines() == [
            "p 00 = 6/25",
            "p 01 = 3/50",
            "p 10 = 7/100",
            "p 11 = 63/100",
        ]

    def test_extend_output_reloads_as_joint(self, capsys, tmp_path):
        _, out, _ = run(
            capsys, "joint", DATA / "single.kb", DATA / "single.joint",
            "--extend", DATA / "extend.cond")
        path = tmp_path / "extended.joint"
        path.write_text(out, encoding="utf-8")
        space = interpretation_space(
            sentence_set([("P", parse("P")), ("added", parse("Q"))]))
        joint = load_joint(str(path), space)
        assert joint.probs == (F(6, 25), F(3, 50), F(7, 100), F(63, 100))

    def test_zero_probability_condition(self, capsys, tmp_path):
        table = tmp_path / "edge.joint"
        table.write_text("p 10 = 0.5\np 11 = 0.5\n", encoding="utf-8")
        code, _, err = run(
            capsys, "joint", DATA / "joint2.kb", table,
            "--conditional", "B=1|A=0")
        assert code == 1
        assert err.startswith("error:")

    def test_conditional_needs_separator(self, capsys):
        code, _, err = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--conditional", "B=1")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_sentence_in_spec(self, capsys):
        code, _, err = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--marginal", "Z=1")
        assert code == 1
        assert err.startswith("error:")

    def test_options_are_exclusive(self, capsys):
        code, _, _ = run(
            capsys, "joint", DATA / "joint2.kb", DATA / "joint2.joint",
            "--marginal", "A=1", "--bayes", "A=1|B=1")
        assert code == 1


class TestJsonStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("entail", DATA / "modus_ponens.kb", "--json"),
            ("ds-entail", DATA / "single_interval.kb", "--json"),
            (
                "ds-combine", DATA / "single.kb", DATA / "left.mass",
                DATA / "right.mass", "--json",
            ),
            ("joint", DATA / "joint2.kb", DATA / "joint2.joint", "--json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        json.loads(first)


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "entail", tmp_path / "absent.kb")
        assert code == 1
        assert err.startswith("error:")

    def test_kb_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("sentence a : P &\n", encoding="utf-8")
        code, _, err = run(capsys, "entail", bad)
        assert code == 1
        assert err.startswith("error:")

    def test_no_probs_for_entail(self, capsys):
        code, _, err = run(capsys, "entail", DATA / "single.kb")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "entail", DATA / "modus_ponens.kb", "--bogus")
        assert code == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("formula", [
        "~" * 5000 + "P",
        "(" * 3000 + "P" + ")" * 3000,
        " & ".join(["P"] * 3000),
    ], ids=["negations", "parentheses", "conjunctions"])
    def test_deep_formula(self, capsys, tmp_path, formula):
        deep = tmp_path / "deep.kb"
        deep.write_text(
            f"sentence a : P\nprob a = 1/2\nquery {formula}\n", encoding="utf-8")
        code, out, err = run(capsys, "entail", deep)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "nested more than" in err

    def test_atom_cap(self, capsys):
        code, _, err = run(
            capsys, "entail", DATA / "modus_ponens.kb", "--max-atoms", "1")
        assert code == 3
        assert err.startswith("error:")

    def test_sentence_cap(self, capsys):
        code, _, err = run(
            capsys, "entail", DATA / "quaker.kb", "--max-sentences", "2")
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("fault", [Unbounded, PivotLimitExceeded])
    def test_internal_fault(self, capsys, monkeypatch, fault):
        def broken(lp, objectives):
            raise fault("injected")

        monkeypatch.setattr(linsolve, "solve_each", broken)
        code, out, err = run(capsys, "entail", DATA / "modus_ponens.kb")
        assert code == 4
        assert out == ""
        assert err.startswith("error:")


def test_cli_import_leaves_numpy_unloaded():
    src = Path(evlogic.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, evlogic.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout == "False\n"


def test_engine_runs_without_numpy():
    # numpy blocked outright: a 20-atom frame and a strict entailment
    # over it need nothing beyond the standard library
    src = Path(evlogic.__file__).resolve().parents[1]
    script = """
import sys
sys.modules["numpy"] = None
from fractions import Fraction
from evlogic import entail_bounds, interpretation_space, parse, sentence_set
q = " | ".join(f"x{i:02d}" for i in range(1, 20))
sentences = sentence_set([("premise", parse("x00")), ("rule", parse(f"x00 -> ({q})"))])
space = interpretation_space(sentences)
assert len(sentences.atom_names) == 20 and space.consistent_indices == {1, 2, 3}
print(*entail_bounds(sentences, [Fraction(7, 10), Fraction(9, 10)], parse(q), "strict"))
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "3/5 9/10\n"
