import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opframes import cli, codec
from opframes import scenario as scenario_module
from opframes.cli import main
from opframes.frames import KERNEL_TOL, FrameOperatorData, OperatorFamily, frame_operator, independence_check
from opframes.hilbert_module import ModuleVector, scalar_norm, uniform_vector
from opframes.reconstruction import CHEBYSHEV_BUDGET, CHEBYSHEV_SLACK, reconstruct_direct

from families import generated_doc, ratio_slopes, slope_scenario, tiny_slopes

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
DIAGONAL = str(SCENARIOS / "diagonal_slope.json")
PERTURBED = str(SCENARIOS / "perturbed_additive.json")
RELATIVE = str(SCENARIOS / "perturbed_relative.json")
BESSEL = str(SCENARIOS / "bessel_only.json")
PARSEVAL = str(SCENARIOS / "parseval.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_scenario(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL)
        assert code == 0
        report = json.loads(out)
        assert report["frame"]["classification"] == "frame"
        assert report["frame"]["lower_bound"] == pytest.approx(0.25, abs=1e-10)
        assert report["frame"]["upper_bound"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert report["dual"]["is_dual"]
        assert report["reconstruction"]["final_residual"] <= 1e-12

    def test_scenario_echo_is_lossless(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL)
        assert code == 0
        report = json.loads(out)
        original = json.loads(Path(DIAGONAL).read_text())
        assert report["scenario"] == original

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--seed", "5")
        _, second, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--seed", "5")
        assert first == second

    def test_parseval_scenario(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", PARSEVAL)
        assert code == 0
        assert json.loads(out)["frame"]["classification"] == "parseval"

    def test_bessel_scenario_exits_2(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", BESSEL)
        assert code == 2
        assert json.loads(out)["frame"]["classification"] == "bessel_only"

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        doc = json.loads(Path(DIAGONAL).read_text())
        doc["family"]["coefficients"][1][0][0][0][0] = "oops"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", "--scenario", str(bad))
        assert code == 1
        assert "family.coefficients[1][0][0][0][0]" in err

    @pytest.mark.parametrize("text", ["", " \n\t", "\ufeff" + Path(PARSEVAL).read_text(encoding="utf-8"),
                                      Path(PARSEVAL).read_text(encoding="utf-8") + " {}", "{} []"],
                             ids=["empty", "blank", "bom", "data-after", "data-after-empty-object"])
    def test_a_document_the_reader_refuses_itself_gives_json_loads_message(self, capsys, tmp_path, text):
        # an empty or blank file, a UTF-8 byte order mark and data after the document never reach scan_once
        path = tmp_path / "refused.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        code, out, err = run(capsys, "analyze", "--scenario", str(path))
        assert (code, out, err) == (1, "", f"scenario error: not valid JSON: {expected.value}\n")

    @staticmethod
    def nested_notes(tmp_path, depth, inner):
        """parseval.json with a ``notes`` field nested ``depth`` lists deep around ``inner``."""
        text = Path(PARSEVAL).read_text().rstrip()
        path = tmp_path / f"nested-{depth}.json"
        path.write_text(text[:-1] + ', "notes": ' + "[" * depth + inner + "]" * depth + "}")
        return path

    def test_deeply_nested_scenario_is_refused(self, capsys, tmp_path):
        path = self.nested_notes(tmp_path, 5000, "1.5")
        code, out, err = run(capsys, "analyze", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err == "scenario error: not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("inner", ["1.5", "[]"])
    def test_nesting_the_decoder_accepts_is_echoed(self, tmp_path, fmt, inner):
        """987 lists, the deepest nesting that loads in a fresh interpreter; the echo writes them back."""
        wraps = 987 - inner.count("[")
        path = self.nested_notes(tmp_path, wraps, inner)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "opframes.cli", "analyze", "--scenario", str(path), "--format", fmt],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        if fmt == "json":  # the innermost value, indented below scenario, notes and the wrapping lists
            assert "\n" + "  " * (wraps + 2) + inner + "\n" in proc.stdout
        elif inner == "1.5":
            assert f"\nscenario.notes{'[0]' * wraps},1.5\n" in proc.stdout

    def test_one_level_deeper_is_refused_by_name(self, tmp_path):
        path = self.nested_notes(tmp_path, 987, "[]")  # 988 lists
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "opframes.cli", "analyze", "--scenario", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "scenario error: not valid JSON: nested too deeply\n"

    def test_json_writer_keeps_no_frame_per_level(self):
        depth = sys.getrecursionlimit() + 100
        value = []
        for _ in range(depth - 1):
            value = [value]
        parts = []
        codec._write_json({"notes": value}, parts.append)
        lines = ["{", '  "notes": ['] + ["  " * i + "[" for i in range(2, depth)]
        lines += ["  " * depth + "[]"] + ["  " * i + "]" for i in reversed(range(1, depth))] + ["}"]
        assert "".join(parts) == "\n".join(lines)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("notes,where", [
        ('{"\\ud800x": [1.5, 2.5]}', "notes.\\ud800x: key"),
        ('{"ok": ["a", "b\\udc00"]}', "notes.ok[1]: string"),
    ])
    def test_lone_surrogate_is_refused_by_name(self, tmp_path, fmt, notes, where):
        # the JSON report once escaped it again (exit 0) and the CSV one failed to encode it (exit 1)
        text = Path(DIAGONAL).read_text().rstrip()
        path = tmp_path / "surrogate.json"
        path.write_text(text[:-1] + ', "notes": ' + notes + "}")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "opframes.cli", "analyze", "--scenario", str(path), "--format", fmt],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"scenario error: {where} holds a lone surrogate\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_escaped_surrogate_pair_is_one_character(self, capsys, tmp_path, fmt):
        text = Path(DIAGONAL).read_text().rstrip()
        path = tmp_path / "pair.json"
        path.write_text(text[:-1] + ', "notes": {"\\ud83d\\ude00": ["\\u00e9"]}}')
        code, out, err = run(capsys, "analyze", "--scenario", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert "\\ud83d\\ude00" in out if fmt == "json" else "scenario.notes.\U0001F600[0],\u00e9\n" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--scenario", str(tmp_path / "none.json"))
        assert code == 1
        assert err

    def test_csv_spectrum_one_row_per_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        spectrum_rows = [line for line in lines if line.startswith("frame.spectrum[")]
        assert len(spectrum_rows) == 2

    def test_nodes_override(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--nodes", "2")
        assert code == 0
        assert json.loads(out)["frame"]["lower_bound"] == pytest.approx(0.25, abs=1e-10)

    def test_a_very_large_node_count_runs_in_linear_time(self, capsys):
        # about 1 s: the rule is O(N) above 100 nodes, where an O(N²) one took minutes
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--nodes", "300000")
        assert code == 0
        frame = json.loads(out)["frame"]
        assert frame["lower_bound"] == pytest.approx(0.25, abs=1e-9)
        assert frame["upper_bound"] == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestParser:
    ARGVS = (
        ["analyze", "--scenario", DIAGONAL, "--seed", "3"],
        ["analyze", "--scenario", DIAGONAL],
        ["analyze", "--scenario", DIAGONAL, "--tol", "0"],
        ["reconstruct", "--scenario", DIAGONAL, "--method", "direct"],
        ["--help"],
    )

    def answers(self, capsys, fresh):
        """(exit code, stdout, stderr) of each of ARGVS, run in turn in this process."""
        out = []
        for argv in self.ARGVS:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # --help exits from argparse
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_one_parser_answers_as_fresh_ones_do(self, capsys):
        cli.build_parser.cache_clear()
        cached = self.answers(capsys, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in cached] == [0, 0, 64, 0, 0]
        assert self.answers(capsys, fresh=True) == cached

    def test_help_tells_users_the_exit_codes_in_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps the description
        assert exited.value.code == 0
        assert "Exit codes: 0 success, 2 the family is not a frame, 1 error, 64 usage error." in text
        assert "``" not in text


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "explode")
        assert code == 64
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--frobnicate")
        assert code == 64

    def test_missing_scenario_flag(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 64
        assert "--scenario" in err


SECTION_KEYS = {"method", "converged", "iterations", "predicted_iterations", "relaxation", "contraction",
                "final_residual", "recovery_error", "tolerance", "seed"}


def ill_conditioned(tmp_path):
    """diagonal_slope.json with slot 1's slope x 0.1: bounds (1/400, 1/3), B/A = 133."""
    doc = json.loads(Path(DIAGONAL).read_text())
    doc["family"]["coefficients"][1][0][0][1][1][0] *= 0.1
    return write_doc(tmp_path, doc, "ill_conditioned.json")


class TestReconstruct:
    @pytest.mark.parametrize("name", ["diagonal_slope.json", "parseval.json", "perturbed_additive.json"])
    def test_analyze_runs_chebyshev(self, capsys, name):
        code, out, _ = run(capsys, "analyze", "--scenario", str(SCENARIOS / name))
        assert code == 0
        report = json.loads(out)
        section = report["reconstruction"]
        assert set(section) == SECTION_KEYS
        assert (section["method"], section["converged"], section["relaxation"]) == ("chebyshev", True, None)
        assert type(section["predicted_iterations"]) is int
        assert section["iterations"] <= section["predicted_iterations"] + CHEBYSHEV_SLACK
        root_a, root_b = (math.sqrt(report["frame"][key]) for key in ("lower_bound", "upper_bound"))
        assert section["contraction"] == pytest.approx((root_b - root_a) / (root_b + root_a), abs=1e-15)
        assert section["recovery_error"] <= 1e-9

    def test_analyze_converges_where_the_relaxation_stopped(self, capsys, tmp_path):
        path = ill_conditioned(tmp_path)
        code, out, _ = run(capsys, "analyze", "--scenario", path)
        assert code == 0
        section = json.loads(out)["reconstruction"]
        assert section["converged"] is True
        assert section["iterations"] <= section["predicted_iterations"] + CHEBYSHEV_SLACK < 200
        assert section["recovery_error"] <= 1e-9
        code, out, _ = run(capsys, "reconstruct", "--scenario", path, "--method", "neumann")
        assert code == 0
        section = json.loads(out)["reconstruction"]
        assert set(section) == {"method", "converged", "iterations", "predicted_iterations",
                                "final_residual", "tolerance", "seed"}
        assert (section["method"], section["converged"], section["iterations"]) == ("neumann", False, CHEBYSHEV_BUDGET)
        assert section["predicted_iterations"] > CHEBYSHEV_BUDGET

    def test_chebyshev_is_the_default_method(self, capsys):
        default = run(capsys, "reconstruct", "--scenario", DIAGONAL)
        assert run(capsys, "reconstruct", "--scenario", DIAGONAL, "--method", "chebyshev") == default
        assert json.loads(default[1])["reconstruction"]["method"] == "chebyshev"

    def test_neumann_iteration_count(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--scenario", DIAGONAL, "--method", "neumann", "--tol", "1e-12"
        )
        assert code == 0
        section = json.loads(out)["reconstruction"]
        assert section["method"] == "neumann"
        assert section["iterations"] <= 25
        assert section["recovery_error"] <= 1e-9

    def test_direct_method(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--scenario", DIAGONAL, "--method", "direct")
        assert code == 0
        section = json.loads(out)["reconstruction"]
        assert set(section) == SECTION_KEYS
        assert section["iterations"] == 0
        assert section["predicted_iterations"] is None

    def test_not_a_frame_exits_2(self, capsys):
        code, _, err = run(capsys, "reconstruct", "--scenario", BESSEL)
        assert code == 2
        assert "frame" in err.lower()


class TestDual:
    def test_emits_dual_coefficients(self, capsys):
        code, out, _ = run(capsys, "dual", "--scenario", DIAGONAL)
        assert code == 0
        section = json.loads(out)["dual"]
        coeffs = np.asarray(section["coefficients"])
        slope = coeffs[1, 0, 0]
        assert slope[0][0] == pytest.approx([3.0, 0.0], abs=1e-10)
        assert slope[1][1] == pytest.approx([2.0 * np.sqrt(3.0), 0.0], abs=1e-10)
        assert section["bounds"][0] == pytest.approx(3.0, abs=1e-9)
        assert section["bounds"][1] == pytest.approx(4.0, abs=1e-9)


class TestPerturb:
    def test_admissible_case(self, capsys):
        code, out, _ = run(capsys, "perturb", "--scenario", PERTURBED)
        assert code == 0
        section = json.loads(out)["perturbation"]
        assert section["admissible"] is True
        assert section["energy"] == pytest.approx(0.16, abs=1e-10)
        assert section["envelope"][0] == pytest.approx(0.01, abs=1e-10)
        assert section["within_envelope"] is True
        assert section["margin"] == pytest.approx(1 - 1e-12 - 0.16 / 0.25, abs=1e-12)
        assert section["margin"] > 0

    def test_inadmissible_case(self, capsys, tmp_path):
        doc = json.loads(Path(PERTURBED).read_text())
        doc["perturbation"]["coefficient"]["coefficients"] = [[0.6, 0.0]]
        path = tmp_path / "too_big.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "perturb", "--scenario", str(path))
        assert code == 0
        section = json.loads(out)["perturbation"]
        assert section["admissible"] is False
        assert section["energy"] == pytest.approx(0.36, abs=1e-10)
        assert "not admissible" in section["diagnostics"]
        assert "0.36" in section["diagnostics"] and "0.25" in section["diagnostics"]
        assert section["margin"] == pytest.approx(1 - 1e-12 - 0.36 / 0.25, abs=1e-12)
        assert section["margin"] < 0

    @pytest.mark.parametrize("share,admissible", [(0.5, True), (1 - 1e-12, None), (1.0, None),
                                                   (2.0, False)])
    def test_margin_sign_is_the_verdict(self, capsys, tmp_path, share, admissible):
        # R = share * A with A = 1/4, on both sides of R < (1 - tol) A and at its edge
        path = write_doc(tmp_path, slope_scenario(ratio_slopes(0.75), (share / 4.0) ** 0.5))
        for command in ("perturb", "analyze"):
            code, out, _ = run(capsys, command, "--scenario", path)
            assert code == 0
            section = json.loads(out)["perturbation"]
            assert (section["margin"] > 0) is section["admissible"]
            assert admissible in (None, section["admissible"])
            ratio = section["energy"] / section["lower_bound"]
            assert section["margin"] == pytest.approx(1 - section["tolerance"] - ratio, abs=1e-15)

    def test_relative_case(self, capsys):
        code, out, _ = run(capsys, "perturb", "--scenario", RELATIVE)
        assert code == 0
        section = json.loads(out)["perturbation"]
        assert section["criterion_passed"] is True
        assert section["verdict"] == "exact"
        assert section["within_envelope"] is True

    def test_scenario_without_block(self, capsys):
        code, _, err = run(capsys, "perturb", "--scenario", DIAGONAL)
        assert code == 1
        assert "perturbation" in err


class TestIndependence:
    def test_worked_family(self, capsys):
        code, out, _ = run(capsys, "independence", "--scenario", DIAGONAL)
        assert code == 0
        section = json.loads(out)["independence"]
        assert section["bounded_below"] is True
        assert section["sigma_min"] == pytest.approx(0.5, abs=1e-10)
        assert section["independent"] is False
        assert section["kernel_dimension"] == 62
        assert section["kernel_tolerance"] == KERNEL_TOL

    def test_kernel_tolerance_is_the_one_used(self, capsys, tmp_path):
        # --tol sets the below-boundedness tolerance only; the kernel is counted at KERNEL_TOL
        path = write_doc(tmp_path, slope_scenario((1.0, 1e-8), 0.1))
        code, out, _ = run(capsys, "independence", "--scenario", path, "--tol", "1e-6")
        assert code == 0
        section = json.loads(out)["independence"]
        assert (section["tolerance"], section["kernel_tolerance"]) == (1e-6, 1e-12)
        assert section["kernel_dimension"] == 62
        family = scenario_module.load_scenario(path).family
        assert independence_check(family, section["kernel_tolerance"]) == (False, 62)
        assert independence_check(family, section["tolerance"]) == (False, 63)


class TestVerifyExamples:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run(capsys, "verify-examples")
        assert code == 0
        assert out.count("ok:") == 5

    def test_single_node_fails(self, capsys):
        code, _, err = run(capsys, "verify-examples", "--nodes", "1")
        assert code == 1
        assert "frame bounds" in err

    def test_unreachable_tolerance_fails(self, capsys):
        code, _, err = run(capsys, "verify-examples", "--tol", "1e-16")
        assert code == 1
        assert "resolution" in err


class TestOutOfMemory:
    @staticmethod
    def exhausted(*args):
        raise MemoryError("Unable to allocate 335. GiB for an array")

    def test_scenario_command_names_the_cause(self, capsys, monkeypatch):
        monkeypatch.setitem(scenario_module._RULES, "gauss_legendre", self.exhausted)
        code, out, err = run(capsys, "analyze", "--scenario", DIAGONAL, "--nodes", "300000")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 335. GiB for an array\n"

    def test_verify_examples_names_the_cause(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gauss_legendre", self.exhausted)
        code, out, err = run(capsys, "verify-examples", "--nodes", "300000")
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 335. GiB for an array\n"


# The flags each command reads; every other (command, flag) pair is a usage error.
ACCEPTED = {
    "analyze": {"--scenario", "--format", "--nodes", "--tol", "--seed", "--timings"},
    "reconstruct": {"--scenario", "--format", "--nodes", "--tol", "--seed", "--method"},
    "dual": {"--scenario", "--format", "--nodes", "--tol"},
    "independence": {"--scenario", "--format", "--nodes", "--tol"},
    "perturb": {"--scenario", "--format", "--nodes"},
    "verify-examples": {"--tol", "--nodes"},
}
FLAG_VALUES = {
    "--scenario": [PERTURBED],
    "--format": ["csv"],
    "--nodes": ["32"],
    "--tol": ["1e-9"],
    "--seed": ["3"],
    "--timings": [],
    "--method": ["direct"],
}


class TestFlags:
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_flag_matrix(self, capsys, command, flag):
        argv = [command]
        if "--scenario" in ACCEPTED[command] and flag != "--scenario":
            argv += ["--scenario", PERTURBED]
        code, out, err = run(capsys, *argv, flag, *FLAG_VALUES[flag])
        if flag in ACCEPTED[command]:
            assert code == 0, err
        else:
            assert code == 64
            assert out == ""
            assert err.startswith("usage error: ")

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
    @pytest.mark.parametrize("command", sorted(c for c, flags in ACCEPTED.items() if "--tol" in flags))
    def test_tol_must_be_positive_and_finite(self, capsys, command, value):
        # the scenario's tolerances refuse these values; --tol once accepted them with exit 0
        argv = [command, "--tol", value]
        if "--scenario" in ACCEPTED[command]:
            argv += ["--scenario", PERTURBED]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith(
            f"usage error: argument --tol: expected a positive finite number, got '{value}'\n"
        )

    @pytest.mark.parametrize("value", ["-1", "-0x1", "1.5", "x", ""])
    @pytest.mark.parametrize("command", sorted(c for c, flags in ACCEPTED.items() if "--seed" in flags))
    def test_seed_must_be_a_nonnegative_integer(self, capsys, command, value):
        # a negative seed once reached numpy and ended as "error: expected non-negative integer"
        code, out, err = run(capsys, command, "--scenario", DIAGONAL, f"--seed={value}")
        assert (code, out) == (64, "")
        assert err.startswith(f"usage error: argument --seed: expected an integer >= 0, got '{value}'\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["analyze", "verify-examples"])
    def test_nodes_must_be_a_positive_integer(self, capsys, command, value):
        # a count below 1 once reached the scenario parse or the rule, and exited 1 blaming either
        argv = [command, f"--nodes={value}"]
        if "--scenario" in ACCEPTED[command]:
            argv += ["--scenario", DIAGONAL]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith(f"usage error: argument --nodes: expected an integer >= 1, got '{value}'\n")

    @pytest.mark.parametrize("command", sorted(c for c, flags in ACCEPTED.items() if "--seed" in flags))
    def test_any_seed_numpy_takes_is_accepted(self, capsys, command):
        default = run(capsys, command, "--scenario", DIAGONAL)
        assert run(capsys, command, "--scenario", DIAGONAL, "--seed", "0") == default
        big = 2**200 + 1
        code, out, _ = run(capsys, command, "--scenario", DIAGONAL, "--seed", str(big))
        assert code == 0
        assert json.loads(out)["reconstruction"]["seed"] == big

    def test_timings_are_opt_in(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--timings")
        assert code == 0
        timings = json.loads(out)["timings"]
        assert set(timings) == {"frame_seconds", "dual_reconstruction_seconds"}
        assert all(seconds >= 0.0 for seconds in timings.values())
        _, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL)
        assert json.loads(out)["timings"] is None


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestNodesOverride:
    def test_scenario_is_parsed_once(self, capsys, monkeypatch):
        calls = []
        original = scenario_module.parse_scenario

        def counted(doc):
            calls.append(doc)
            return original(doc)

        monkeypatch.setattr(scenario_module, "parse_scenario", counted)
        # an own binding of the name in cli (a second parse there) is counted too
        monkeypatch.setattr(cli, "parse_scenario", counted, raising=False)
        code, _, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--nodes", "2")
        assert code == 0
        assert len(calls) == 1

    def test_echo_shows_override(self, capsys):
        code, out, _ = run(capsys, "analyze", "--scenario", DIAGONAL, "--nodes", "7")
        assert code == 0
        expected = json.loads(Path(DIAGONAL).read_text())
        expected["measure"]["nodes"] = 7
        assert json.loads(out)["scenario"] == expected

    def test_counting_measure_count_is_replaced(self, capsys, tmp_path):
        doc = slope_scenario((1.0, np.sqrt(3.0) / 2.0), 0.0)
        del doc["perturbation"]
        doc["measure"] = {"kind": "counting", "count": 2}
        code, out, _ = run(capsys, "analyze", "--scenario", write_doc(tmp_path, doc), "--nodes", "3")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"]["measure"] == {"kind": "counting", "count": 3}
        # nodes 1, 2, 3 with unit weights: S = (1 + 4 + 9) diag(1, 3/4)
        assert report["frame"]["lower_bound"] == pytest.approx(10.5, rel=1e-12)
        assert report["frame"]["upper_bound"] == pytest.approx(14.0, rel=1e-12)

    def test_override_replaces_invalid_file_nodes(self, capsys, tmp_path):
        doc = json.loads(Path(DIAGONAL).read_text())
        doc["measure"]["nodes"] = 0
        path = write_doc(tmp_path, doc)
        code, _, err = run(capsys, "analyze", "--scenario", path)
        assert code == 1
        assert "measure.nodes" in err
        code, out, _ = run(capsys, "analyze", "--scenario", path, "--nodes", "32")
        assert code == 0
        assert json.loads(out)["frame"]["lower_bound"] == pytest.approx(0.25, abs=1e-10)

    def test_malformed_measure_names_field(self, capsys, tmp_path):
        doc = json.loads(Path(DIAGONAL).read_text())
        doc["measure"] = "oops"
        code, _, err = run(capsys, "analyze", "--scenario", write_doc(tmp_path, doc), "--nodes", "8")
        assert code == 1
        assert err.startswith("scenario error: measure: expected")


def tiny_envelope_scenario(kind):
    """A perturbation scenario over the tiny family, bounds (1e-9, 4e-9/3).

    Its empirical lower bound is below 2e-9, so an absolute slack of 1e-9
    would accept an envelope whose lower end is 1.5 times that bound.
    """
    doc = slope_scenario(tiny_slopes(), 1e-6)
    if kind == "relative":
        relative = json.loads(Path(RELATIVE).read_text())["perturbation"]
        doc["perturbation"] = dict(relative, comparison_family=doc["family"])
    return doc


class TestEnvelopeSlack:
    @pytest.mark.parametrize("kind", ["additive", "relative"])
    def test_slack_is_relative_to_the_bound(self, capsys, monkeypatch, tmp_path, kind):
        path = write_doc(tmp_path, tiny_envelope_scenario(kind))
        code, out, _ = run(capsys, "perturb", "--scenario", path)
        assert code == 0
        section = json.loads(out)["perturbation"]
        assert section["within_envelope"] is True
        empirical_lower = section["empirical_bounds"][0]
        assert 0.0 < empirical_lower < 2e-9
        name = f"{kind}_envelope"
        envelope = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *args: (1.5 * empirical_lower, envelope(*args)[1])
        )
        code, out, _ = run(capsys, "perturb", "--scenario", path)
        assert code == 0
        assert json.loads(out)["perturbation"]["within_envelope"] is False


def scenario_invocations(tmp_path):
    """Every scenario command, reconstruct with each --method, on every demo scenario
    and on generated diagonal sampled scenarios with each kind of perturbation."""
    paths = sorted(str(p) for p in SCENARIOS.glob("*.json"))
    for perturbation in ("additive", "relative"):
        doc = generated_doc("diagonal", 3, 2, 6, "sampled", 7, perturbation)
        paths.append(write_doc(tmp_path, doc, f"sampled-{perturbation}.json"))
    commands = [[name] for name, (_, _, flags) in cli.COMMANDS.items() if "--scenario" in flags]
    commands += [["reconstruct", "--method", "direct"], ["reconstruct", "--method", "neumann"]]
    return [[*command, "--scenario", path] for path in paths for command in commands]


def test_scenario_commands_read_no_dense_view(tmp_path, capsys, monkeypatch):
    invocations = scenario_invocations(tmp_path)
    answers = [run(capsys, *argv) for argv in invocations]
    assert {code for code, _, _ in answers} >= {0, 2}

    def refuse(self):
        raise AssertionError("a dense view was read")

    monkeypatch.setattr(FrameOperatorData, "flat", property(refuse))
    monkeypatch.setattr(FrameOperatorData, "element", property(refuse))
    monkeypatch.setattr(OperatorFamily, "flats", property(refuse))
    for argv, answer in zip(invocations, answers):
        assert run(capsys, *argv) == answer, argv


def fresh(argv, **env):
    """A fresh interpreter running ``argv`` with this checkout's package, plus ``env``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)


def test_a_fresh_import_of_the_cli_loads_a_fixed_set_of_modules():
    # after numpy, what a run's start-up pays for: the package and a few standard
    # modules; never numpy.random, numpy.polynomial or the dataclass machinery
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import opframes.cli\n"
        "print(*sorted(set(sys.modules) - before), 'numpy.random' in sys.modules)\n"
    )
    proc = fresh(["-c", script])
    *added, random_loaded = proc.stdout.decode().split()
    assert (proc.returncode, proc.stderr, random_loaded) == (0, b"", "False")
    roots = {"numpy.polynomial" if name.startswith("numpy.polynomial") else name.split(".")[0] for name in added}
    assert roots == {"opframes", "argparse", "csv", "_csv", "json", "_json", "gettext", "__future__"}


def test_analyze_and_reconstruct_load_neither_numpy_random_nor_dataclasses():
    # the test vector comes from the standard library's random, which numpy loads already
    script = (
        "import contextlib, io, sys\n"
        "from opframes.cli import main\n"
        "for command in ('analyze', 'reconstruct'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([command, '--scenario', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules, 'dataclasses' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
    )
    # nor numpy.polynomial: the scales of perturbed_relative.json are constant, so they have no critical point
    proc = fresh(["-c", script, RELATIVE])
    assert (proc.returncode, proc.stderr, proc.stdout.split()) == (0, b"", [b"False", b"False", b"False"])


@pytest.mark.parametrize("seed", [0, 2**80])
@pytest.mark.parametrize("kind", ["diagonal", "full"])
def test_the_test_vector_is_the_documented_draw(tmp_path, capsys, kind, seed):
    # the entries the algebra holds take, in C order, a real then an imaginary part
    # 2 u - 1 from random.Random(seed); the CLI reconstructs that vector, normalised
    path = DIAGONAL if kind == "diagonal" else write_doc(tmp_path, generated_doc("full", 2, 3, 8, "parametric", 1))
    scenario = scenario_module.load_scenario(path)
    descriptor, n, k = scenario.descriptor, scenario.module_rank, scenario.descriptor.dim
    raw = uniform_vector(descriptor, n, seed)
    held = raw.stack[:, range(k), range(k)] if kind == "diagonal" else raw.stack
    parts = np.stack([held.real, held.imag], axis=-1).ravel().tolist()
    draw = random.Random(seed).random
    assert parts == [2 * draw() - 1 for _ in range(2 * n * (k if kind == "diagonal" else k * k))]
    assert np.count_nonzero(raw.stack) == held.size
    x_true = uniform_vector(descriptor, n, seed, unit=True)
    assert np.array_equal(x_true.stack, raw.scale(1.0 / scalar_norm(raw)).stack)
    data = frame_operator(scenario.family)
    result = reconstruct_direct(data, ModuleVector.from_slots(descriptor, x_true.slots @ data.blocks))
    code, out, _ = run(capsys, "reconstruct", "--scenario", path, "--method", "direct", "--seed", str(seed))
    section = json.loads(out)["reconstruction"]
    assert code == 0 and section["seed"] == seed
    assert section["recovery_error"] == scalar_norm(result.vector - x_true)
    assert section["final_residual"] == result.final_residual


def test_the_same_seed_gives_the_same_bytes_in_two_fresh_interpreters(capsys):
    argv = ["reconstruct", "--scenario", RELATIVE, "--seed", str(2**80)]
    runs = [fresh(["-m", "opframes.cli", *argv], PYTHONHASHSEED=str(hash_seed)) for hash_seed in (1, 2)]
    assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, b""), (0, b"")]
    assert runs[0].stdout == runs[1].stdout == run(capsys, *argv)[1].encode()
