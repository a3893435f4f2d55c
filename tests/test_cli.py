import json
from pathlib import Path

import numpy as np
import pytest

from opframes.cli import main

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


class TestReconstruct:
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
        assert section["iterations"] == 0

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
        assert section["kernel_dimension"] == 124


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
