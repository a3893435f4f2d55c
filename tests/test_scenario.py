import json
from pathlib import Path

import numpy as np
import pytest

from opframes.cli import EXIT_USAGE, main
from opframes.perturbation import AdditivePerturbation, RelativePerturbation
from opframes.scenario import ScenarioError, load_scenario, parse_scenario

from families import pairs

ROOT3 = np.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def base_doc():
    deg0 = np.zeros((1, 1, 2, 2))
    deg1 = np.zeros((1, 1, 2, 2))
    deg1[0, 0] = np.diag([1.0, ROOT3 / 2.0])
    return {
        "schema_version": 1,
        "algebra": {"kind": "diagonal", "dim": 2},
        "module_rank": 1,
        "measure": {
            "kind": "lebesgue_interval",
            "a": 0.0,
            "b": 1.0,
            "rule": "gauss_legendre",
            "nodes": 8,
        },
        "family": {"form": "parametric", "coefficients": [pairs(deg0), pairs(deg1)]},
    }


class TestParse:
    def test_parses_shipped_scenario(self):
        scenario = load_scenario(SCENARIOS / "diagonal_slope.json")
        assert scenario.descriptor.kind == "diagonal"
        assert scenario.module_rank == 1
        assert len(scenario.rule) == 32
        assert scenario.family.form == "parametric"
        assert scenario.perturbation is None

    def test_parses_counting_measure(self):
        doc = base_doc()
        doc["measure"] = {"kind": "counting", "count": 2}
        ops = pairs(np.stack([np.eye(2).reshape(1, 1, 2, 2)] * 2))
        doc["family"] = {"form": "sampled", "operators": ops}
        scenario = parse_scenario(doc)
        assert len(scenario.rule) == 2
        assert scenario.family.form == "sampled"

    def test_tolerances_merged_with_defaults(self):
        doc = base_doc()
        doc["tolerances"] = {"classification": 1e-6}
        scenario = parse_scenario(doc)
        assert scenario.tolerances["classification"] == 1e-6
        assert scenario.tolerances["reconstruction"] == 1e-12

    def test_parses_additive_perturbation(self):
        doc = base_doc()
        doc["perturbation"] = {
            "kind": "additive",
            "operator": pairs(np.eye(2).reshape(1, 1, 2, 2)),
            "coefficient": {"form": "polynomial", "coefficients": [[0.4, 0.0]]},
        }
        scenario = parse_scenario(doc)
        assert isinstance(scenario.perturbation, AdditivePerturbation)
        assert scenario.perturbation.energy(scenario.rule) == pytest.approx(0.16)

    def test_parses_relative_perturbation(self):
        doc = base_doc()
        doc["perturbation"] = {
            "kind": "relative",
            "comparison_family": doc["family"],
            "scale_primal": {"form": "polynomial", "coefficients": [1.0]},
            "scale_other": {"form": "polynomial", "coefficients": [1.0]},
            "alpha": 0.4,
            "beta": 0.3,
        }
        scenario = parse_scenario(doc)
        assert isinstance(scenario.perturbation, RelativePerturbation)
        assert scenario.perturbation.alpha == 0.4
        assert scenario.comparison_family is not None


class TestValidation:
    def test_bad_additive_coefficient_names_its_leaf(self):
        doc = json.loads((SCENARIOS / "perturbed_additive.json").read_text())
        doc["perturbation"]["coefficient"]["coefficients"][0] = "x"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "perturbation.coefficient.coefficients[0]"
        assert str(info.value).count("perturbation") == 1

    def test_rejected_additive_operator_is_reported_at_the_block(self):
        doc = json.loads((SCENARIOS / "perturbed_additive.json").read_text())
        doc["perturbation"]["operator"] = pairs(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ScenarioError, match="perturbation operator must be nonzero") as info:
            parse_scenario(doc)
        assert info.value.field_path == "perturbation"

    def test_wrong_schema_version(self):
        doc = base_doc()
        doc["schema_version"] = 2
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "schema_version"

    def test_bool_schema_version_is_refused(self, tmp_path):
        # True == 1 in Python, so a bool passed as version 1
        doc = base_doc()
        doc["schema_version"] = True
        path = tmp_path / "bool_version.json"
        path.write_text(json.dumps(doc))
        for parse in (lambda: parse_scenario(doc), lambda: load_scenario(path)):
            with pytest.raises(ScenarioError, match="^schema_version: expected 1, got True$") as info:
                parse()
            assert info.value.field_path == "schema_version"

    def test_missing_field_names_path(self):
        doc = base_doc()
        del doc["measure"]["nodes"]
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "measure.nodes"

    def test_malformed_polynomial_entry_names_path(self):
        doc = base_doc()
        doc["family"]["coefficients"][1][0][0][0][0] = [1.0]  # not a [re, im] pair
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert "family.coefficients[1][0][0][0][0]" in str(info.value)

    def test_non_finite_entry_rejected(self):
        doc = base_doc()
        doc["family"]["coefficients"][1][0][0][0][0] = [float("inf"), 0.0]
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_diagonal_violation_rejected(self):
        doc = base_doc()
        doc["family"]["coefficients"][1][0][0][0][1] = [0.5, 0.0]  # off-diagonal entry
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path.startswith("family.coefficients")

    def test_sampled_operator_count_checked(self):
        doc = base_doc()
        ops = pairs(np.stack([np.eye(2).reshape(1, 1, 2, 2)] * 3))
        doc["family"] = {"form": "sampled", "operators": ops}
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "family.operators"

    def test_unknown_tolerance_rejected(self):
        # positivity was a tolerance name; the frame rule now reads classification
        for name in ("speed", "positivity"):
            doc = base_doc()
            doc["tolerances"] = {name: 1e-3}
            with pytest.raises(ScenarioError, match="unknown tolerance name") as info:
                parse_scenario(doc)
            assert info.value.field_path == f"tolerances.{name}"

    def test_nonpositive_tolerance_rejected(self):
        doc = base_doc()
        doc["tolerances"] = {"dual": 0.0}
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_bad_interval(self):
        doc = base_doc()
        doc["measure"]["b"] = -1.0
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "measure.b"

    def test_unknown_rule_name(self):
        doc = base_doc()
        doc["measure"]["rule"] = "simpson"
        with pytest.raises(ScenarioError) as info:
            parse_scenario(doc)
        assert info.value.field_path == "measure.rule"

    def test_invalid_json_file(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(broken)


def with_perturbation(perturbation):
    """The base document with an additive perturbation by I, updated by ``perturbation``."""
    def build(doc):
        doc["perturbation"] = {
            "kind": "additive",
            "operator": pairs(np.eye(2).reshape(1, 1, 2, 2)),
            "coefficient": {"form": "polynomial", "coefficients": [[0.4, 0.0]]},
            **perturbation,
        }
        return doc
    return build


def changed(path, value):
    """The base document with the field at the dotted ``path`` set to ``value``."""
    def build(doc):
        *parents, key = path.split(".")
        owner = doc
        for name in parents:
            owner = owner[name]
        owner[key] = value
        return doc
    return build


RELATIVE = {
    "kind": "relative",
    "comparison_family": base_doc()["family"],
    "scale_primal": {"form": "polynomial", "coefficients": [1.0]},
    "scale_other": {"form": "polynomial", "coefficients": [1.0]},
    "alpha": 0.5,
    "beta": 0.25,
}


@pytest.mark.parametrize("build, field_path, message", [
    (changed("measure", {"kind": "gaussian"}), "measure.kind", "unknown measure kind 'gaussian'"),
    (changed("family.form", "tabulated"), "family.form", "unknown family form 'tabulated'"),
    (with_perturbation({"coefficient": {"form": "spline", "coefficients": [[0.4, 0.0]]}}),
     "perturbation.coefficient.form", "unknown scalar form 'spline'"),
    (changed("family.coefficients", []), "family.coefficients", "need at least one coefficient"),
    (with_perturbation({"coefficient": {"form": "polynomial", "coefficients": []}}),
     "perturbation.coefficient.coefficients", "need at least one coefficient"),
    (with_perturbation({"coefficient": {"form": "sampled", "values": [[1.0, 0.0]] * 7}}),
     "perturbation.coefficient.values", "need one value per node (8)"),
    (changed("family.coefficients", "[[1, 0]]"), "family.coefficients", "expected list"),
    (with_perturbation(RELATIVE), "perturbation", "alpha and beta must lie in [0, 1/2)"),
    (with_perturbation({"kind": "multiplicative"}), "perturbation.kind", "unknown perturbation kind 'multiplicative'"),
    (lambda doc: [doc], "", "scenario must be a JSON object"),
    (changed("algebra.kind", "upper"), "algebra.kind", "expected 'full' or 'diagonal', got 'upper'"),
    (changed("schema_version", 2.0), "schema_version", "expected 1, got 2.0"),
])
def test_each_refusal_names_its_field(tmp_path, build, field_path, message):
    # the document as given and as read from its text, where 2.0 is a number's token
    doc = build(base_doc())
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    for parse in (lambda: parse_scenario(json.loads(json.dumps(doc))), lambda: load_scenario(path)):
        with pytest.raises(ScenarioError) as info:
            parse()
        assert (info.value.field_path, str(info.value)) == (field_path, f"{field_path}: {message}")


def test_schema_version_written_as_a_float_is_version_1(tmp_path):
    doc = changed("schema_version", 1.0)(base_doc())
    path = tmp_path / "float_version.json"
    path.write_text(json.dumps(doc))
    assert '"schema_version": 1.0' in path.read_text()
    for scenario in (parse_scenario(doc), load_scenario(path)):
        assert scenario.family.form == "parametric"


def test_a_tolerance_that_is_no_number_is_a_usage_error(capsys):
    code = main(["analyze", "--scenario", str(SCENARIOS / "diagonal_slope.json"), "--tol", "abc"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: argument --tol: expected a positive finite number, got 'abc'\n")
