"""Metamorphic test: rescaling a whole problem moves no verdict.

The family, the comparison family and the additive direction operator of
every demo scenario and of generated ones are multiplied by c.  The frame
operator then scales by c^2, so at every c the exit codes and the boolean,
integer and string verdicts of ``analyze``, ``perturb`` and
``independence`` read as at c = 1; bounds and energies scale by c^2 and
sigma_min by c, to 1e-12 relative; the criterion margin stays put to
1e-12 absolute.  One verdict moves by definition: a parseval family
(tight with level 1) is tight with level c^2 at every c != 1.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from opframes.cli import main

from families import generated_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
SCALES = (1e-150, 1e-100, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e100, 1e150)
COMMANDS = ("analyze", "perturb", "independence")
GENERATED = {
    "sampled-full": ("full", 2, 2, 5, "sampled", 1),
    "sampled-diagonal-additive": ("diagonal", 3, 2, 6, "sampled", 7, "additive"),
    "sampled-diagonal-relative": ("diagonal", 3, 2, 6, "sampled", 7, "relative"),
    "parametric-diagonal": ("diagonal", 3, 2, 8, "parametric", 2),
    "parametric-diagonal-relative": ("diagonal", 2, 2, 6, "parametric", 3, "relative"),
    "parametric-full-additive": ("full", 2, 2, 5, "parametric", 4, "additive"),
}

# The power of c by which each float leaf of a report scales, by its key
# ("bounds" is the dual's, 1/B and 1/A); "margin" is compared absolutely.
POWERS = {
    "lower_bound": 2, "upper_bound": 2, "spectrum": 2, "tight_value": 2, "energy": 2,
    "envelope": 2, "empirical_bounds": 2, "bounds": -2, "relaxation": -2, "sigma_min": 1,
    "condition": 0, "tolerance": 0, "kernel_tolerance": 0, "alpha": 0, "beta": 0,
}
# Leaves at the rounding level or derived by cancellation, and the echo of the input.
UNCHECKED = {
    "scenario", "diagnostics", "coefficients", "resolution_residual", "final_residual",
    "recovery_error", "contraction",
}
RTOL = 1e-12
MARGIN_ATOL = 1e-12


def documents():
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))}
    docs.update((name, generated_doc(*args)) for name, args in GENERATED.items())
    return docs


def scaled(doc, c):
    """The document with its family, comparison family and additive operator times c."""
    doc = json.loads(json.dumps(doc))

    def times(table):
        return (c * np.asarray(table, dtype=float)).tolist()

    family = doc["family"]
    key = "coefficients" if family["form"] == "parametric" else "operators"
    family[key] = times(family[key])
    pert = doc.get("perturbation") or {}
    if pert.get("kind") == "additive":
        pert["operator"] = times(pert["operator"])
    elif pert.get("kind") == "relative":
        other = pert["comparison_family"]
        key = "coefficients" if other["form"] == "parametric" else "operators"
        other[key] = times(other[key])
    return doc


def answers(capsys, tmp_path, doc, c):
    path = tmp_path / f"scaled-{c:g}.json"
    path.write_text(json.dumps(scaled(doc, c)))
    out = {}
    for command in COMMANDS:
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        out[command] = code, json.loads(captured.out) if captured.out else None
    return out


def compare(base, got, c, key=None, where="report"):
    """Assert ``got`` is ``base`` rescaled by c, leaf by leaf."""
    if key in UNCHECKED:
        return
    if isinstance(base, dict):
        assert sorted(got) == sorted(base), where
        for name in base:
            compare(base[name], got[name], c, name, f"{where}.{name}")
    elif isinstance(base, list):
        assert len(got) == len(base), where
        for i, (b, g) in enumerate(zip(base, got)):
            compare(b, g, c, key, f"{where}[{i}]")
    elif isinstance(base, float) and key == "margin":
        assert abs(got - base) <= MARGIN_ATOL, (where, base, got)
    elif isinstance(base, float):
        want = base * c ** POWERS[key]
        assert abs(got - want) <= RTOL * abs(want), (where, want, got)
    else:  # bool, int, str, None: a verdict, a count or a label
        assert type(got) is type(base) and got == base, (where, base, got)


@pytest.mark.parametrize("c", [c for c in SCALES if c != 1.0])
@pytest.mark.parametrize("name", list(documents()))
def test_rescaling_moves_no_verdict(capsys, tmp_path, name, c):
    doc = documents()[name]
    base, got = answers(capsys, tmp_path, doc, 1.0), answers(capsys, tmp_path, doc, c)
    for command in COMMANDS:
        (base_code, base_report), (code, report) = base[command], got[command]
        assert code == base_code, (command, base_report, report)
        if base_report is None:  # refused with an error message and no report, as at c = 1
            assert report is None, command
            continue
        frame = base_report.get("frame")
        if frame is not None and frame["classification"] == "parseval":
            # parseval is level 1 exactly; rescaled, the same family is tight at level c^2
            assert report["frame"]["classification"] == "tight"
            assert report["frame"]["tight_value"] == pytest.approx(c * c, rel=RTOL)
            frame["classification"] = "tight"
        compare(base_report, report, c)


def refusal(capsys, path, command):
    """(exit code, stdout, stderr, warnings) of ``command`` on the scenario at ``path``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--scenario", str(path)])
    out, err = capsys.readouterr()
    return code, out, err, [w.message for w in caught]


def assert_refused_by_name(answer):
    code, out, err, caught = answer
    assert (code, out) == (1, "") and err.startswith("error: ") and "float range" in err, err
    assert caught == []


@pytest.mark.parametrize("command", ["analyze", "independence"])
def test_a_spectrum_past_the_float_range_is_refused_by_name(capsys, tmp_path, command):
    # slopes times 1e160: sigma ~ 5e159 is a double, sigma^2 is not
    path = tmp_path / "scaled-1e160.json"
    path.write_text(json.dumps(scaled(documents()["diagonal_slope"], 1e160)))
    assert_refused_by_name(refusal(capsys, path, command))


@pytest.mark.parametrize("c", [1e-155, 1e-160, 1e-170])
def test_a_spectrum_below_the_float_range_is_refused_by_name(capsys, tmp_path, c):
    # slopes times c: sigma_max ~ 6e-156 or less, so every sigma^2 is subnormal, or 0 at 1e-170
    path = tmp_path / f"scaled-{c:g}.json"
    path.write_text(json.dumps(scaled(documents()["diagonal_slope"], c)))
    analyzed, independence = (refusal(capsys, path, command) for command in ("analyze", "independence"))
    assert_refused_by_name(analyzed)
    assert independence == analyzed


def test_a_dual_past_the_float_range_is_refused_by_name(capsys, tmp_path):
    # slopes times (1e-150, 3e-155): A/B = 6.75e-10, a frame at 1e-10, and 1/A ~ 4e309
    doc = json.loads(json.dumps(documents()["diagonal_slope"]))
    table = np.asarray(doc["family"]["coefficients"], dtype=float)
    table[..., 0, 0, :] *= 1e-150
    table[..., 1, 1, :] *= 3e-155
    doc["family"]["coefficients"] = table.tolist()
    doc["tolerances"] = {"classification": 1e-10}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "dual"):
        assert_refused_by_name(refusal(capsys, path, command))
    code, out, err, caught = refusal(capsys, path, "independence")  # the frame itself is in range
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["independence"]["bounded_below"] is True


# past: t^2 at a node is past the largest double; numpy warned of overflow and
# the SVD failed to converge.  below: the slot factor underflowed to 0, and
# analyze read bessel_only with bounds (0, 0) where A/B is 0.75.
FAR_INTERVALS = {"past": (1e300, 1e300 * (1 + 2**-52)), "below": (0.0, 1e-300)}
NEAR_TOP = (1e150, 1e150 * (1 + 2**-52))  # t^2 ~ 1e300 is a double, 1e10 t^2 is not


@pytest.mark.parametrize("command", ["analyze", "independence", "dual"])
@pytest.mark.parametrize("interval", list(FAR_INTERVALS))
def test_a_far_interval_is_refused_by_name(capsys, tmp_path, interval, command):
    doc = json.loads(json.dumps(documents()["diagonal_slope"]))
    doc["measure"]["a"], doc["measure"]["b"] = FAR_INTERVALS[interval]
    path = tmp_path / f"{interval}.json"
    path.write_text(json.dumps(doc))
    assert_refused_by_name(refusal(capsys, path, command))


# perturbed_additive.json in sampled form on the past interval: its node
# operators are in range, but t^2 of the additive coefficient 0.4 + c t^2 is
# not, and with c = 0, inf * 0 is NaN; numpy warned of overflow and of an
# invalid matmul, and the SVD failed to converge
def sampled_on(name, interval):
    """The demo scenario ``name`` with its family, and a relative comparison family, as node
    operators at its rule's nodes on [0, 1], moved to the interval (a, b)."""
    doc = documents()[name]
    unit = (np.polynomial.legendre.leggauss(doc["measure"]["nodes"])[0] + 1.0) / 2.0
    pert = doc.get("perturbation") or {}
    for family in [doc["family"]] + ([pert["comparison_family"]] if pert.get("kind") == "relative" else []):
        coefficients = np.array(family.pop("coefficients"))
        operators = np.tensordot(unit[:, None] ** np.arange(len(coefficients)), coefficients, 1)
        family.update(form="sampled", operators=operators.tolist())
    doc["measure"]["a"], doc["measure"]["b"] = interval
    return doc


@pytest.mark.parametrize("command", ["analyze", "perturb"])
@pytest.mark.parametrize("c", [1e-300, 0.0])
def test_a_far_polynomial_coefficient_is_refused_by_name(capsys, tmp_path, c, command):
    doc = sampled_on("perturbed_additive", FAR_INTERVALS["past"])
    doc["perturbation"]["coefficient"]["coefficients"] = [[0.4, 0.0], [0.0, 0.0], [c, 0.0]]
    path = tmp_path / "far_additive.json"
    path.write_text(json.dumps(doc))
    assert_refused_by_name(refusal(capsys, path, command))


def test_a_far_scale_value_is_refused_by_name(capsys, tmp_path):
    # perturbed_relative.json in sampled form on [1e150, 1e150 (1 + 2^-52)] with
    # a = 1 + 1e10 t^2: t^2 ~ 1e300 is a double, a is not.  perturb exited 1 with
    # "scale family a must be positively confined" after numpy's matmul warnings
    doc = sampled_on("perturbed_relative", NEAR_TOP)
    doc["perturbation"]["scale_primal"]["coefficients"] = [1.0, 0.0, 1e10]
    path = tmp_path / "far_scale.json"
    path.write_text(json.dumps(doc))
    answer = refusal(capsys, path, "perturb")
    assert_refused_by_name(answer)
    assert "a polynomial's value is past the float range" in answer[2]
