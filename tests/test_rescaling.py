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


@pytest.mark.parametrize("command", ["analyze", "independence"])
def test_a_spectrum_past_the_float_range_is_refused_by_name(capsys, tmp_path, command):
    # slopes times 1e160: sigma ~ 5e159 is a double, sigma^2 is not
    path = tmp_path / "scaled-1e160.json"
    path.write_text(json.dumps(scaled(documents()["diagonal_slope"], 1e160)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "") and err.startswith("error: ") and "float range" in err, err
    assert [w.message for w in caught] == []
