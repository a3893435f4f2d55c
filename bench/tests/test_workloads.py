"""Generators make frames whose checks pass; the checks catch wrong outputs."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from workloads import MAX_CONDITION, WORKLOADS, check_call, generate

SEEDS = (1, 2, 3)


def run_calls(plan):
    from opframes.cli import main

    outs = []
    for call in plan.calls:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(call.argv))
        outs.append((code, buffer.getvalue()))
    return outs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_yields_a_frame(name, seed, tmp_path):
    plan = generate(name, seed, tmp_path)
    ref = plan.reference
    assert 1e-3 < ref["lower_bound"] <= ref["upper_bound"] <= MAX_CONDITION * ref["lower_bound"]
    if "additive_energy" in ref:
        assert 0.0 < ref["additive_energy"] < ref["lower_bound"]


def _scenario_text(plan):
    argv = plan.calls[0].argv
    return Path(argv[argv.index("--scenario") + 1]).read_text()


def test_same_seed_same_inputs(tmp_path):
    first = generate("relative-resample", 4, tmp_path / "a")
    second = generate("relative-resample", 4, tmp_path / "b")
    assert _scenario_text(first) == _scenario_text(second)
    assert first.reference == second.reference


@pytest.mark.parametrize("seed", SEEDS)
def test_relative_criterion_passes(seed, tmp_path):
    plan = generate("relative-resample", seed, tmp_path)
    ((code, out),) = run_calls(plan)
    report = json.loads(out)
    assert code == 0
    assert report["perturbation"]["criterion_passed"]
    assert check_call(plan.calls[0], code, out, plan.reference) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_check_passes(name, tmp_path):
    plan = generate(name, 1, tmp_path)
    for call, (code, out) in zip(plan.calls, run_calls(plan)):
        assert check_call(call, code, out, plan.reference) == []


def test_ill_conditioned_first_draw_is_redrawn(tmp_path):
    # seed 37's first dense-session draw has B/A > 7; analyze's Neumann run
    # then stopped unconverged at its 200-iteration cap
    plan = generate("dense-session", 37, tmp_path)
    for call, (code, out) in zip(plan.calls, run_calls(plan)):
        assert check_call(call, code, out, plan.reference) == []


def test_checks_catch_wrong_outputs(tmp_path):
    plan = generate("dense-session", 2, tmp_path)
    outs = run_calls(plan)
    analyze, dual_csv = (plan.calls[0], outs[0]), (plan.calls[2], outs[2])

    report = json.loads(analyze[1][1])
    report["frame"]["lower_bound"] *= 1 + 1e-7
    report["perturbation"]["within_envelope"] = False
    errors = check_call(analyze[0], 0, json.dumps(report), plan.reference)
    assert any("lower_bound" in e for e in errors)
    assert any("within_envelope" in e for e in errors)

    assert check_call(analyze[0], 2, analyze[1][1], plan.reference)
    lines = dual_csv[1][1].splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if line.startswith("dual.coefficients["))
    short = "".join(lines[:dropped] + lines[dropped + 1:])
    assert any("coefficient rows" in e for e in check_call(dual_csv[0], 0, short, plan.reference))
    assert check_call(analyze[0], 0, "not json", plan.reference)
