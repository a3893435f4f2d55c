"""Self time, the patcher's rebinding of aliases, and a traced request."""

import contextlib
import io
from pathlib import Path

import pytest

import spans
import spec
from spans import Patcher, Recorder, Span, self_times

DIAGONAL = str(Path(__file__).resolve().parents[2] / "demos" / "scenarios" / "diagonal_slope.json")


def test_self_time_on_a_hand_built_tree():
    tree = [
        Span("root", 0.0, None, end=10.0),
        Span("a", 1.0, 0, end=4.0),
        Span("b", 5.0, 0, end=9.0),
        Span("a.child", 2.0, 1, end=3.0),
        Span("b.child", 6.0, 2, end=8.0),
    ]
    assert self_times(tree) == pytest.approx([3.0, 2.0, 2.0, 1.0, 2.0])


def test_overlapping_children_are_counted_once():
    tree = [
        Span("parent", 0.0, None, end=10.0),
        Span("x", 1.0, 0, end=5.0),
        Span("y", 4.0, 0, end=6.0),
        Span("z", 9.0, 0, end=12.0),
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def _aliases(value):
    import sys

    found = []
    for name, module in sys.modules.items():
        if module is not None and name.split(".")[0] == "opframes":
            found += [(name, k) for k, v in vars(module).items() if v is value]
    return found


def test_patcher_rebinds_every_alias():
    import opframes
    import opframes.cli
    import opframes.duals
    import opframes.frames
    import opframes.scenario

    original = opframes.frames.frame_operator
    rule = opframes.scenario._RULES["gauss_legendre"]
    parametric = vars(opframes.frames.OperatorFamily)["parametric"]
    aliases = _aliases(original)
    assert ("opframes.duals", "frame_operator") in aliases

    patcher = Patcher(Recorder())
    assert patcher.missing == []
    patcher.install()
    try:
        wrapped = opframes.frames.frame_operator
        assert wrapped is not original
        assert _aliases(original) == []
        for module_name, key in aliases:
            import sys

            assert getattr(sys.modules[module_name], key) is wrapped
        assert opframes.duals.frame_operator is wrapped
        assert opframes.scenario._RULES["gauss_legendre"] is not rule
        assert vars(opframes.frames.OperatorFamily)["parametric"] is not parametric
    finally:
        patcher.remove()
    assert opframes.duals.frame_operator is original
    assert _aliases(original) == aliases
    assert opframes.scenario._RULES["gauss_legendre"] is rule
    assert vars(opframes.frames.OperatorFamily)["parametric"] is parametric


def test_missing_targets_are_skipped(monkeypatch):
    import opframes.cli  # noqa: F401

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("frames.no_such_function", "frames.x"),))
    assert Patcher(Recorder()).missing == ["frames.no_such_function"]


def _run(argv):
    from opframes.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_traced_request_metrics_and_output():
    argv = ["analyze", "--scenario", DIAGONAL]
    plain = _run(argv)
    recorder = Recorder()
    patcher = Patcher(recorder)
    patcher.install()
    try:
        root = recorder.begin(7)
        traced = _run(argv)
        recorder.end(root)
    finally:
        patcher.remove()
    assert traced == plain

    group = recorder.requests[7]
    wall = group[0].end - group[0].start
    metrics = spans.request_metrics(group, recorder.counts[7], len(plain[1]), wall)
    assert set(metrics) | {"trace.overhead_frac"} == {name for name, *_ in spec.LAYER_METRICS}
    assert metrics["scenario.parse_calls"] == 1
    assert metrics["quadrature.rule_calls"] == 1
    assert metrics["quadrature.rule_nodes"] == 32
    assert metrics["frames.frame_operator_calls"] >= 1
    assert metrics["frames.factorizations_per_family"] >= 1.0
    assert metrics["cli.report_bytes"] == len(plain[1])
    assert all(metrics[f"{layer}.errors"] == 0 for layer in spans.LAYERS)
    assert metrics["trace.coverage_frac"] == pytest.approx(1.0, abs=0.05)
    assert all(value >= 0 for value in metrics.values())
