"""tools/ab.py: the verdict on one metric over alternating pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

LOWER = {"unit": "probe", "better": "lower", "bound": 0.2}
HIGHER = {"unit": "1/kprobe", "better": "higher", "bound": 0.2}


def test_seeds_are_a_range_or_a_list():
    assert ab.seeds_of("51-55") == [51, 52, 53, 54, 55]
    assert ab.seeds_of("1,3,5") == [1, 3, 5]


@pytest.mark.parametrize("metric,base,head,move,won,verdict", [
    (LOWER, [1.0, 1.0, 1.0, 1.0], [1.1, 1.1, 1.1, 1.1], 0.1, 0, "ok"),
    (LOWER, [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], 0.3, 0, "BEYOND"),
    (LOWER, [1.0, 1.0, 1.0, 1.0], [0.9, 0.9, 1.0, 0.9], -0.1, 3, "ok"),
    (HIGHER, [10.0, 10.0, 10.0, 10.0], [7.0, 7.0, 7.0, 7.0], 0.3, 0, "BEYOND"),
    (HIGHER, [10.0, 10.0, 10.0, 10.0], [12.0, 12.0, 12.0, 12.0], -0.2, 4, "ok"),
    # the base's runs spread wider than the bound: no verdict, unless every head run is better
    (LOWER, [0.5, 1.0, 1.0, 1.5], [1.1, 1.1, 1.1, 1.1], 0.1, 1, "unresolved"),
    (LOWER, [0.5, 1.0, 1.0, 1.5], [0.4, 0.4, 0.4, 0.4], -0.6, 4, "ok"),
])
def test_summary_of_one_metric(metric, base, head, move, won, verdict):
    row = ab.summarise(metric, list(zip(base, head)))
    assert row["move"] == pytest.approx(move)
    assert (row["won"], row["pairs"], row["verdict"]) == (won, len(base), verdict)


def test_a_startup_run_times_three_steps_in_a_fresh_interpreter():
    scenario = str(ROOT / "demos" / "scenarios" / "diagonal_slope.json")
    result = ab.startup_run(ROOT, [["analyze", "--scenario", scenario], ["explode"]])
    assert result["codes"] == [0, 64]
    assert all(result[step] > 0.0 for step in ab.STEPS)
    assert Path(result["cli"]).resolve().parents[1] == ROOT / "src"


def startup_pairs(base, head, codes=([0], [0])):
    """Made-up ``startup_run`` pairs whose every step reads ``base`` and ``head``."""
    return [{"first": "base", "base": dict.fromkeys(ab.STEPS, b) | {"codes": codes[0]},
             "head": dict.fromkeys(ab.STEPS, h) | {"codes": codes[1]}} for b, h in zip(base, head)]


def test_startup_rows_compare_each_step_and_check_the_exit_codes(capsys):
    rows, same = ab.print_startup("base", "head", {"w": startup_pairs([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0])})
    assert same and set(rows["w"]) == set(ab.STEPS + ab.RATIOS)
    row = rows["w"]["cli_s"]
    assert (row["base_median"], row["head_median"], row["won"], row["pairs"]) == (2.5, 2.0, 2, 4)
    assert row["move"] == pytest.approx(-0.2)
    assert "cli_s" in capsys.readouterr().out
    _, same = ab.print_startup("base", "head", {"w": startup_pairs([1.0], [1.0], codes=([0], [1]))})
    assert not same


def test_startup_ratio_rows_divide_each_step_by_its_own_numpy_import(capsys):
    # the host runs twice as slow in the head's second pair: numpy_s doubles with the package's
    # steps, so the raw medians lose and the ratios to each interpreter's own numpy_s win
    def run(numpy_s, cli_s, first_request_s):
        return {"numpy_s": numpy_s, "cli_s": cli_s, "first_request_s": first_request_s, "codes": [0]}
    pairs = [{"first": "base", "base": run(0.1, 0.03, 0.02), "head": run(0.1, 0.01, 0.01)},
             {"first": "head", "base": run(0.1, 0.03, 0.02), "head": run(0.2, 0.02, 0.02)},
             {"first": "base", "base": run(0.2, 0.06, 0.04), "head": run(0.2, 0.02, 0.05)}]
    rows, same = ab.print_startup("base", "head", {"w": pairs})
    assert same and ab.RATIOS == ("cli_s/numpy_s", "first_request_s/numpy_s")
    cli_ratio, request_ratio = (rows["w"][ratio] for ratio in ab.RATIOS)
    assert (cli_ratio["base_median"], cli_ratio["head_median"]) == pytest.approx((0.3, 0.1))
    assert (cli_ratio["won"], cli_ratio["pairs"]) == (3, 3)
    assert (request_ratio["base_median"], request_ratio["head_median"]) == pytest.approx((0.2, 0.1))
    assert request_ratio["won"] == 2 and request_ratio["move"] == pytest.approx(-0.5)
    raw = rows["w"]["first_request_s"]
    assert (raw["base_median"], raw["head_median"], raw["won"]) == pytest.approx((0.02, 0.02, 1))
    out = capsys.readouterr().out
    assert all(ratio in out for ratio in ab.RATIOS)
