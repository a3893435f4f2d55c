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
