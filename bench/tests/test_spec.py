"""BENCHMARK.json matches spec.py and the limits it must keep."""

import json
import re
import subprocess
import sys
import shutil
from pathlib import Path

import spec
from run import tail_percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_benchmark_json_limits():
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert 1 <= doc["run_seconds"] <= 60
    assert set(names) >= set(WORKLOADS)


def test_tail_percentile():
    samples = [float(i) for i in range(30)]
    assert tail_percentile(samples) == (19.0, 66, 10)
    assert tail_percentile(list(reversed(samples))) == (19.0, 66, 10)
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sampled-echo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_metrics_divide_each_request_by_its_probes():
    from run import _end_to_end

    loop = {
        "requests": [{"duration": d, "problem": None} for d in (1.0, 2.0, 3.0)],
        "probes": [0.1, 0.1, 0.1, 0.3],
        "loop_wall": 6.5,
        "maxrss_kb": 1000,
    }
    metrics, shown, _ = _end_to_end(loop, [], [0.5, 0.7, 0.6], [])
    assert set(metrics) == {m["name"] for m in spec.END_TO_END}
    assert metrics["call_cost_p50"]["value"] == 15.0            # costs 10, 20, 15
    assert metrics["requests_per_kprobe"]["value"] == 1000 * 3 / 45
    assert metrics["setup_s"]["value"] == 0.6
    assert shown["call_s_p50"][0] == 2.0
    assert shown["requests_per_s"][0] == 3 / (6.5 - 0.5)


def test_probe_uses_no_opframes_code():
    code = ("import sys; sys.path.insert(0, 'bench'); from probe import Probe; "
            "assert Probe()() > 0; "
            "assert not [m for m in sys.modules if m.startswith('opframes')]")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
