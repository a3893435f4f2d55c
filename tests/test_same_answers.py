"""tools/same_answers.py: recording one invocation and comparing two records."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
same_answers = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_answers)


def record(directory, outputs):
    """Write a record with one invocation per (name, stdout) pair, exit 0, empty stderr."""
    directory.mkdir()
    manifest = {}
    for index, (name, out) in enumerate(outputs):
        slug = same_answers.slug(index)
        (directory / f"{slug}.out").write_text(out)
        (directory / f"{slug}.err").write_text("")
        manifest[name] = {"file": slug, "argv": name.split(), "exit": 0}
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return directory


def test_run_one_records_exit_code_and_streams(monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = same_answers.run_one(["dual", "--scenario", "demos/scenarios/diagonal_slope.json"])
    assert code == 0 and err == ""
    assert json.loads(out)["dual"]["is_dual"] is True
    code, out, err = same_answers.run_one(["dual", "--scenario", "missing.json"])
    assert code == 1 and out == "" and err.startswith("error: ")


def test_compare_separates_rounding_level_moves(tmp_path, capsys):
    a = {"frame": {"upper_bound": 0.25, "spectrum": [0.25, 1.0]}, "residual": 2e-16, "kind": "x"}
    b = {"frame": {"upper_bound": 0.25 * (1 + 4e-16), "spectrum": [0.25, 1.0]}, "residual": 1e-16,
         "kind": "y"}
    dir_a = record(tmp_path / "a", [("s analyze", json.dumps(a)), ("s dual", "same\n")])
    dir_b = record(tmp_path / "b", [("s analyze", json.dumps(b)), ("s dual", "same\n")])
    assert same_answers.main(["--compare", str(dir_a), str(dir_b)]) == 1
    out = capsys.readouterr().out
    assert "same     s dual" in out
    assert "max rel move 0.5 at .residual" in out
    assert "above rounding rel move 4.44e-16 at .frame.upper_bound" in out
    assert ".kind: 'x' -> 'y'" in out
    assert "1 of 2 invocations differ" in out


def test_compare_of_a_record_with_itself_passes(tmp_path, capsys):
    dir_a = record(tmp_path / "a", [("s analyze", '{"a": 1.0}\n')])
    assert same_answers.main(["--compare", str(dir_a), str(dir_a)]) == 0
    assert "0 of 1 invocations differ" in capsys.readouterr().out
