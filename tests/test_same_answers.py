"""tools/same_answers.py: recording one invocation and comparing two records."""

import importlib.util
import json
from pathlib import Path

import pytest

from opframes.reconstruction import CHEBYSHEV_BUDGET

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
same_answers = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_answers)


def record(directory, outputs, exits=None):
    """Write a record with one invocation per (name, stdout) pair, empty stderr and
    the exit code from ``exits`` (default 0)."""
    directory.mkdir()
    manifest = {}
    for index, (name, out) in enumerate(outputs):
        slug = same_answers.slug(index)
        (directory / f"{slug}.out").write_text(out)
        (directory / f"{slug}.err").write_text("")
        manifest[name] = {"file": slug, "argv": name.split(), "exit": (exits or {}).get(name, 0)}
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
    (dir_a / same_answers.INPUTS).mkdir()
    (dir_a / same_answers.INPUTS / "s.json").write_text("{}")
    assert same_answers.main(["--compare", str(dir_a), str(dir_a)]) == 0
    out = capsys.readouterr().out
    assert "0 of 1 invocations differ" in out and "0 of 1 generated input files differ" in out


def test_compare_counts_changed_input_files(tmp_path, capsys):
    # the same outputs from inputs that differ in one byte, or exist in one record only
    dirs = [record(tmp_path / side, [("s analyze", '{"a": 1.0}\n')]) for side in "ab"]
    files = ({"same.json": "[1.0]", "signed.json": "[-0.0]", "gone.json": "{}"},
             {"same.json": "[1.0]", "signed.json": "[0.0]", "new.json": "{}"})
    for directory, contents in zip(dirs, files):
        (directory / same_answers.INPUTS).mkdir()
        for name, text in contents.items():
            (directory / same_answers.INPUTS / name).write_text(text)
    assert same_answers.main(["--compare", *map(str, dirs)]) == 1
    out = capsys.readouterr().out
    assert "same     s analyze" in out and "0 of 1 invocations differ" in out
    assert "input differs: gone.json (only in A)\n" in out
    assert "input differs: new.json (only in B)\n" in out
    assert "input differs: signed.json\n" in out and "same.json" not in out
    assert "3 of 4 generated input files differ" in out


def test_compare_counts_changed_verdicts(tmp_path, capsys):
    report = {"passed": True, "kind": "frame", "iterations": 27, "margin": 0.21, "envelope": None}
    csv_a = "field,value\niterations,27\nresidual,1e-13\n"
    outputs_a = [
        ("s bool", json.dumps(report)),
        ("s int csv", csv_a),
        ("s float only", json.dumps(report)),
        ("s text", "FAIL: bounds (got 0.3333333333333334)\n"),
        ("s exit", json.dumps(report)),
        ("s null", json.dumps(report)),
    ]
    outputs_b = [
        ("s bool", json.dumps({**report, "passed": False})),
        ("s int csv", csv_a.replace("27", "28")),
        ("s float only", json.dumps({**report, "margin": 0.42})),
        ("s text", "FAIL: bounds (got 0.3333333333333335)\n"),
        ("s exit", json.dumps(report)),
        ("s null", json.dumps({**report, "envelope": [0.1, 0.2]})),
    ]
    dir_a = record(tmp_path / "a", outputs_a)
    dir_b = record(tmp_path / "b", outputs_b, exits={"s exit": 2})
    assert same_answers.main(["--compare", str(dir_a), str(dir_b)]) == 1
    out = capsys.readouterr().out
    assert "verdict leaves changed: .passed" in out
    assert "verdict leaves changed: iterations" in out
    assert "verdict leaves changed: .envelope, .envelope[0], .envelope[1]" in out
    assert "exit 0 -> 2" in out
    assert "6 of 6 invocations differ" in out
    # a float move and a moved number in plain text are not verdicts
    assert "4 of 6 invocations changed an exit code or a boolean, string or integer leaf" in out


def test_compare_counts_added_leaves_apart(tmp_path, capsys):
    report = {"perturbation": {"admissible": True, "energy": 0.16}}
    grown = {"perturbation": {**report["perturbation"], "margin": 0.36, "kind": "additive"}}
    dir_a = record(tmp_path / "a", [("s perturb", json.dumps(report)), ("s csv", "field,value\n"),
                                    ("s moved", json.dumps(report))])
    dir_b = record(tmp_path / "b", [("s perturb", json.dumps(grown)),
                                    ("s csv", "field,value\nindependence.kernel_tolerance,1e-12\n"),
                                    ("s moved", json.dumps({"perturbation": {"margin": 0.36}}))])
    assert same_answers.main(["--compare", str(dir_a), str(dir_b)]) == 1
    out = capsys.readouterr().out
    assert "leaves added: .perturbation.kind, .perturbation.margin" in out
    assert "leaves added: independence.kernel_tolerance" in out
    # a leaf that went away is a changed verdict, even beside an added one
    assert "verdict leaves changed: .perturbation.admissible" in out
    assert "3 of 3 invocations differ" in out
    assert "1 of 3 invocations changed an exit code" in out
    assert "2 of 3 invocations only added such leaves" in out


def test_respellings_hold_the_same_document(tmp_path):
    written = same_answers.respellings(tmp_path)
    demos = sorted(same_answers.SCENARIOS.glob("*.json"))
    assert len(written) == 3 * len(demos)
    for name, path, calls in written:
        stem, layout = name.split(".")
        source = same_answers.SCENARIOS / f"{stem}.json"
        doc = json.loads(path.read_text())
        if layout == "notes":
            assert doc.pop("notes") == same_answers.NOTES
        assert calls == [] and doc == json.loads(source.read_text())
        assert path.read_text() != source.read_text()


def test_notes_keys_reach_the_csv_paths_escaped_and_quoted(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    written = same_answers.respellings(tmp_path)
    path = next(path for name, path, _ in written if name == "diagonal_slope.notes")
    code, out, err = same_answers.run_one(["dual", "--scenario", str(path), "--format", "csv"])
    assert code == 0 and err == ""
    assert "scenario.notes.100%s %%[1][1],1e-05\n" in out
    assert '"scenario.notes.a,b[1]",1e+16\n' in out
    assert '"scenario.notes.say ""x""[0][0][0]",3\n' in out
    assert '"scenario.notes.line\nbreak[1][0]",4.0\n' in out
    assert "scenario.notes.Ωmega ∑[1],2.5\n" in out


def test_ill_conditioned_scenario_converges(tmp_path, monkeypatch):
    # B/A = 133: a relaxation with step 1/B needs about 3700 steps and stops
    # unconverged at the budget; B/A = 33 1/3: it asks for at most 907 and converges
    monkeypatch.chdir(ROOT)
    written = same_answers.ill_conditioned(tmp_path)
    assert [(name, calls) for name, _, calls in written] == [
        ("diagonal_slope.ill_conditioned", []), ("diagonal_slope.ill_conditioned_33", [])]
    for (_, path, _), lower, relaxed in zip(written, (1.0 / 400.0, 1.0 / 100.0), (False, True)):
        code, out, err = same_answers.run_one(["analyze", "--scenario", str(path)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["frame"]["lower_bound"] == pytest.approx(lower, rel=1e-12)
        assert report["frame"]["upper_bound"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert report["reconstruction"]["converged"] is True
        code, out, _ = same_answers.run_one(["reconstruct", "--scenario", str(path), "--method", "neumann"])
        section = json.loads(out)["reconstruction"]
        assert code == 0 and section["converged"] is relaxed
        # more steps than a 200-step cap would allow
        assert 200 < section["iterations"] <= CHEBYSHEV_BUDGET


def test_boundary_scenario_has_one_frame_verdict(tmp_path, monkeypatch):
    # A / B = 1e-13 (1 + 1e-3) at classification tolerance 1e-13
    monkeypatch.chdir(ROOT)
    [(name, path, calls)] = same_answers.boundary(tmp_path)
    assert (name, calls) == ("full_boundary", [])
    assert json.loads(path.read_text())["tolerances"] == {"classification": 1e-13}
    code, out, err = same_answers.run_one(["analyze", "--scenario", str(path)])
    assert code == 0 and err == ""
    frame = json.loads(out)["frame"]
    assert frame["classification"] == "frame"
    assert frame["lower_bound"] / frame["upper_bound"] == pytest.approx(1e-13 * (1 + 1e-3), rel=1e-6)
    code, out, err = same_answers.run_one(["independence", "--scenario", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["independence"]["bounded_below"] is True


def test_huge_scale_scenario_reads_as_the_unscaled_one(tmp_path, monkeypatch):
    # slopes times 1e150: <x,x> of a vector of the family's size overflows a double
    monkeypatch.chdir(ROOT)
    [(name, path, calls)] = same_answers.huge_scale(tmp_path)
    assert (name, calls) == ("huge_scale", [])
    code, out, err = same_answers.run_one(["analyze", "--scenario", str(path)])
    assert code == 0 and err == ""
    huge = json.loads(out)
    assert huge["frame"]["lower_bound"] == pytest.approx(0.25e300, rel=1e-12)
    assert huge["frame"]["upper_bound"] == pytest.approx(1e300 / 3.0, rel=1e-12)
    code, out, _ = same_answers.run_one(["analyze", "--scenario", "demos/scenarios/diagonal_slope.json"])
    assert code == 0
    unscaled = json.loads(out)
    assert huge["reconstruction"]["converged"] is True
    assert huge["reconstruction"]["iterations"] == unscaled["reconstruction"]["iterations"] == 11


def test_far_interval_scenarios_are_refused_by_name(tmp_path, monkeypatch):
    # the refusals themselves are tests/test_rescaling.py's; here, that the matrix reaches them
    monkeypatch.chdir(ROOT)
    written = same_answers.far_intervals(tmp_path)
    names = ["far_past", "far_below", "far_past_additive"]
    assert [(name, calls) for name, _, calls in written] == [(name, []) for name in names]
    for name, path, _ in written:
        doc = json.loads(path.read_text())
        measure = doc["measure"]
        assert (measure["a"], measure["b"]) == same_answers.FAR_INTERVALS[name.removesuffix("_additive")]
        commands = ["analyze"]
        if name == same_answers.FAR_ADDITIVE:  # a sampled family in range, its additive coefficient not
            assert doc["family"]["form"] == "sampled"
            assert doc["perturbation"]["coefficient"]["coefficients"] == same_answers.FAR_COEFFICIENT
            commands.append("perturb")
        for command in commands:
            code, out, err = same_answers.run_one([command, "--scenario", str(path)])
            assert (code, out) == (1, "") and err.startswith("error: ") and "float range" in err, err


def answers(argv):
    """Exit code and report leaves of one invocation, less the echo and the dual's
    coefficients and form, which a sampled family has in other terms."""
    code, out, _ = same_answers.run_one(argv)
    skipped = (".scenario", ".dual.coefficients", ".dual.family_form")
    leaves = same_answers.report_leaves(out) or {}
    return code, {path: leaf for path, leaf in leaves.items() if not path.startswith(skipped)}


def test_sampled_respellings_read_as_the_parametric_scenarios(tmp_path, monkeypatch):
    # the polynomial at its rule's nodes: the same verdicts, and bounds and spectra to rounding
    monkeypatch.chdir(ROOT)
    written = same_answers.sampled(tmp_path)
    assert len(written) == len(list(same_answers.SCENARIOS.glob("*.json")))
    for name, path, calls in written:
        stem, layout = name.split(".")
        assert (layout, calls) == ("sampled", []) and json.loads(path.read_text())["family"]["form"] == "sampled"
        for command in ("analyze", "perturb", "independence"):
            code, got = answers([command, "--scenario", str(path)])
            want_code, want = answers([command, "--scenario", str(same_answers.SCENARIOS / f"{stem}.json")])
            assert code == want_code and got.keys() == want.keys(), (name, command)
            for leaf, value in want.items():
                if type(value) is not float:
                    assert got[leaf] == value, (name, command, leaf)
                elif "bound" in leaf or "spectrum" in leaf:
                    assert got[leaf] == pytest.approx(value, rel=1e-12), (name, command, leaf)
