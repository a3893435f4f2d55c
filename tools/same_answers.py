"""Run a fixed matrix of ``opframes`` invocations and compare two runs of it.

Usage (from the root of a checkout):

    PYTHONPATH=src python tools/same_answers.py OUTDIR
    python tools/same_answers.py --compare A B

The first form calls ``opframes.cli.main`` in process for every invocation of the
matrix and writes each one's exit code, stdout and stderr under OUTDIR.
The matrix is every scenario command with its default flags and with each
of ``--format csv``, ``--tol``, ``--nodes 64``, ``--nodes 256``, ``--seed``,
``--method direct`` and ``--method neumann`` that the command accepts, on
every ``demos/scenarios/*.json``, on three respellings of each written into
OUTDIR (``json.dumps`` with ``indent=2, sort_keys=True``, with
``separators=(",", ":")``, and the first with a ``notes`` member of small
tables under keys that the CSV writer must escape or quote, and of lists
that are no table and so reach the writers as lists of tokens, NOTES), on a
sampled respelling of each written into OUTDIR (its family, and a relative
comparison family, as node operators at its rule's nodes, evaluated with
numpy alone, so every command also runs on sampled families; see
``sampled``), on two ill-conditioned scenarios
written into OUTDIR (``diagonal_slope.json`` with slot 1's slope times
0.1, B/A = 133, where a relaxation with step 1/B needs about 3700 steps
and so stops unconverged at the 2000-step budget, and times 0.2,
B/A = 33 1/3, where it asks for at most 907 steps and converges, so the frame
algorithm's convergence and its stopping rule are compared too), on one
full-algebra boundary scenario written into OUTDIR (classification
tolerance 1e-13 and A/B = 1e-13 (1 + 1e-3), so the frame verdict depends
on how accurately A is computed; see ``boundary``), on one huge-scale
scenario written into OUTDIR (``diagonal_slope.json`` with both slopes
times 1e150, bounds (2.5e299, 1e300/3), where <x,x> of a vector of the
family's size is past the largest double; see ``huge_scale``), on two
far-interval scenarios written into OUTDIR (``diagonal_slope.json`` on
[1e300, 1e300 (1 + 2^-52)], where t^2 at a node is past the largest double,
and on [0, 1e-300], where the family's factor underflows to 0; every
command refuses both with a message that names the float range), on one
far-interval additive scenario written into OUTDIR (the sampled respelling
of ``perturbed_additive.json`` on the first interval with the coefficient
0.4 + 1e-300 t^2, whose t^2 is past the largest double where the node
operators are not, so ``analyze`` and ``perturb`` refuse it by the float
range and the commands that do not read the coefficient answer; see
``far_intervals``), and on the scenario of each benchmark workload for
seed 1 (whose own benchmark calls are added as they are), plus
``analyze --nodes 300000`` on every demo scenario and ``verify-examples``
with and without flags.
The reports echo every number as the scenario spells it, so the
respellings hold that echo to the same answers in other layouts.  The demo
scenarios use at most 32 nodes, so ``--nodes 256`` is what takes them past
100 nodes, where ``gauss_legendre`` switches from the recurrence to
closed-form expansions, and ``--nodes 300000`` compares answers where the
node count is far above the degree of every integrand.
The ``opframes`` that runs is whichever one is importable, so pointing
PYTHONPATH at another checkout's ``src`` records that version's answers
for the same inputs.

``--compare`` prints one line per invocation: ``same`` when exit code,
stdout and stderr are byte-identical, else the largest relative move of
any numeric leaf of the report (JSON or CSV), with its two values, and the
first non-numeric differences.  A summary counts the invocations that
differ and those whose exit code or any boolean, string or integer leaf of
the report changed (a verdict, classification, iteration count or kernel
dimension).  An invocation whose only such change is leaves present in B
alone, such as a new margin, is listed with them and counted apart: no
verdict moved.  It gives the largest move per scenario file, over all
numeric leaves and over the leaves above ROUNDING_LEVEL in magnitude:
residuals and recovery errors sit at the rounding level, where any change
of summation order moves them by O(1) relative.  It also compares the input
files that each record generated (under INPUTS in OUTDIR), byte by byte,
prints ``input differs: <file>`` for each one that differs or is in one
record only, and counts them.  The exit code is 0 when every invocation and
every generated input is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
BENCH_SEED = 1
VARIANTS = (
    (),
    ("--format", "csv"),
    ("--tol", "1e-6"),
    ("--nodes", "64"),
    ("--nodes", "256"),
    ("--seed", "3"),
    ("--method", "direct"),
    ("--method", "neumann"),
)
LARGE = ("--nodes", "300000")  # analyze on each demo scenario only: the node count stops mattering
VERIFY = ((), ("--nodes", "64", "--tol", "1e-9"), ("--nodes", "1"), ("--tol", "1e-16"))
LAYOUTS = {"indented": {"indent": 2, "sort_keys": True}, "tight": {"separators": (",", ":")}}
NOTES = {  # a format mark, a comma, quotes, a line break and non-ASCII text in the CSV paths
    "100%s %%": [[0.5, -0.0], [2, 1e-05]],
    "a,b": [1.5, 1e16],
    'say "x"': [[[3]]],
    "line\nbreak": [[0.25], [4.0]],
    "Ωmega ∑": [1, 2.5, 3],
    "ragged": [[1.5, 2], [3.0]],           # no table: its rows differ in length
    "mixed": ["x", [0.5, 1e-05]],          # no table: a string beside a row of numbers
}
HUGE_SCALE = 1e150  # the huge-scale scenario's slopes: s ~ 1e300, near the largest double
FAR_INTERVALS = {"far_past": (1e300, 1e300 * (1 + 2**-52)), "far_below": (0.0, 1e-300)}
FAR_ADDITIVE = "far_past_additive"  # a sampled additive scenario on the far_past interval
FAR_COEFFICIENT = [[0.4, 0.0], [0.0, 0.0], [1e-300, 0.0]]  # its coefficient 0.4 + 1e-300 t^2
BOUNDARY_SEED = 2  # the boundary scenario's unitaries; eigenvalues of the formed s refuse this one
SHOWN_DIFFERENCES = 3
ROUNDING_LEVEL = 1e-9  # residuals and recovery errors stay below it
INPUTS = "bench-scenarios"  # the directory of a record that holds the inputs it generated


def bench_scenarios(workdir):
    """(name, path, benchmark calls) of every benchmark workload at BENCH_SEED."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    out = []
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, BENCH_SEED, workdir)
        out.append((name, workdir / f"{name}-{BENCH_SEED}.json", [c.argv for c in plan.calls]))
    return out


def respellings(workdir):
    """(name, path, no calls) of each demo scenario rewritten in the other LAYOUTS,
    and indented with the NOTES member added."""
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        respelt = [(layout, doc, options) for layout, options in LAYOUTS.items()]
        respelt.append(("notes", {**doc, "notes": NOTES}, LAYOUTS["indented"]))
        for layout, content, options in respelt:
            target = workdir / f"{path.stem}.{layout}.json"
            target.write_text(json.dumps(content, **options), encoding="utf-8")
            out.append((target.stem, target, []))
    return out


def sampled_doc(path):
    """The demo scenario at ``path`` with its family, and a relative comparison
    family, in sampled form: the polynomial evaluated at the nodes of the
    scenario's own rule."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    measure = doc["measure"]  # every demo scenario is on a Gauss-Legendre rule
    unit = (np.polynomial.legendre.leggauss(measure["nodes"])[0] + 1.0) / 2.0
    nodes = measure["a"] + (measure["b"] - measure["a"]) * unit
    families = [doc["family"]]
    if doc.get("perturbation", {}).get("kind") == "relative":
        families.append(doc["perturbation"]["comparison_family"])
    for family in families:
        coefficients = np.array(family.pop("coefficients"))  # [re, im] pairs are linear in t too
        powers = nodes[:, None] ** np.arange(len(coefficients))
        family.update(form="sampled", operators=np.tensordot(powers, coefficients, axes=1).tolist())
    return doc


def sampled(workdir):
    """(name, path, no calls) of each demo scenario in sampled form (``sampled_doc``),
    written indented into ``workdir``."""
    out = []
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = sampled_doc(path)
        target = workdir / f"{path.stem}.sampled.json"
        target.write_text(json.dumps(doc, **LAYOUTS["indented"]), encoding="utf-8")
        out.append((target.stem, target, []))
    return out


def ill_conditioned(workdir):
    """(name, path, no calls) of ``diagonal_slope.json`` with slot 1's slope
    times 0.1 and times 0.2, written indented into ``workdir``: bounds
    (1/400, 1/3), B/A = 133, and (1/100, 1/3), B/A = 33 1/3."""
    out = []
    for factor, suffix in ((0.1, ""), (0.2, "_33")):
        doc = json.loads((SCENARIOS / "diagonal_slope.json").read_text(encoding="utf-8"))
        doc["family"]["coefficients"][1][0][0][1][1][0] *= factor
        target = workdir / f"diagonal_slope.ill_conditioned{suffix}.json"
        target.write_text(json.dumps(doc, **LAYOUTS["indented"]), encoding="utf-8")
        out.append((target.stem, target, []))
    return out


def boundary(workdir):
    """(name, path, no calls) of a full-algebra scenario just above the frame-rule
    floor, written indented into ``workdir``.  Its family on A^2 over M_2(C) is
    the constant M = U diag(1, 0.7, 0.4, sqrt r) W, U and W random unitaries, so
    s = M M* has bounds (r, 1) with r = 1e-13 (1 + 1e-3), and the scenario's
    classification tolerance is 1e-13.  An eigensolver on the formed s moves A
    by about eps B, some tenths of a percent of it here, enough to flip the
    verdict; the SVD of the family's factor moves it by at most about 1e-9 of itself."""
    rng = np.random.default_rng(BOUNDARY_SEED)

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    flat = (unitary() * [1.0, 0.7, 0.4, math.sqrt(1e-13 * (1.0 + 1e-3))]) @ unitary()
    blocks = flat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # row flattening -> (n, n, k, k)
    doc = {
        "schema_version": 1,
        "algebra": {"kind": "full", "dim": 2},
        "module_rank": 2,
        "measure": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0, "rule": "gauss_legendre", "nodes": 4},
        "family": {"form": "parametric",
                   "coefficients": np.stack([blocks.real, blocks.imag], axis=-1)[None].tolist()},
        "tolerances": {"classification": 1e-13},
    }
    target = workdir / "full_boundary.json"
    target.write_text(json.dumps(doc, **LAYOUTS["indented"]), encoding="utf-8")
    return [(target.stem, target, [])]


def huge_scale(workdir):
    """(name, path, no calls) of ``diagonal_slope.json`` with both slopes times
    HUGE_SCALE, written indented into ``workdir``: bounds (2.5e299, 1e300/3).
    Every answer but the bounds, spectra, energies and sigma_min reads as at
    scale 1; the frame algorithm takes the same steps."""
    doc = json.loads((SCENARIOS / "diagonal_slope.json").read_text(encoding="utf-8"))
    slope = doc["family"]["coefficients"][1][0][0]
    for s in range(len(slope)):
        slope[s][s][0] *= HUGE_SCALE
    target = workdir / "huge_scale.json"
    target.write_text(json.dumps(doc, **LAYOUTS["indented"]), encoding="utf-8")
    return [(target.stem, target, [])]


def far_intervals(workdir):
    """(name, path, no calls) of ``diagonal_slope.json`` on each of FAR_INTERVALS,
    past the float range at [1e300, ...] and below it at [0, 1e-300], and of
    FAR_ADDITIVE, written indented into ``workdir``: the sampled respelling of
    ``perturbed_additive.json`` (``sampled_doc``) moved to the first interval,
    with the additive coefficient FAR_COEFFICIENT, whose power t^2 is past the
    float range while the family's node operators are not."""
    docs = {}
    for name, (a, b) in FAR_INTERVALS.items():
        docs[name] = json.loads((SCENARIOS / "diagonal_slope.json").read_text(encoding="utf-8"))
        docs[name]["measure"]["a"], docs[name]["measure"]["b"] = a, b
    doc = docs[FAR_ADDITIVE] = sampled_doc(SCENARIOS / "perturbed_additive.json")
    doc["measure"]["a"], doc["measure"]["b"] = FAR_INTERVALS["far_past"]
    doc["perturbation"]["coefficient"]["coefficients"] = FAR_COEFFICIENT
    out = []
    for name, doc in docs.items():
        target = workdir / f"{name}.json"
        target.write_text(json.dumps(doc, **LAYOUTS["indented"]), encoding="utf-8")
        out.append((target.stem, target, []))
    return out


def matrix(workdir):
    """Ordered {invocation name: argv}; paths are relative to the checkout root when possible."""
    from opframes.cli import COMMANDS

    def rel(path):
        path = Path(path)
        return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)

    demos = [(p.stem, p, []) for p in sorted(SCENARIOS.glob("*.json"))]
    sources = demos + respellings(workdir) + sampled(workdir) + ill_conditioned(workdir)
    sources += boundary(workdir) + huge_scale(workdir) + far_intervals(workdir) + bench_scenarios(workdir)
    invocations = {}
    for stem, path, own_calls in sources:
        for command, (_, _, flags) in COMMANDS.items():
            if "--scenario" not in flags:
                continue
            for variant in VARIANTS:
                if variant and variant[0] not in flags:
                    continue
                name = " ".join([stem, command, *variant])
                invocations[name] = [command, "--scenario", rel(path), *variant]
        for argv in own_calls:
            extra = [a for a in argv if a not in ("--scenario", str(path))]
            invocations[" ".join([stem, "bench", *extra])] = [
                a if a != str(path) else rel(path) for a in argv
            ]
    for stem, path, _ in demos:
        invocations[" ".join([stem, "analyze", *LARGE])] = ["analyze", "--scenario", rel(path), *LARGE]
    for variant in VERIFY:
        invocations[" ".join(["verify-examples", *variant])] = ["verify-examples", *variant]
    return invocations


def run_one(argv):
    from opframes.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # an escaped exception is an answer too: record it
            traceback.print_exc(limit=0)
            code = None
    return code, out.getvalue(), err.getvalue()


def slug(index):
    return f"{index:04d}"


def cmd_run(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    workdir = outdir / INPUTS
    workdir.mkdir(exist_ok=True)
    manifest = {}
    for index, (name, argv) in enumerate(matrix(workdir).items()):
        code, out, err = run_one(argv)
        (outdir / f"{slug(index)}.out").write_text(out, encoding="utf-8")
        (outdir / f"{slug(index)}.err").write_text(err, encoding="utf-8")
        manifest[name] = {"file": slug(index), "argv": argv, "exit": code}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    print(f"{len(manifest)} invocations written to {outdir}")
    return 0


# ---------------------------------------------------------------- compare


def report_leaves(text):
    """{path: leaf} of a JSON or CSV report, else None; CSV integers stay integers."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if doc is not None:
        out = {}

        def walk(prefix, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{prefix}.{key}", item)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(f"{prefix}[{i}]", item)
            else:
                out[prefix] = value

        walk("", doc)
        return out
    rows = list(csv.reader(io.StringIO(text)))
    if rows and rows[0] == ["field", "value"] and all(len(r) == 2 for r in rows):
        return {field: csv_value(value) for field, value in rows[1:]}
    return None


def csv_value(text):
    """A CSV cell as int, else float, else the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def leaves(text):
    """{path: leaf} of a JSON report, a CSV report, or a text's lines."""
    out = report_leaves(text)
    return out if out is not None else {f"line {i + 1}": line for i, line in enumerate(text.splitlines())}


def verdict_changes(text_a, text_b):
    """Paths of report leaves that differ and are not floats on both sides:
    booleans, strings, integers and nulls (verdicts, classifications,
    iteration counts, kernel dimensions), and paths in one report only.
    Outputs that are not reports, such as ``verify-examples`` text, have none."""
    a, b = report_leaves(text_a), report_leaves(text_b)
    if a is None or b is None:
        return [] if a is None and b is None else ["(report in one output only)"]
    return [
        path for path in sorted(set(a) | set(b))
        if path not in a or path not in b
        or (a[path] != b[path] and not (type(a[path]) is float and type(b[path]) is float))
    ]


def added_leaves(text_a, text_b):
    """Paths of report leaves in B only; none unless both outputs are reports."""
    a, b = report_leaves(text_a), report_leaves(text_b)
    return [] if a is None or b is None else sorted(set(b) - set(a))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_move(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def differences(text_a, text_b):
    """Largest relative move of a numeric leaf between two outputs as
    (move, path, value in A, value in B), the same for leaves above
    ROUNDING_LEVEL, and the non-numeric differences."""
    a, b = leaves(text_a), leaves(text_b)
    worst = above = (0.0, None, None, None)
    other = []
    for path in sorted(set(a) | set(b)):
        if path not in a or path not in b:
            other.append(f"{path} only in {'B' if path not in a else 'A'}")
        elif is_number(a[path]) and is_number(b[path]):
            move = (relative_move(float(a[path]), float(b[path])), path, a[path], b[path])
            worst = max(worst, move, key=lambda m: m[0])
            if min(abs(a[path]), abs(b[path])) > ROUNDING_LEVEL:
                above = max(above, move, key=lambda m: m[0])
        elif a[path] != b[path]:
            other.append(f"{path}: {a[path]!r} -> {b[path]!r}")
    return worst, above, other


def changed_inputs(dir_a, dir_b):
    """(names of the generated input files of two records that differ or are in one
    record only, number of files in either), each printed as ``input differs``."""
    names = sorted({path.name for record in (dir_a, dir_b) for path in (record / INPUTS).glob("*")})
    changed = []
    for name in names:
        a, b = dir_a / INPUTS / name, dir_b / INPUTS / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            print(f"input differs: {name}" + ("" if a.is_file() and b.is_file() else
                                               f" (only in {'A' if a.is_file() else 'B'})"))
            changed.append(name)
    return changed, len(names)


def cmd_compare(dir_a, dir_b):
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    man_a = json.loads((dir_a / "manifest.json").read_text(encoding="utf-8"))
    man_b = json.loads((dir_b / "manifest.json").read_text(encoding="utf-8"))
    per_source = {}
    changed = verdicts = additions = 0
    for name in list(man_a) + [n for n in man_b if n not in man_a]:
        source = name.split()[0]
        if name not in man_a or name not in man_b:
            print(f"only in {'A' if name in man_a else 'B'}: {name}")
            changed += 1
            verdicts += 1
            continue
        ea, eb = man_a[name], man_b[name]
        out_a = (dir_a / f"{ea['file']}.out").read_text(encoding="utf-8")
        out_b = (dir_b / f"{eb['file']}.out").read_text(encoding="utf-8")
        err_a = (dir_a / f"{ea['file']}.err").read_text(encoding="utf-8")
        err_b = (dir_b / f"{eb['file']}.err").read_text(encoding="utf-8")
        worst_so_far = per_source.setdefault(source, [0.0, 0.0])
        if ea["exit"] == eb["exit"] and out_a == out_b and err_a == err_b:
            print(f"same     {name}")
            continue
        changed += 1
        worst, above, other = differences(out_a, out_b)
        _, _, err_other = differences(err_a, err_b)
        notes = []
        for label, (move, path, value_a, value_b) in (("max", worst), ("above rounding", above)):
            if path is not None:
                notes.append(f"{label} rel move {move:.3g} at {path} ({value_a!r} -> {value_b!r})")
        if ea["exit"] != eb["exit"]:
            notes.append(f"exit {ea['exit']} -> {eb['exit']}")
        moved = verdict_changes(out_a, out_b)
        added = added_leaves(out_a, out_b)
        if moved and set(moved) <= set(added) and ea["exit"] == eb["exit"]:
            notes.append(f"leaves added: {', '.join(added[:SHOWN_DIFFERENCES])}")
            additions += 1
            other = [d for d in other if not d.endswith(" only in B")]
        else:
            if moved:
                notes.append(f"verdict leaves changed: {', '.join(moved[:SHOWN_DIFFERENCES])}")
            verdicts += bool(moved) or ea["exit"] != eb["exit"]
        notes += other[:SHOWN_DIFFERENCES]
        notes += [f"stderr {d}" for d in err_other[:SHOWN_DIFFERENCES]]
        if len(other) + len(err_other) > 2 * SHOWN_DIFFERENCES:
            notes.append(f"{len(other) + len(err_other)} non-numeric differences in all")
        print(f"differs  {name}: " + ("; ".join(notes) or "no numeric move"))
        worst_so_far[0] = max(worst_so_far[0], worst[0])
        worst_so_far[1] = max(worst_so_far[1], above[0])
    inputs, input_total = changed_inputs(dir_a, dir_b)
    total = len(set(man_a) | set(man_b))
    print(f"\n{changed} of {total} invocations differ")
    print(f"{len(inputs)} of {input_total} generated input files differ")
    print(f"{verdicts} of {total} invocations changed an exit code or a boolean, string or integer"
          " leaf of a report")
    print(f"{additions} of {total} invocations only added such leaves")
    print(f"largest relative move of a numeric leaf per scenario: all leaves, leaves above {ROUNDING_LEVEL:g}")
    for source, (worst, above) in per_source.items():
        print(f"  {source:24s} {worst:<10.3g} {above:.3g}")
    return 0 if changed == 0 and not inputs else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("outdir", nargs="?", help="record every invocation of the matrix here")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two recorded runs")
    args = parser.parse_args(argv)
    if args.compare:
        return cmd_compare(*args.compare)
    return cmd_run(args.outdir)


if __name__ == "__main__":
    sys.exit(main())
