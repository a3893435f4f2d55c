"""Compare the benchmark's end-to-end metrics between two git revisions.

Usage (from the root of a checkout):

    python tools/ab.py BASE HEAD [--workload NAME ...] [--seeds 51-60]
                       [--workdir DIR] [--out FILE]
    python tools/ab.py BASE HEAD --startup [--workload NAME ...]
                       [--workdir DIR] [--out FILE]

Each revision is exported with ``git archive`` into its own directory
under WORKDIR (a new temporary directory by default), so neither tree
starts with a ``__pycache__`` or a ``.bench_build`` of an earlier run.
Each (seed, workload) pair runs ``bench/run.py --workload W --seed S
--trace 0`` in both trees, one after the other, and which tree goes first
alternates from pair to pair, so a slow spell of the machine falls on both
sides alike.  Each run lasts the benchmark's own run length.  Nothing under
``bench/`` is changed: the trees are fresh copies, and ``BENCHMARK.json``
is only read, from HEAD.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it
prints the base median with its quartiles, the head median and its move
(positive is worse), the pairs in which HEAD was better, and a verdict:
``BEYOND`` when the move is worse than the metric's bound, ``unresolved``
when the base's interquartile range, as a share of its median, is wider
than the bound and not every HEAD run reads better than every base run,
else ``ok``.  ``--out`` writes the same, with every run's metrics, as
JSON.  The exit code is 0 when every run was correct with no failed
request and no metric is ``BEYOND``, else 1.

``--startup`` measures what ``setup_s`` lumps together.  It first compiles
both trees with ``compileall``, so every interpreter starts from current
bytecode, and writes each workload's seed-1 inputs once, with HEAD's
``bench/workloads.py``.  Then, for ``STARTUP_PAIRS`` (20) alternating
pairs, a fresh interpreter in each tree times three steps apart:
``import numpy``, ``import opframes.cli``, and the workload's first
request (every call of its session).  For each workload and step it
prints the base median with its quartiles, the head median, its move and
the pairs in which HEAD was faster.  A shared host's speed drifts from
run to run, and ``import numpy``, which no change to this package touches,
drifts with it; so each interpreter's ``cli_s`` and ``first_request_s`` are
also taken as a ratio to its own ``numpy_s`` (the rows ``cli_s/numpy_s``
and ``first_request_s/numpy_s``), which cancels the host's speed of the
moment, and compared the same way.  ``--out`` writes the same, with every
run, as JSON.  The exit code is 1 when a call's exit code differs between
the trees, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
STEPS = ("numpy_s", "cli_s", "first_request_s")
# Each ratio divides a step by the same interpreter's ``import numpy``, the control.
RATIOS = tuple(f"{step}/numpy_s" for step in STEPS[1:])
STARTUP_PAIRS = 20
# One fresh interpreter: the three startup steps of ``--startup``, timed apart.
STARTUP_CHILD = """
import contextlib, io, json, sys, time
start = time.perf_counter()
import numpy
numpy_done = time.perf_counter()
import opframes.cli as cli
cli_done = time.perf_counter()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
done = time.perf_counter()
print(json.dumps({"numpy_s": numpy_done - start, "cli_s": cli_done - numpy_done,
                  "first_request_s": done - cli_done, "codes": codes, "cli": cli.__file__}))
"""
# HEAD's benchmark writes a workload's seed-1 inputs and prints the argv of each call.
INPUTS_CHILD = """
import json, sys
sys.path[:0] = ["src", "bench"]
import workloads
plan = workloads.generate(sys.argv[1], 1, sys.argv[2])
print(json.dumps([call.argv for call in plan.calls]))
"""


def export(rev, dest):
    """Write the files of revision ``rev`` of this checkout into ``dest`` with ``git archive``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True,
                             check=True, timeout=120).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True, timeout=120)


def run_bench(tree, workload, seed):
    """The final JSON line of one untraced ``bench/run.py`` run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree.name} {workload} seed {seed}: no result (exit {proc.returncode})\n"
                         f"{proc.stdout}{proc.stderr}") from None
    return result


def startup_run(tree, argvs):
    """The three step times, exit codes and ``opframes.cli`` file of one fresh interpreter in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, json.dumps(argvs)], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree.name}: no startup result (exit {proc.returncode})\n{proc.stderr}") from None
    if Path(result["cli"]).resolve().parents[1] != (tree / "src").resolve():
        raise SystemExit(f"{tree.name}: opframes was imported from {result['cli']}")
    return result


def startup(trees, workloads, workdir):
    """Per workload, every pair of ``startup_run`` results, the sides alternating which goes first."""
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree)], check=True,
                       capture_output=True, timeout=RUN_TIMEOUT_S)
    argvs = {name: json.loads(subprocess.run(
        [sys.executable, "-c", INPUTS_CHILD, name, str(workdir / "inputs")], cwd=trees["head"],
        capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S).stdout) for name in workloads}
    runs = {name: [] for name in workloads}
    for index in range(STARTUP_PAIRS):
        for name in workloads:
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = startup_run(trees[side], argvs[name])
            runs[name].append(pair)
            print(f"{name} pair {index + 1}: " + ", ".join(
                f"{step} {value(pair['base'], step):.4f} -> {value(pair['head'], step):.4f}"
                for step in STEPS + RATIOS), flush=True)
    return runs


def value(run, step):
    """A step's time in one ``startup_run`` result, or for a ratio the step's time over ``numpy_s``."""
    if step in RATIOS:
        return run[step.split("/")[0]] / run["numpy_s"]
    return run[step]


def worse_by(metric, base, head):
    """The move from ``base`` to ``head`` as a share of ``base``, positive when worse."""
    move = (head - base) / base
    return move if metric["better"] == "lower" else -move


def compare(metric, pairs):
    """The base median and quartiles, the head median, the move and the pairs HEAD won,
    of one metric over ``pairs`` of (base value, head value)."""
    base = [b for b, _ in pairs]
    q1, median, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
    head_median = statistics.median(h for _, h in pairs)
    return {"base_median": median, "base_q1": q1, "base_q3": q3, "head_median": head_median,
            "move": worse_by(metric, median, head_median), "pairs": len(pairs),
            "won": sum(worse_by(metric, b, h) < 0 for b, h in pairs)}


def summarise(metric, pairs):
    """``compare`` of one metric over ``pairs``, with its spread and its verdict against its bound."""
    row = compare(metric, pairs)
    spread = (row["base_q3"] - row["base_q1"]) / row["base_median"]
    base, head = zip(*pairs)
    every_run_better = all(worse_by(metric, b, h) < 0 for b in base for h in head)
    if row["move"] > metric["bound"]:
        verdict = "BEYOND"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"            # the base's own runs spread wider than the bound
    else:
        verdict = "ok"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], **row,
            "base_spread": spread, "verdict": verdict}


def print_startup(base, head, runs):
    """Print the ``compare`` row of each workload and step, and of each step's ratio to ``numpy_s``;
    return (rows, whether every exit code agreed)."""
    print(f"\n{base} -> {head}, fresh interpreters, {len(next(iter(runs.values())))} alternating pairs")
    print(f"{'workload':20s} {'step':24s} {'base median':>11s} {'[q1, q3]':>19s} {'head':>8s} {'move':>7s} {'won':>5s}")
    rows, same = {}, True
    for name, pairs in runs.items():
        rows[name] = {}
        for step in STEPS + RATIOS:
            row = rows[name][step] = compare({"better": "lower"},
                                             [(value(p["base"], step), value(p["head"], step)) for p in pairs])
            print(f"{name:20s} {step:24s} {row['base_median']:11.4f} [{row['base_q1']:8.4f}, {row['base_q3']:8.4f}] "
                  f"{row['head_median']:8.4f} {100 * row['move']:+6.1f}% {row['won']:2d}/{row['pairs']:<2d}")
        if any(p["base"]["codes"] != p["head"]["codes"] for p in pairs):
            print(f"{name}: the exit codes differ between the trees")
            same = False
    return rows, same


def seeds_of(text):
    """``51-60`` or ``1,3,5`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append", help="a workload to run (default: all)")
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("51-60"), help="51-60 or 1,3,5")
    parser.add_argument("--workdir", type=Path, default=None, help="where to export the trees")
    parser.add_argument("--out", type=Path, help="also write the comparison as JSON to this file")
    parser.add_argument("--startup", action="store_true", help="time import and first request instead")
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"base": workdir / "base", "head": workdir / "head"}
    export(args.base, trees["base"])
    export(args.head, trees["head"])
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.startup:
        runs = startup(trees, workloads, workdir)
        summary, ok = print_startup(args.base, args.head, runs)
        if args.out:
            doc = {"base": args.base, "head": args.head, "summary": summary, "runs": runs, "ok": ok}
            args.out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return 0 if ok else 1

    runs = {name: [] for name in workloads}    # per workload: {"seed", "base", "head"} per pair
    ok = True
    for index, seed in enumerate(args.seeds):
        for name in workloads:
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], name, seed)
                ok &= pair[side]["correct"] and pair[side]["failed"] == 0
            runs[name].append(pair)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m['name']} {pair['base']['metrics'][m['name']]['value']:.4g} -> "
                f"{pair['head']['metrics'][m['name']]['value']:.4g}" for m in spec["end_to_end"]), flush=True)

    summary = {}
    print(f"\n{args.base} -> {args.head}, {len(args.seeds)} alternating pairs per workload")
    print(f"{'workload':20s} {'metric':20s} {'base median':>11s} {'[q1, q3]':>23s} {'head':>10s} "
          f"{'move':>7s} {'won':>5s} {'bound':>5s}")
    for name in workloads:
        summary[name] = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pairs = [(p["base"]["metrics"][key]["value"], p["head"]["metrics"][key]["value"]) for p in runs[name]]
            row = summary[name][key] = summarise(metric, pairs)
            ok &= row["verdict"] != "BEYOND"
            print(f"{name:20s} {key:20s} {row['base_median']:11.4g} [{row['base_q1']:10.4g}, {row['base_q3']:10.4g}] "
                  f"{row['head_median']:10.4g} {100 * row['move']:+6.1f}% {row['won']:2d}/{row['pairs']:<2d} "
                  f"{row['bound']:5.2f} {row['verdict']}")
        failed = [(side, p["seed"]) for p in runs[name] for side in ("base", "head")
                  if not p[side]["correct"] or p[side]["failed"]]
        if failed:
            print(f"{name}: runs not correct or with failed requests: {failed}")
    if args.out:
        doc = {"base": args.base, "head": args.head, "seeds": args.seeds,
               "summary": summary, "runs": runs, "ok": ok}
        args.out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
