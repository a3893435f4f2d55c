"""Compare the benchmark's end-to-end metrics between two git revisions.

Usage (from the root of a checkout):

    python tools/ab.py BASE HEAD [--workload NAME ...] [--seeds 51-60]
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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


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


def worse_by(metric, base, head):
    """The move from ``base`` to ``head`` as a share of ``base``, positive when worse."""
    move = (head - base) / base
    return move if metric["better"] == "lower" else -move


def summarise(metric, pairs):
    """The comparison of one metric over ``pairs`` of (base value, head value)."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    q1, median, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
    head_median = statistics.median(head)
    move = worse_by(metric, median, head_median)
    spread = (q3 - q1) / median
    every_run_better = all(worse_by(metric, b, h) < 0 for b in base for h in head)
    if move > metric["bound"]:
        verdict = "BEYOND"
    elif spread > metric["bound"] and not every_run_better:
        verdict = "unresolved"            # the base's own runs spread wider than the bound
    else:
        verdict = "ok"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base_median": median, "base_q1": q1, "base_q3": q3, "base_spread": spread,
        "head_median": head_median, "move": move, "pairs": len(pairs),
        "won": sum(worse_by(metric, b, h) < 0 for b, h in pairs), "verdict": verdict,
    }


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
    args = parser.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {"base": workdir / "base", "head": workdir / "head"}
    export(args.base, trees["base"])
    export(args.head, trees["head"])
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

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
