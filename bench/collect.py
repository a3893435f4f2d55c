"""Repeat the benchmark over several seeds and summarise the spread of each metric.

Usage:
    python3 bench/collect.py --seeds 10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per (seed, workload), seeds in the outer loop, untraced,
then one traced run per workload on the first seed.  For each end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound.
``--out`` writes everything, with every run's full result, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload, seed, trace, seconds):
    tmp = BENCH.parent / ".bench_build" / f"collect-{workload}-{seed}-{trace}.json"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(tmp)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    (result,) = json.loads(tmp.read_text(encoding="utf-8"))
    tmp.unlink()
    return result


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, 0, args.seconds)
            runs[name].append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in names:
        summary[name] = {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs[name]], m["bound"])
            for m in spec.END_TO_END
        }
        for metric, s in summary[name].items():
            flag = "ok" if s["steady"] else "WIDE"
            print(f"{name:20s} {metric:15s} median {s['median']:<10.4g} q1 {s['q1']:<10.4g}"
                  f" q3 {s['q3']:<10.4g} spread {s['spread']:.3f} (bound {s['bound']}) {flag}")
    traced = {name: run_once(name, seeds[0], 1, args.seconds) for name in names}
    if args.out:
        doc = {"loop": spec.LOOP, "run_seconds": args.seconds, "seeds": seeds,
               "machine": runs[names[0]][0]["machine"], "summary": summary,
               "runs": runs, "traced": traced,
               "layer_metrics": {name: {"unit": unit, "what": what, "moves": moves, "on": on}
                                 for name, unit, what, moves, on in spec.LAYER_METRICS}}
        Path(args.out).write_text(json.dumps(doc, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
