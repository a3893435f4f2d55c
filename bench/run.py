"""Benchmark of the opframes command line, end to end and layer by layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced then traced

Run from the root of a checkout.  Inputs are generated from the seed into
``.bench_build/``; each workload runs in fresh child interpreters (see
``child.py``) that call ``opframes.cli.main`` in process.  With ``--trace 0``
the last line of stdout reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The exit code is non-zero
when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import spec
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_percentile(samples):
    """(value, percentile, samples beyond it) for the highest percentile with
    at least ten samples above it; the maximum when there are fewer than 11."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100, 0
    index = n - 11
    return ordered[index], int(100 * (index + 1) // n), n - 1 - index


def machine_facts(seed):
    import numpy as np

    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def _child(job, workdir, tag):
    """Run one fresh child interpreter; return its result and the wall time
    from just before the spawn to the end of its first request."""
    job_path = workdir / f"job-{tag}.json"
    job = dict(job, result=str(workdir / f"result-{tag}.json"))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {tag} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"child {tag} exited with {proc.returncode}: {err.decode()[-2000:]}")
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    return result, result["setup_end"] - start


def run_workload(name, seed, seconds, trace):
    """Generate, run and check one workload; return (result dict, report lines)."""
    workdir = WORK / f"{name}-{seed}-{'trace' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.generate(name, seed, workdir)
    job = {
        "calls": [{"argv": c.argv} for c in plan.calls],
        "seconds": seconds,
        "trace": bool(trace),
        "src": str(SRC),
        "outdir": str(workdir),
    }
    problems = []
    loop, setup_s = _child(dict(job, mode="loop"), workdir, "loop")
    setups = [setup_s]
    # a traced run needs one more interpreter only to compare its counts
    repeats = 2 if trace else spec.SETUP_REPEATS
    others = [_child(dict(job, mode="setup"), workdir, f"setup-{i}") for i in range(1, repeats)]
    setups += [setup_s for _, setup_s in others]
    mismatched = sum(other["first"] != loop["first"] for other, _ in others)
    if mismatched:
        problems.append("a fresh interpreter produced different output for the same request")

    content_errors = []
    for i, call in enumerate(plan.calls):
        text = (workdir / f"first-{i}.out").read_text(encoding="utf-8")
        content_errors += workloads.check_call(call, loop["first"][i][0], text, plan.reference)
    requests = loop["requests"]
    attempted = len(requests) + len(setups)
    bad = [r for r in requests if r["problem"] is not None]
    if content_errors:
        # every other request matched the first one byte for byte, or failed anyway
        failed = attempted
        problems += content_errors + [f"stderr: {err[-500:]}" for err in loop["first_stderr"]]
    else:
        failed = len(bad) + mismatched
        problems += sorted({r["problem"] for r in bad})

    facts = machine_facts(seed)
    lines = [
        f"# workload {name} · seed {seed} · {seconds} s · {spec.LOOP}",
        f"# why: {workloads.WORKLOADS[name].why}",
        "# machine: " + " · ".join(f"{k} {v}" for k, v in facts.items()),
    ]
    result = {"workload": name, "seed": seed, "trace": bool(trace), "machine": facts,
              "params": workloads.WORKLOADS[name].params, "attempted": attempted,
              "failed": failed, "problems": problems}

    if trace:
        metrics, extra = _layer_metrics(loop, others, problems)
        if loop["missing_targets"]:
            lines.append(f"# tracing could not wrap: {', '.join(loop['missing_targets'])}")
        moves = {n: (m, on) for n, _, _, m, on in spec.LAYER_METRICS}
        for key, value in metrics.items():
            unit = value["unit"]
            kind = "computed" if key == "frames.flats_mb" else ("count" if key in spec.EXACT_COUNTS else "")
            move, on = moves[key]
            note = f"moves {', '.join(move)} on {', '.join(on)}" if move else ""
            lines.append(f"{key:36s} {value['value']:<14.6g} {unit:6s} {kind:9s} {note}")
        lines.append(f"# traced requests {extra['traced']}, untraced {extra['untraced']}")
    else:
        metrics, shown, facts_e2e = _end_to_end(loop, bad, setups, problems)
        for key, (value, unit, note) in shown.items():
            lines.append(f"{key:20s} {value:<12.6g} {unit:8s} {note}")
        lines.append(f"{'failed_frac':20s} {failed / attempted:<12.6g} {'ratio':8s}"
                     f" {failed} of {attempted} requests")
        result.update(facts_e2e, failed_frac=failed / attempted, setup_samples=setups)
    for problem in problems:
        lines.append(f"# FAILED CHECK: {problem}")
    result["metrics"] = metrics
    result["correct"] = not problems
    for path in workdir.iterdir():
        if path.name != "spans.jsonl":
            path.unlink()
    if not trace:
        workdir.rmdir()
    return result, lines


def _end_to_end(loop, bad, setups, problems):
    """End-to-end metrics of an untraced loop: the BENCHMARK.json ones, and
    every figure printed with its unit and note."""
    probes = loop["probes"]
    durations, costs = [], []
    for i, request in enumerate(loop["requests"]):
        if request["duration"] is not None:
            durations.append(request["duration"])
            costs.append(request["duration"] / ((probes[i] + probes[i + 1]) / 2))
    if not durations:
        raise RuntimeError(f"no request completed: {problems}")
    completed = len(loop["requests"]) - len(bad)
    tail, pct, beyond = tail_percentile(durations)
    cost_tail, cost_pct, cost_beyond = tail_percentile(costs)
    shown = {
        "call_cost_p50": (statistics.median(costs), "probe", "request wall time / adjacent probes"),
        "call_cost_tail": (cost_tail, "probe", f"p{cost_pct} of {len(costs)}, {cost_beyond} beyond"),
        "requests_per_kprobe": (1000 * completed / sum(costs), "1/kprobe", "completed per 1000 probe units"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mb": (loop["maxrss_kb"] * 1024 / 1e6, "MB", "ru_maxrss of the loop child"),
        "call_s_p50": (statistics.median(durations), "s", "wall time, moves with machine load"),
        "call_s_tail": (tail, "s", f"p{pct} of {len(durations)}, {beyond} beyond"),
        "requests_per_s": (completed / (loop["loop_wall"] - sum(probes[1:])), "1/s",
                           "completed / loop wall time without probes"),
        "probe_s_p50": (statistics.median(probes), "s", "calibration probe"),
    }
    metrics = {m["name"]: {"value": shown[m["name"]][0], "unit": shown[m["name"]][1]}
               for m in spec.END_TO_END}
    facts = {"samples": len(durations), "tail_percentile": pct, "cost_tail_percentile": cost_pct,
             "wall": {k: shown[k][0] for k in ("call_s_p50", "call_s_tail", "requests_per_s",
                                               "probe_s_p50")}}
    return metrics, shown, facts


def _layer_metrics(loop, others, problems):
    per_request = loop["layer_metrics"]
    traced = [r["duration"] for r in loop["requests"] if r["traced"] and r["duration"] is not None]
    plain = [r["duration"] for r in loop["requests"] if not r["traced"] and r["duration"] is not None]
    if not (per_request and plain):
        raise RuntimeError(f"no traced or untraced request completed: {problems}")
    reference = per_request[0]
    for other, _ in others:
        per_request_other = other["layer_metrics"]
        if per_request_other and any(per_request_other[0][k] != reference[k] for k in spec.EXACT_COUNTS):
            problems.append("per-request counts differ between two traced interpreters")
    if any(m[k] != reference[k] for m in per_request for k in spec.EXACT_COUNTS):
        problems.append("per-request counts differ between traced requests")
    medians = spans.median_metrics(per_request)
    if abs(medians["trace.coverage_frac"] - 1.0) > 0.05:
        problems.append(f"layer self times cover {medians['trace.coverage_frac']:.3f} of the wall time")
    medians["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    units = {name: unit for name, unit, *_ in spec.LAYER_METRICS}
    metrics = {name: {"value": medians[name], "unit": units[name]} for name in units}
    return metrics, {"traced": len(traced), "untraced": len(plain)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="also write the results as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "opframes" / "cli.py").is_file():
        print(f"error: no opframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)} or all")
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    traces = [args.trace] if args.trace is not None else [0, 1]

    results = []
    for name in names:
        for trace in traces:
            try:
                result, lines = run_workload(name, args.seed, seconds, trace)
            except RuntimeError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            print("\n".join(lines), flush=True)
            results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
