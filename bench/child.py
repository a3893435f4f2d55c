"""One fresh interpreter running a workload's requests against ``opframes.cli.main``.

Usage: python3 bench/child.py JOB.json

The job names the calls of one request, the mode and where to write the
result.  ``setup`` mode imports ``opframes.cli``, runs the first request
and stops; ``loop`` mode then runs a closed loop with one client for the
given number of seconds, with the calibration probe (``probe.py``) run
before the first request and after every request.  Every request's stdout
goes to an in-memory buffer and is hashed; the first request's outputs are
written to files so the parent can check them.  With tracing on, the loop alternates traced and
untraced requests, and a setup child traces its one request.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_request(cli, calls):
    outs = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call["argv"]))
        outs.append((code, out.getvalue(), err.getvalue()))
    return outs


def _digest(outs):
    return [[code, hashlib.sha256(text.encode("utf-8")).hexdigest()] for code, text, _ in outs]


def main():
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import opframes.cli as cli

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"opframes was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    calls = job["calls"]
    tracer = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        tracer = (recorder, spans.Patcher(recorder))

    def request(index, traced):
        if not traced:
            start = time.perf_counter()
            outs = _run_request(cli, calls)
            return outs, time.perf_counter() - start, None
        recorder, patcher = tracer
        patcher.install()
        start = time.perf_counter()
        root = recorder.begin(index)
        try:
            outs = _run_request(cli, calls)
        finally:
            recorder.end(root)
            wall = time.perf_counter() - start
            patcher.remove()
        report_bytes = sum(len(text.encode("utf-8")) for _, text, _ in outs)
        metrics = spans.request_metrics(
            recorder.requests[index], recorder.counts[index], report_bytes, wall
        )
        return outs, wall, metrics

    setup_child = job["mode"] == "setup"
    outs, _, first_metrics = request(0, traced=tracer is not None and setup_child)
    setup_end = time.monotonic()
    first = _digest(outs)
    result = {
        "setup_end": setup_end,
        "first": first,
        "first_stderr": [err for _, _, err in outs if err],
        "requests": [],
        "layer_metrics": [first_metrics] if first_metrics else [],
        "missing_targets": tracer[1].missing if tracer else [],
    }
    if not setup_child:
        outdir = Path(job["outdir"])
        for i, (_, text, _) in enumerate(outs):
            (outdir / f"first-{i}.out").write_text(text, encoding="utf-8")
        del outs
        from probe import Probe

        probe = Probe()
        probe()
        result["probes"] = probes = [probe()]
        loop_start = time.perf_counter()
        index = 1
        while time.perf_counter() - loop_start < job["seconds"]:
            traced = tracer is not None and index % 2 == 0
            entry = {"traced": traced, "problem": None}
            try:
                outs, entry["duration"], metrics = request(index, traced)
            except Exception as exc:  # a failed request is counted, not fatal
                entry["duration"] = None
                entry["problem"] = f"raised {type(exc).__name__}: {exc}"
            else:
                digest = _digest(outs)
                if any(code != 0 for code, _ in digest):
                    entry["problem"] = f"exit codes {[c for c, _ in digest]}, expected 0"
                elif digest != first:
                    entry["problem"] = "output differs from the first request"
                if metrics is not None:
                    result["layer_metrics"].append(metrics)
                del outs
            result["requests"].append(entry)
            probes.append(probe())
            index += 1
        result["loop_wall"] = time.perf_counter() - loop_start
        if tracer is not None:
            with open(outdir / "spans.jsonl", "w", encoding="utf-8") as handle:
                for request_id, group in tracer[0].requests.items():
                    for span in group:
                        handle.write(json.dumps({"request": request_id, **span.as_dict()}) + "\n")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
