"""What the benchmark measures: metrics, bounds, and the BENCHMARK.json they make.

``python3 bench/spec.py > BENCHMARK.json`` regenerates the file at the
repository root; a test keeps the two equal.
"""

import json

from spans import LAYERS
from workloads import WORKLOADS

RUN_SECONDS = 20
SETUP_REPEATS = 5
LOOP = "closed loop, one client; each request is one in-process opframes.cli.main session"

# Request latency and throughput are in probe units (see probe.py).  On a shared
# 2-vCPU host, wall time moved by 20-50% with other tenants' load; over ten
# seeds the quartile spread of these ratios stayed at or below 0.055, that of
# the tail at or below 0.077.
END_TO_END = [
    {"name": "call_cost_p50", "unit": "probe", "better": "lower", "bound": 0.2},
    {"name": "call_cost_tail", "unit": "probe", "better": "lower", "bound": 0.25},
    {"name": "requests_per_kprobe", "unit": "1/kprobe", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

# name, unit, what is wrapped or counted, end-to-end metrics it should move, on which workloads
_P50, _RSS = "call_cost_p50", "peak_rss_mb"
_DIAG, _REL, _DENSE, _ECHO = (
    "diagonal-parametric", "relative-resample", "dense-session", "sampled-echo"
)
LAYER_METRICS = [
    ("scenario.load_s", "s", "self time of load_scenario: file read and json.load", [_P50, _RSS], [_ECHO]),
    ("scenario.parse_s", "s", "self time of parse_scenario", [_P50, _RSS], [_ECHO]),
    ("scenario.parse_calls", "count", "parse_scenario calls", [_P50], [_REL]),
    ("quadrature.rule_s", "s", "gauss_legendre, midpoint, counting", [_P50], [_DIAG, _REL]),
    ("quadrature.rule_calls", "count", "rule constructions", [_P50], [_DIAG, _REL]),
    ("quadrature.rule_nodes", "count", "total nodes built", [_P50], [_DIAG, _REL]),
    ("quadrature.integrate_s", "s", "integrate_array, integrate", [_P50], [_REL, _DIAG]),
    ("quadrature.integrate_calls", "count", "integrations", [_P50], [_REL, _DIAG]),
    ("frames.family_build_s", "s", "OperatorFamily.parametric, .sampled, .from_flats", [_P50, _RSS], [_DIAG]),
    ("frames.family_builds", "count", "outermost family constructions", [_P50, _RSS], [_DIAG]),
    ("frames.flats_mb", "MB", "computed, not measured: sum of N*(nk)^2*16 bytes over built families", [_P50, _RSS], [_DIAG]),
    ("frames.frame_operator_s", "s", "frame_operator", [_P50], [_DIAG, _DENSE, _REL]),
    ("frames.frame_operator_calls", "count", "frame_operator calls", [_P50], [_DIAG, _DENSE, _REL]),
    ("frames.factorizations_per_family", "ratio", "frame_operator calls per distinct family (wasted work)", [_P50], [_DIAG, _DENSE, _REL]),
    ("frames.classify_s", "s", "classify", [], []),
    ("frames.svd_s", "s", "below_bounded_check, independence_check", [_P50], [_DENSE]),
    ("frames.svd_calls", "count", "SVD checks", [_P50], [_DENSE]),
    ("frames.analysis_s", "s", "analysis", [_P50], [_REL]),
    ("frames.analysis_calls", "count", "analysis calls", [_P50], [_REL]),
    ("duals.canonical_dual_s", "s", "canonical_dual", [_P50], [_DIAG, _DENSE]),
    ("duals.is_dual_pair_s", "s", "is_dual_pair", [_P50], [_DIAG, _DENSE]),
    ("reconstruction.solve_s", "s", "reconstruct_direct, reconstruct_neumann", [_P50], [_DENSE]),
    ("reconstruction.iterations", "count", "iterations taken from the results", [], []),
    ("perturbation.criterion_s", "s", "relative_criterion_check plus criterion_sample_vectors", [_P50], [_REL]),
    ("perturbation.criterion_vectors", "count", "vectors returned by criterion_sample_vectors", [_P50], [_REL]),
    ("perturbation.additive_s", "s", "additive_admissible, perturb_additive, additive_envelope", [_P50], [_DENSE]),
    ("cli.emit_s", "s", "cli._emit, the only entry point to emission", [_P50, _RSS], [_ECHO, _DENSE]),
    ("cli.report_bytes", "count", "bytes written to stdout", [_P50, _RSS], [_ECHO, _DENSE]),
    ("cli.self_s", "s", "cli.main spans minus their children: argparse, _pairs, glue", [], []),
] + [
    (f"{layer}.errors", "count", "spans that raised", ["failed_frac"], ["all"])
    for layer in LAYERS
] + [
    ("trace.coverage_frac", "ratio", "layer self times plus cli.self_s over the traced request wall time", [], []),
    ("trace.overhead_frac", "ratio", "traced call_s_p50 over the untraced one, minus 1", [], []),
]

# Per-request counts that must repeat exactly between traced requests and interpreters.
EXACT_COUNTS = [
    name for name, unit, *_ in LAYER_METRICS
    if unit == "count" and not name.endswith(".errors")
] + ["frames.flats_mb", "frames.factorizations_per_family"]


def benchmark_json():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name == "trace.coverage_frac" else "lower"}
            for name, unit, *_ in LAYER_METRICS
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
