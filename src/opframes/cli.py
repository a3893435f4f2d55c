"""Config-driven command line front end.

Subcommands: analyze, reconstruct, dual, perturb, independence,
verify-examples.  Scenarios are JSON documents (schema version 1);
reports go to standard output as JSON (default) or CSV.  Exit codes:
0 success / frame, 2 family is not a frame, 1 error, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .catalog import diagonal_slope_family
from .duals import canonical_dual, is_dual_pair
from .exceptions import NoConvergence, NotAFrame, SingularFrameOperator
from .frames import (
    PARAMETRIC,
    below_bounded_check,
    classify,
    frame_operator,
    independence_check,
    optimal_bounds,
)
from .hilbert_module import apply, random_vector, scalar_norm
from .perturbation import (
    additive_envelope,
    additive_admissible,
    criterion_sample_vectors,
    perturb_additive,
    relative_criterion_check,
    relative_envelope,
)
from .quadrature import gauss_legendre
from .reconstruction import reconstruct_direct, reconstruct_neumann
from .scenario import ScenarioError, load_scenario, parse_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FRAME = 2
EXIT_USAGE = 64

_FRAME_KINDS = ("frame", "tight", "parseval")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _pairs(arr):
    """Complex ndarray -> nested lists with innermost [re, im] pairs."""
    arr = np.asarray(arr, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _frame_section(report):
    return {
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "classification": report.classification,
        "tight_value": report.tight_value,
        "spectrum": list(report.spectrum),
        "condition": report.condition if np.isfinite(report.condition) else None,
        "tolerance": report.tolerance,
        "diagnostics": report.diagnostics,
    }


def _dual_section(scenario, tol):
    dual = canonical_dual(scenario.family, tol)
    pair = is_dual_pair(scenario.family, dual, tol)
    section = {
        "bounds": [pair.dual_bounds[0], pair.dual_bounds[1]],
        "resolution_residual": pair.resolution_residual,
        "is_dual": pair.is_dual,
        "tolerance": tol,
        "family_form": dual.form,
    }
    if dual.form == PARAMETRIC:
        section["coefficients"] = _pairs(dual.coefficients)
    return section


def _reconstruction_section(scenario, data, method, tol, seed):
    rng = np.random.default_rng(seed)
    x_true = random_vector(scenario.descriptor, scenario.module_rank, rng, unit=True)
    y = apply(data.element, x_true)
    try:
        if method == "direct":
            result = reconstruct_direct(data, y)
        else:
            result = reconstruct_neumann(data, y, tol=tol)
    except NoConvergence as exc:
        return {
            "method": method,
            "converged": False,
            "iterations": exc.iterations,
            "final_residual": exc.residual,
            "tolerance": tol,
            "seed": seed,
        }
    error = scalar_norm(result.vector - x_true)
    return {
        "method": result.method,
        "converged": True,
        "iterations": result.iterations,
        "relaxation": result.relaxation,
        "contraction": result.contraction,
        "final_residual": result.final_residual,
        "recovery_error": error,
        "tolerance": tol,
        "seed": seed,
    }


def _perturbation_section(scenario, args):
    tols = scenario.tolerances
    bounds = optimal_bounds(frame_operator(scenario.family))
    if scenario.perturbation_kind == "additive":
        admissible, energy, lower = additive_admissible(
            scenario.family, scenario.additive, tols["admissibility"]
        )
        perturbed = perturb_additive(scenario.family, scenario.additive)
        empirical = optimal_bounds(frame_operator(perturbed))
        section = {
            "kind": "additive",
            "energy": energy,
            "lower_bound": lower,
            "admissible": admissible,
            "criterion": "perturbation energy below lower frame bound (R < A)",
            "tolerance": tols["admissibility"],
            "empirical_bounds": [empirical[0], empirical[1]],
        }
        if admissible:
            lo, hi = additive_envelope(lower, bounds[1], energy)
            section["envelope"] = [lo, hi]
            section["within_envelope"] = bool(lo - 1e-9 <= empirical[0] and empirical[1] <= hi + 1e-9)
        else:
            section["envelope"] = None
            section["within_envelope"] = None
            section["diagnostics"] = (
                f"not admissible, R = {energy:.6g} >= A = {lower:.6g}"
            )
        return section
    sample_count = 50
    xs = criterion_sample_vectors(
        scenario.family, scenario.comparison_family, count=sample_count, seed=args.seed
    )
    passed = relative_criterion_check(
        scenario.family, scenario.comparison_family, scenario.relative, xs, tols["criterion"]
    )
    envelope = relative_envelope(bounds, scenario.relative, scenario.rule)
    empirical = optimal_bounds(frame_operator(scenario.comparison_family))
    return {
        "kind": "relative",
        "alpha": scenario.relative.alpha,
        "beta": scenario.relative.beta,
        "criterion_passed": passed,
        "verdict": "sampled",
        "sample_count": sample_count,
        "tolerance": tols["criterion"],
        "envelope": [envelope[0], envelope[1]],
        "empirical_bounds": [empirical[0], empirical[1]],
        "within_envelope": bool(
            envelope[0] - 1e-9 <= empirical[0] and empirical[1] <= envelope[1] + 1e-9
        ),
    }


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            writer.writerow([prefix, "" if value is None else value])

    walk("", report)
    sys.stdout.write(buffer.getvalue())


def _load(args):
    scenario = load_scenario(args.scenario)
    if args.nodes is not None:
        raw = json.loads(json.dumps(scenario.raw))
        measure = raw.get("measure", {})
        if measure.get("kind") == "counting":
            measure["count"] = args.nodes
        else:
            measure["nodes"] = args.nodes
        scenario = parse_scenario(raw)
    return scenario


def cmd_analyze(args):
    scenario = _load(args)
    tols = scenario.tolerances
    class_tol = args.tol if args.tol is not None else tols["classification"]
    timings = {} if args.timings else None
    start = time.perf_counter()
    data = frame_operator(scenario.family)
    report_frame = classify(data, class_tol)
    if timings is not None:
        timings["frame_seconds"] = time.perf_counter() - start
    report = {
        "schema_version": scenario.raw.get("schema_version"),
        "scenario": scenario.raw,
        "frame": _frame_section(report_frame),
        "dual": None,
        "reconstruction": None,
        "perturbation": None,
        "timings": timings,
    }
    is_frame = report_frame.classification in _FRAME_KINDS
    if is_frame:
        start = time.perf_counter()
        report["dual"] = _dual_section(scenario, tols["dual"])
        report["reconstruction"] = _reconstruction_section(
            scenario, data, "neumann", tols["reconstruction"], args.seed
        )
        if timings is not None:
            timings["dual_reconstruction_seconds"] = time.perf_counter() - start
    if scenario.perturbation_kind is not None and is_frame:
        report["perturbation"] = _perturbation_section(scenario, args)
    _emit(report, args.format)
    return EXIT_OK if is_frame else EXIT_NOT_FRAME


def cmd_reconstruct(args):
    scenario = _load(args)
    tol = args.tol if args.tol is not None else scenario.tolerances["reconstruction"]
    data = frame_operator(scenario.family)
    section = _reconstruction_section(scenario, data, args.method, tol, args.seed)
    _emit({"scenario": scenario.raw, "reconstruction": section}, args.format)
    return EXIT_OK


def cmd_dual(args):
    scenario = _load(args)
    tol = args.tol if args.tol is not None else scenario.tolerances["dual"]
    section = _dual_section(scenario, tol)
    _emit({"scenario": scenario.raw, "dual": section}, args.format)
    return EXIT_OK


def cmd_perturb(args):
    scenario = _load(args)
    if scenario.perturbation_kind is None:
        print("error: scenario has no perturbation block", file=sys.stderr)
        return EXIT_ERROR
    section = _perturbation_section(scenario, args)
    _emit({"scenario": scenario.raw, "perturbation": section}, args.format)
    return EXIT_OK


def cmd_independence(args):
    scenario = _load(args)
    tol = args.tol if args.tol is not None else scenario.tolerances["positivity"]
    bounded, sigma_min = below_bounded_check(scenario.family, tol)
    independent, kernel_dim = independence_check(scenario.family)
    section = {
        "bounded_below": bounded,
        "sigma_min": sigma_min,
        "independent": independent,
        "kernel_dimension": kernel_dim,
        "tolerance": tol,
    }
    _emit({"scenario": scenario.raw, "independence": section}, args.format)
    return EXIT_OK


def cmd_verify_examples(args):
    tol = args.tol if args.tol is not None else 1e-10
    nodes = args.nodes if args.nodes is not None else 32
    rule = gauss_legendre(0.0, 1.0, nodes)
    family = diagonal_slope_family(rule=rule)
    checks = []

    data = frame_operator(family)
    lower, upper = optimal_bounds(data)
    checks.append(("frame bounds (1/4, 1/3)", abs(lower - 0.25) <= tol and abs(upper - 1.0 / 3.0) <= tol,
                   f"got ({lower!r}, {upper!r})"))
    element = data.element.blocks[0, 0]
    target = np.diag([1.0 / 3.0, 0.25])
    checks.append(("frame operator element diag(1/3, 1/4)",
                   bool(np.max(np.abs(element - target)) <= tol),
                   f"max deviation {np.max(np.abs(element - target)):.3e}"))

    try:
        dual = canonical_dual(family, tol=min(tol, 1e-6))
        expected = np.zeros((2, 1, 1, 2, 2), dtype=complex)
        expected[1, 0, 0] = np.diag([3.0, 2.0 * np.sqrt(3.0)])
        coeff_dev = float(np.max(np.abs(dual.coefficients - expected)))
        checks.append(("canonical dual family diag(3w, 2 sqrt(3) w)", coeff_dev <= tol,
                       f"max coefficient deviation {coeff_dev:.3e}"))
        dual_lo, dual_hi = optimal_bounds(frame_operator(dual))
        checks.append(("dual bounds (3, 4)",
                       abs(dual_lo - 3.0) <= tol and abs(dual_hi - 4.0) <= tol,
                       f"got ({dual_lo!r}, {dual_hi!r})"))
        pair = is_dual_pair(family, dual, tol)
        checks.append(("dual resolution of the identity", pair.resolution_residual <= tol,
                       f"residual {pair.resolution_residual:.3e}"))
    except NotAFrame as exc:
        checks.append(("canonical dual construction", False, str(exc)))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'ok' if ok else 'FAIL'}: {name}" + ("" if ok else f" ({detail})"))
    sys.stdout.flush()
    if failed:
        note = ""
        if tol < 1e-14:
            note = " [requested tolerance is below float64/quadrature resolution (~1e-15)]"
        if nodes < 2:
            note = " [a 1-point rule cannot integrate the quadratic node profile exactly]"
        print(f"verification failed at: {failed[0]}{note}", file=sys.stderr)
        return EXIT_ERROR
    print(f"all {len(checks)} checks passed at tolerance {tol:g}")
    return EXIT_OK


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scenario", help="path to a JSON scenario file")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--tol", type=float, default=None, help="override the governing tolerance")
    shared.add_argument("--nodes", type=int, default=None, help="override the quadrature node count")
    shared.add_argument("--seed", type=int, default=0, help="seed for sampled vectors")
    shared.add_argument("--timings", action="store_true", help="include wall-clock timings in reports")

    parser = _Parser(prog="opframes", description=__doc__)
    parser.add_argument("--version", action="version", version=f"opframes {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    needs_scenario = {
        "analyze": (cmd_analyze, "full frame report for a scenario"),
        "reconstruct": (cmd_reconstruct, "recover a vector from frame-operator data"),
        "dual": (cmd_dual, "canonical dual family and resolution check"),
        "perturb": (cmd_perturb, "perturbation admissibility and bound envelopes"),
        "independence": (cmd_independence, "below-boundedness and synthesis kernel"),
    }
    for name, (handler, help_text) in needs_scenario.items():
        sub = commands.add_parser(name, parents=[shared], help=help_text)
        sub.set_defaults(handler=handler, needs_scenario=True)
    commands.choices["reconstruct"].add_argument(
        "--method", choices=("direct", "neumann"), default="neumann"
    )
    sub = commands.add_parser(
        "verify-examples", parents=[shared], help="re-verify the built-in worked families"
    )
    sub.set_defaults(handler=cmd_verify_examples, needs_scenario=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    if getattr(args, "needs_scenario", False) and not args.scenario:
        print("usage error: this command requires --scenario PATH", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (NotAFrame, SingularFrameOperator) as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return EXIT_NOT_FRAME
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
