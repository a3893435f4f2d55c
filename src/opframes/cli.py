"""Config-driven command line front end.

Subcommands: analyze, reconstruct, dual, perturb, independence,
verify-examples; each accepts only the flags that ``COMMANDS`` lists for
it.  A report, the scenario's echo (``Scenario.raw``) and the command's
sections, goes to standard output as JSON (default) or CSV, written by
``codec``.  Exit codes: 0 success / frame, 2 family is not a frame, 1
error, 64 usage.  The CLI decides nothing: every verdict ("is a frame" at
the classification tolerance, admissibility, envelope containment),
margin and envelope in a report is a library result, copied into it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import __version__
from .catalog import diagonal_slope_family
from .codec import _pairs, _Parts, _write_csv, _write_json
from .duals import canonical_dual, is_dual_pair
from .exceptions import NoConvergence, NotAFrame
from .frames import (
    KERNEL_TOL,
    PARAMETRIC,
    below_bounded_check,
    classify,
    frame_operator,
    independence_check,
    optimal_bounds,
    require_frame,
)
from .hilbert_module import ModuleVector, scalar_norm, uniform_vector
from .perturbation import (
    AdditivePerturbation,
    additive_envelope,
    additive_admissible,
    perturb_additive,
    relative_criterion_check,
    relative_envelope,
    within_envelope,
)
from .quadrature import gauss_legendre
from .reconstruction import reconstruct_chebyshev, reconstruct_direct, reconstruct_neumann
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FRAME = 2
EXIT_USAGE = 64
# What --help tells a user; the module docstring is written for developers.
_DESCRIPTION = ("Analyze an integral operator frame on a Hilbert C*-module, given as a JSON scenario: frame bounds,"
                " reconstruction, the canonical dual, perturbation and independence, reported as JSON or CSV on"
                f" standard output. Exit codes: {EXIT_OK} success, {EXIT_NOT_FRAME} the family is not a frame,"
                f" {EXIT_ERROR} error, {EXIT_USAGE} usage error.")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _frame_section(report):
    return {
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "classification": report.classification,
        "tight_value": report.tight_value,
        "spectrum": np.array(report.spectrum, dtype=float),
        "condition": report.condition if np.isfinite(report.condition) else None,
        "tolerance": report.tolerance,
        "diagnostics": report.diagnostics,
    }


def _dual_section(scenario, frame_tol, tol):
    dual = canonical_dual(scenario.family, frame_tol)
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
    x_true = uniform_vector(scenario.descriptor, scenario.module_rank, seed, unit=True)
    y = ModuleVector.from_slots(scenario.descriptor, x_true.slots @ data.blocks)
    section = {"method": method, "tolerance": tol, "seed": seed}
    try:
        if method == "direct":
            result = reconstruct_direct(data, y)
        elif method == "neumann":
            result = reconstruct_neumann(data, y, tol=tol)
        else:
            result = reconstruct_chebyshev(data, y, tol=tol)
    except NoConvergence as exc:
        section.update(converged=False, iterations=exc.iterations,
                       predicted_iterations=exc.predicted_iterations, final_residual=exc.residual)
        return section
    section.update(converged=True, iterations=result.iterations, predicted_iterations=result.predicted_iterations,
                   relaxation=result.relaxation, contraction=result.contraction,
                   final_residual=result.final_residual, recovery_error=scalar_norm(result.vector - x_true))
    return section


def _perturbation_section(scenario, frame_tol):
    """The perturbation report: each verdict, margin and envelope as the library returns it."""
    tols = scenario.tolerances
    pert = scenario.perturbation
    bounds = require_frame(frame_operator(scenario.family), frame_tol)
    if isinstance(pert, AdditivePerturbation):
        tol = tols["admissibility"]
        admissible, margin, energy, lower = additive_admissible(scenario.family, pert, tol)
        other = perturb_additive(scenario.family, pert)
        envelope = additive_envelope(lower, bounds[1], energy) if admissible else None
        section = {
            "kind": "additive",
            "energy": energy,
            "lower_bound": lower,
            "admissible": admissible,
            "margin": margin,
            "criterion": "perturbation energy below lower frame bound (R < A)",
            "tolerance": tol,
        }
        if not admissible:
            section["diagnostics"] = f"not admissible, R = {energy:.6g} >= A = {lower:.6g}"
    else:
        tol = tols["criterion"]
        passed, margin = relative_criterion_check(scenario.family, scenario.comparison_family, pert, tol)
        other = scenario.comparison_family
        envelope = relative_envelope(bounds, pert, scenario.rule)
        section = {
            "kind": "relative",
            "alpha": pert.alpha,
            "beta": pert.beta,
            "criterion_passed": passed,
            "verdict": "exact",
            "margin": margin,
            "tolerance": tol,
        }
    empirical = optimal_bounds(frame_operator(other))
    section["empirical_bounds"] = list(empirical)
    section["envelope"] = None if envelope is None else list(envelope)
    section["within_envelope"] = None if envelope is None else within_envelope(envelope, empirical)
    return section


def _emit(report, fmt):
    """Write the report to stdout: json exactly as ``json.dumps(report, indent=2,
    sort_keys=True)`` writes it, or csv.  Nothing is written if encoding fails."""
    parts = _Parts()
    if fmt == "json":
        _write_json(report, parts.write)
        parts.write("\n")
    else:
        _write_csv(report, parts)
    sys.stdout.write("".join(parts))


def _tol(args, scenario, name):
    """``--tol`` when given, else the scenario's tolerance ``name``."""
    return args.tol if args.tol is not None else scenario.tolerances[name]


def cmd_analyze(scenario, args):
    tols = scenario.tolerances
    class_tol = _tol(args, scenario, "classification")
    timings = {} if args.timings else None
    start = time.perf_counter()
    data = frame_operator(scenario.family)
    report_frame = classify(data, class_tol)
    if timings is not None:
        timings["frame_seconds"] = time.perf_counter() - start
    report = {
        "schema_version": scenario.raw.get("schema_version"),
        "frame": _frame_section(report_frame),
        "dual": None,
        "reconstruction": None,
        "perturbation": None,
        "timings": timings,
    }
    if report_frame.is_frame:
        start = time.perf_counter()
        report["dual"] = _dual_section(scenario, class_tol, tols["dual"])
        report["reconstruction"] = _reconstruction_section(
            scenario, data, "chebyshev", tols["reconstruction"], args.seed
        )
        if timings is not None:
            timings["dual_reconstruction_seconds"] = time.perf_counter() - start
        if scenario.perturbation is not None:
            report["perturbation"] = _perturbation_section(scenario, class_tol)
    return report, EXIT_OK if report_frame.is_frame else EXIT_NOT_FRAME


def cmd_reconstruct(scenario, args):
    data = frame_operator(scenario.family)
    require_frame(data, scenario.tolerances["classification"])
    tol = _tol(args, scenario, "reconstruction")
    section = _reconstruction_section(scenario, data, args.method, tol, args.seed)
    return {"reconstruction": section}, EXIT_OK


def cmd_dual(scenario, args):
    frame_tol = scenario.tolerances["classification"]
    return {"dual": _dual_section(scenario, frame_tol, _tol(args, scenario, "dual"))}, EXIT_OK


def cmd_perturb(scenario, args):
    if scenario.perturbation is None:
        raise ValueError("scenario has no perturbation block")
    section = _perturbation_section(scenario, scenario.tolerances["classification"])
    return {"perturbation": section}, EXIT_OK


def cmd_independence(scenario, args):
    tol = _tol(args, scenario, "classification")
    bounded, sigma_min = below_bounded_check(scenario.family, tol)
    independent, kernel_dim = independence_check(scenario.family, KERNEL_TOL)
    return {"independence": {
        "bounded_below": bounded,
        "sigma_min": sigma_min,
        "independent": independent,
        "kernel_dimension": kernel_dim,
        "kernel_tolerance": KERNEL_TOL,
        "tolerance": tol,
    }}, EXIT_OK


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
    element = data.flat  # the element itself, since n = 1
    target = np.diag([1.0 / 3.0, 0.25])
    checks.append(("frame operator element diag(1/3, 1/4)",
                   bool(np.max(np.abs(element - target)) <= tol),
                   f"max deviation {np.max(np.abs(element - target)):.3e}"))

    dual = canonical_dual(family)
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


def _tolerance(text):
    """A ``--tol`` value: a positive finite float, the domain of the scenario's tolerances."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _integer(least):
    """The type of a flag that takes an integer >= ``least``: ``--seed`` any seed of
    ``hilbert_module.uniform_vector`` (0 up, however large), ``--nodes`` the node counts of a rule (1 up)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


# Each flag is defined once; a command accepts only the flags it lists below.
_FLAGS = {
    "--scenario": dict(required=True, help="path to a JSON scenario file"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--nodes": dict(type=_integer(1), default=None, help="override the quadrature node count"),
    "--tol": dict(type=_tolerance, default=None, help="override the governing tolerance"),
    "--seed": dict(type=_integer(0), default=0, help="seed for the reconstruction test vector"),
    "--timings": dict(action="store_true", help="include wall-clock timings in reports"),
    "--method": dict(choices=("direct", "neumann", "chebyshev"), default="chebyshev"),
}

_SCENARIO_FLAGS = ("--scenario", "--format", "--nodes")

# command -> (handler, help text, the flags it reads).  A command that reads
# --scenario gets (scenario, args) and returns (report sections, exit code).
COMMANDS = {
    "analyze": (cmd_analyze, "full frame report for a scenario",
                _SCENARIO_FLAGS + ("--tol", "--seed", "--timings")),
    "reconstruct": (cmd_reconstruct, "recover a vector from frame-operator data",
                    _SCENARIO_FLAGS + ("--tol", "--seed", "--method")),
    "dual": (cmd_dual, "canonical dual family and resolution check", _SCENARIO_FLAGS + ("--tol",)),
    "perturb": (cmd_perturb, "perturbation admissibility and bound envelopes", _SCENARIO_FLAGS),
    "independence": (cmd_independence, "below-boundedness and synthesis kernel",
                     _SCENARIO_FLAGS + ("--tol",)),
    "verify-examples": (cmd_verify_examples, "re-verify the built-in worked families",
                        ("--tol", "--nodes")),
}


@functools.cache
def build_parser():
    """The command-line parser, built once per process: it is configuration only,
    and parsing leaves it as it was."""
    parser = _Parser(prog="opframes", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"opframes {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_USAGE
    try:
        if "scenario" not in args:
            return args.handler(args)
        scenario = load_scenario(args.scenario, args.nodes)
        report, code = args.handler(scenario, args)
        report, scenario = {"scenario": scenario.raw, **report}, None  # free its arrays before the text
        _emit(report, args.format)
        return code
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NotAFrame as exc:
        print(f"not a frame: {exc}", file=sys.stderr)
        return EXIT_NOT_FRAME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
