"""Config-driven command line front end.

Subcommands: analyze, reconstruct, dual, perturb, independence,
verify-examples; each accepts only the flags that ``COMMANDS`` lists for
it.  Scenarios are JSON documents (schema version 1);
reports go to standard output as JSON (default) or CSV.  Exit codes:
0 success / frame, 2 family is not a frame, 1 error, 64 usage.  Every
command decides "is a frame" by one rule at the classification tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from itertools import product, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .catalog import diagonal_slope_family
from .duals import canonical_dual, is_dual_pair
from .exceptions import NoConvergence, NotAFrame
from .frames import (
    PARAMETRIC,
    below_bounded_check,
    classify,
    frame_operator,
    independence_check,
    optimal_bounds,
    require_frame,
)
from .hilbert_module import ModuleVector, _from_slots, _to_slots, random_vector, scalar_norm
from .perturbation import (
    additive_envelope,
    additive_admissible,
    perturb_additive,
    relative_criterion_check,
    relative_envelope,
)
from .quadrature import gauss_legendre
from .reconstruction import reconstruct_direct, reconstruct_neumann
from .scenario import ScenarioError, _numeric_block, load_scenario

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
    rng = np.random.default_rng(seed)
    x_true = random_vector(scenario.descriptor, scenario.module_rank, rng, unit=True)
    y_slots = _to_slots(scenario.descriptor, x_true.stack[None]) @ data.blocks
    y = ModuleVector(scenario.descriptor, _from_slots(scenario.descriptor, y_slots)[0])
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


def _within(envelope, empirical):
    """Empirical bounds inside the envelope, with a slack of 1e-9 relative to each end."""
    lo, hi = envelope
    return bool(lo - 1e-9 * abs(lo) <= empirical[0] and empirical[1] <= hi + 1e-9 * abs(hi))


def _perturbation_section(scenario, frame_tol):
    tols = scenario.tolerances
    bounds = require_frame(frame_operator(scenario.family), frame_tol)
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
            section["within_envelope"] = _within((lo, hi), empirical)
        else:
            section["envelope"] = None
            section["within_envelope"] = None
            section["diagnostics"] = (
                f"not admissible, R = {energy:.6g} >= A = {lower:.6g}"
            )
        return section
    passed, margin = relative_criterion_check(
        scenario.family, scenario.comparison_family, scenario.relative, tols["criterion"]
    )
    envelope = relative_envelope(bounds, scenario.relative, scenario.rule)
    empirical = optimal_bounds(frame_operator(scenario.comparison_family))
    return {
        "kind": "relative",
        "alpha": scenario.relative.alpha,
        "beta": scenario.relative.beta,
        "criterion_passed": passed,
        "verdict": "exact",
        "margin": margin,
        "tolerance": tols["criterion"],
        "envelope": [envelope[0], envelope[1]],
        "empirical_bounds": [empirical[0], empirical[1]],
        "within_envelope": _within(envelope, empirical),
    }


def _block_template(shape, level):
    """The indented json layout of a nested list of ``shape`` at ``level``, one %s per leaf."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        text = f"[{inner}{(',' + inner).join([text] * shape[depth])}\n{'  ' * (level + depth)}]"
    return text


def _finite(flat):
    """Whether every number in ``flat`` is finite, read from their sum.

    A sum that overflows on finite numbers answers False, which only sends
    them through the element-by-element path.
    """
    try:
        total = sum(flat)
    except OverflowError:                  # an int beyond float range beside a float
        return False
    return total - total == 0.0


def _write_json(value, level, write):
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` for a subtree at nesting ``level``.

    A finite numeric block is written a row of its outermost axis at a time,
    each row filling one layout template with the reprs of its numbers, as
    json spells them.  Types this encoder does not know, and non-finite
    numbers, go to the stdlib.
    """
    kind = type(value)
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if kind is str:
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif kind is bool:
        write("true" if value else "false")
    elif kind is int or (kind is float and value - value == 0.0):
        write(repr(value))
    elif kind is dict and value and set(map(type, value)) == {str}:
        opening = "{"
        for key in sorted(value):
            write(f"{opening}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], level + 1, write)
            opening = ","
        write(close + "}")
    elif kind is list and value:
        block = _numeric_block(value)
        opening = "["
        if block is not None and _finite(block[1]):
            shape, flat = block
            row = _block_template(shape[1:], level + 1)
            width = len(flat) // shape[0]
            for start in range(0, len(flat), width):
                write(opening + inner + row % tuple(map(repr, flat[start:start + width])))
                opening = ","
        else:
            for item in value:
                write(opening + inner)
                _write_json(item, level + 1, write)
                opening = ","
        write(close + "]")
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", close))


def _write_csv(report, buffer):
    """Write ``field,value`` rows, one per leaf, as csv.writer writes them."""
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            # a numeric block's rows are joined directly where csv.writer would not quote the path
            block = None if any(c in prefix for c in ',"\r\n') else _numeric_block(value)
            if block is not None:
                shape, flat = block
                suffixes = product(*([f"[{i}]" for i in range(d)] for d in shape))
                buffer.write("".join(map("{}{},{}\n".format, repeat(prefix),
                                         map("".join, suffixes), map(repr, flat))))
                return
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            writer.writerow([prefix, "" if value is None else value])

    walk("", report)


class _Parts(list):
    """A report's pieces, joined once: no buffer of several MB grows by realloc."""
    write = list.append


def _emit(report, fmt):
    """Write the report to stdout: json exactly as ``json.dumps(report, indent=2,
    sort_keys=True)`` writes it, or csv.  Nothing is written if encoding fails."""
    parts = _Parts()
    if fmt == "json":
        _write_json(report, 0, parts.write)
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
    is_frame = report_frame.classification in _FRAME_KINDS
    if is_frame:
        start = time.perf_counter()
        report["dual"] = _dual_section(scenario, class_tol, tols["dual"])
        report["reconstruction"] = _reconstruction_section(
            scenario, data, "neumann", tols["reconstruction"], args.seed
        )
        if timings is not None:
            timings["dual_reconstruction_seconds"] = time.perf_counter() - start
        if scenario.perturbation_kind is not None:
            report["perturbation"] = _perturbation_section(scenario, class_tol)
    return report, EXIT_OK if is_frame else EXIT_NOT_FRAME


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
    if scenario.perturbation_kind is None:
        raise ValueError("scenario has no perturbation block")
    section = _perturbation_section(scenario, scenario.tolerances["classification"])
    return {"perturbation": section}, EXIT_OK


def cmd_independence(scenario, args):
    tol = _tol(args, scenario, "classification")
    bounded, sigma_min = below_bounded_check(scenario.family, tol)
    independent, kernel_dim = independence_check(scenario.family)
    return {"independence": {
        "bounded_below": bounded,
        "sigma_min": sigma_min,
        "independent": independent,
        "kernel_dimension": kernel_dim,
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


# Each flag is defined once; a command accepts only the flags it lists below.
_FLAGS = {
    "--scenario": dict(required=True, help="path to a JSON scenario file"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--nodes": dict(type=int, default=None, help="override the quadrature node count"),
    "--tol": dict(type=_tolerance, default=None, help="override the governing tolerance"),
    "--seed": dict(type=int, default=0, help="seed for the reconstruction test vector"),
    "--timings": dict(action="store_true", help="include wall-clock timings in reports"),
    "--method": dict(choices=("direct", "neumann"), default="neumann"),
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


def build_parser():
    parser = _Parser(prog="opframes", description=__doc__)
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
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
