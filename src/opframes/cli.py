"""Config-driven command line front end.

Subcommands: analyze, reconstruct, dual, perturb, independence,
verify-examples; each accepts only the flags that ``COMMANDS`` lists for
it.  Scenarios are JSON documents (schema version 1);
reports go to standard output as JSON (default) or CSV.  Exit codes:
0 success / frame, 2 family is not a frame, 1 error, 64 usage.  The CLI
decides nothing itself: every verdict, margin and envelope in a scenario
report ("is a frame" at the classification tolerance, admissibility,
envelope containment) is a library result, copied into it.

Every report starts with the scenario's echo, ``Scenario.raw``, which
writes each number as the file does: a token (bytes) as it reads, and a
table of numbers (a ``TokenBlock``, recognised when the file is read) from
its text.  Numbers the commands compute are written as their reprs, as
``json.dumps`` writes them; the tables among them (the spectrum, the dual
coefficients) stay float arrays until they are written.  The writers have
two numeric routes: a TokenBlock and a float array are each written from
one layout template built for the whole block and filled with its leaves'
texts.  A float array's leaves that are +0.0 in every row of its outermost
axis, such as the off-diagonal entries of a diagonal family's dual, are
written into that template once, and only the other leaves are repr'd;
the bytes are those of a leaf-by-leaf writer.  Any list is a plain
container, written item by item.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .catalog import diagonal_slope_family
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
from .hilbert_module import ModuleVector, random_vector, scalar_norm
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
from .scenario import ScenarioError, TokenBlock, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FRAME = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _pairs(arr):
    """Complex ndarray -> its float view, shape (..., 2), with innermost [re, im] pairs."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(arr.shape + (2,))


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
    rng = np.random.default_rng(seed)
    x_true = random_vector(scenario.descriptor, scenario.module_rank, rng, unit=True)
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


def _block_template(shape, level):
    """The indented json layout of a nested list of ``shape`` at ``level``, one %s per leaf."""
    text = "%s"
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        text = f"[{inner}{(',' + inner).join([text] * shape[depth])}\n{'  ' * (level + depth)}]"
    return text


def _array_rows(value):
    """An array's leaves, row by row of its outermost axis, as the writers fill
    a row template with them: ``(slots, kept)``.

    ``slots`` has one text per leaf position of a row: "0.0" where a float64
    leaf is +0.0 in every row (all its bits 0, so -0.0 keeps its own text),
    "%s" elsewhere.  They are written into the template once, and ``kept``,
    a 2-d array of the remaining leaves, is repr'd to fill its %s.
    """
    rows = value.reshape(math.prod(value.shape[:1]), math.prod(value.shape[1:]))
    zero = np.zeros(rows.shape[1], bool)
    if rows.dtype == np.float64:
        zero = ~rows.view(np.uint64).any(axis=0)
    slots = tuple(np.where(zero, "0.0", "%s").tolist())
    return slots, rows[:, ~zero] if zero.any() else rows


def _write_block(shape, rows, level, write, slots=None):
    """Write a numeric block at nesting ``level`` a row of its outermost axis at a
    time, each row a tuple of its leaves' texts filling one layout template:
    bytes for tokens, else str.  A float array's ``slots`` (``_array_rows``)
    are written into the template first, its always-zero leaves once."""
    row = _block_template(shape[1:], level + 1)
    if slots is not None:
        row %= slots
    token_row = row.encode()
    opening, inner = "[", "\n" + "  " * (level + 1)
    for texts in rows:
        text = row % texts if slots is not None else (token_row % texts).decode()
        write(opening + inner + text)
        opening = ","
    write("\n" + "  " * level + "]")


def _write_json(value, write):
    """Write ``json.dumps(value, indent=2, sort_keys=True)``, an ndarray written as
    its ``tolist()``.

    A number token (bytes, from the scenario) is written as it reads.  A
    TokenBlock and a finite float array are written by ``_write_block`` from
    one layout template, filled with the tokens or with the reprs of the
    array's rows; the array's leaves that are +0.0 in every row are written
    into the template once, as "0.0", the text their repr would give, so
    the bytes do not change.  Any other array is written as its nested
    lists, so NaN and Infinity come out as the stdlib writes them, and a
    list is written item by item.  Types this encoder does not know, and non-finite
    numbers, go to the stdlib.  Open containers are kept on a stack, not in
    Python frames, so any depth the scenario decoder reads can be written.
    """
    stack = []                             # (items left, closing text) of each open container
    while True:
        kind = type(value)
        depth = len(stack)
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth
        if kind is str:
            write(encode_basestring_ascii(value))
        elif value is None:
            write("null")
        elif kind is bool:
            write("true" if value else "false")
        elif kind is int or (kind is float and value - value == 0.0):
            write(repr(value))
        elif kind is bytes:
            write(value.decode())
        elif kind is TokenBlock:
            rows = zip(*[iter(value.tokens())] * math.prod(value.shape[1:]))  # its tokens row by row
            _write_block(value.shape, rows, depth, write)
        elif kind is dict and value and set(map(type, value)) == {str}:
            keys = sorted(value)
            marks = chain("{", repeat(","))
            openings = [f"{mark}{inner}{encode_basestring_ascii(key)}: " for mark, key in zip(marks, keys)]
            stack.append((zip(openings, map(value.__getitem__, keys)), close + "}"))
        elif kind is list and value:
            openings = chain(["[" + inner], repeat("," + inner))
            stack.append((zip(openings, value), close + "]"))
        elif kind is np.ndarray:
            if value.ndim and value.size and value.dtype.kind == "f" and np.isfinite(value).all():
                slots, kept = _array_rows(value)
                rows = (tuple(map(repr, row)) for row in kept.tolist())
                _write_block(value.shape, rows, depth, write, slots)
            else:                          # non-finite, empty or not floats: as its nested lists
                value = value.tolist()
                continue
        else:
            write(json.dumps(value, indent=2, sort_keys=True).replace("\n", close))
        while stack:                       # the next value, after closing every finished container
            items, closing = stack[-1]
            opening, value = next(items, (None, None))
            if opening is not None:
                write(opening)
                break
            write(closing)
            stack.pop()
        else:
            return


def _csv_block(prefix, shape, texts, slots=None):
    """The csv rows ``prefix[i0]...[im],text`` of a numeric block of ``shape``, as
    csv.writer writes them, from one template built axis by axis.

    ``texts`` are its leaves' texts in order: all str, or all bytes (tokens),
    which fill the template encoded and are decoded once.  A float array's
    ``slots`` (``_array_rows``) are written into the rows of one index of
    its outermost axis before that axis and the prefix are, so its
    always-zero leaves are written once and the prefix's % is escaped for
    the one fill that follows.  The path is quoted exactly when csv.writer
    quotes ``prefix``, since the indices never need it; a leaf's text never
    does.
    """
    field = io.StringIO()
    csv.writer(field, lineterminator="\n").writerow([prefix, ""])
    head = field.getvalue()[:-2]           # the prefix as csv.writer writes it
    tail = '"' if head != prefix else ""   # it quoted the prefix: the path's closing quote
    text = "\0" + tail + ",%s\n"
    for size in reversed(shape[1:]):       # "\0" marks where the next outer index goes
        text = "".join([text.replace("\0", f"\0[{i}]") for i in range(size)])
    if slots is not None:
        text %= slots
    for size in shape[:1]:
        text = "".join([text.replace("\0", f"\0[{i}]") for i in range(size)])
    text = text.replace("\0", head.removesuffix(tail).replace("%", "%%"))
    if texts and type(texts[0]) is bytes:  # surrogatepass: a key may hold any str
        return (text.encode("utf-8", "surrogatepass") % tuple(texts)).decode("utf-8", "surrogatepass")
    return text % tuple(texts)


def _write_csv(report, buffer):
    """Write ``field,value`` rows, one per leaf, as csv.writer writes them; an
    ndarray is written as its ``tolist()``.

    A TokenBlock and an array are written by ``_csv_block`` from one
    template, filled with the tokens or with the reprs of the array's
    leaves, but for the always-zero leaves of a float array (``_array_rows``),
    which are written into the template once; a list or tuple is walked item by item, and a token is written
    as it reads.
    """
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value"])

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif type(value) is TokenBlock:
            buffer.write(_csv_block(prefix, value.shape, value.tokens()))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        elif type(value) is np.ndarray:
            slots, kept = _array_rows(value)
            buffer.write(_csv_block(prefix, value.shape, list(map(repr, kept.ravel().tolist())), slots))
        elif type(value) is bytes:
            writer.writerow([prefix, value.decode()])
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
    """The type of a flag that takes an integer >= ``least``: ``--seed`` the seeds
    numpy's ``default_rng`` takes (0 up), ``--nodes`` the node counts of a rule (1 up)."""
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
