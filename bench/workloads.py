"""The benchmark's workloads: scenario generation, requests and output checks.

Every workload is made from a seed with ``catalog.random_frame_family`` on a
Gauss-Legendre rule over [0, 1] and written as a schema-1 scenario file.  The
program receives only that file; the seed stays here.  The expected frame
bounds are computed with plain numpy from the generated node operators (the
eigenvalues of sum_i w_i M_i M_i*), never through ``opframes.frames``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

BOUND_RTOL = 1e-9
RECOVERY_TOL = 1e-9
# ``analyze`` reconstructs with the Neumann step 1/B, whose residual contracts
# by q = 1 - A/B per iteration.  With B/A <= 7 it reaches the default 1e-12
# within 180 of its 200 iterations; random full-algebra draws reach B/A ~ 9,
# where it can stop unconverged, so each workload draws frames inside this limit.
MAX_CONDITION = 7.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sampled-echo",
            "sampled full-algebra family, k=4 n=4 N=128, one analyze: JSON load, parse and the"
            " scenario echo in the report do nearly all the work, the numerics very little",
            {"algebra": "full", "k": 4, "n": 4, "nodes": 128, "degree": 2, "form": "sampled",
             "session": ["analyze"]},
        ),
        Workload(
            "diagonal-parametric",
            "parametric degree-2 diagonal family, k=16 n=4 N=512, one analyze: family build,"
            " frame operator, dual pair check and the rule carry the numerics; the input is small",
            {"algebra": "diagonal", "k": 16, "n": 4, "nodes": 512, "degree": 2,
             "form": "parametric", "session": ["analyze"]},
        ),
        Workload(
            "relative-resample",
            "diagonal k=4 n=2 family written at 32 nodes, analyze --nodes 512 with a relative"
            " perturbation: the sampled criterion loop is most of the call and the file parses twice",
            {"algebra": "diagonal", "k": 4, "n": 2, "nodes": 32, "resample_nodes": 512,
             "degree": 2, "form": "parametric", "perturbation": "relative",
             "comparison_noise": 0.05, "scales": [1.0, 0.5], "alpha": 0.25, "beta": 0.25,
             "session": ["analyze --nodes 512 --seed <seed>"]},
        ),
        Workload(
            "dense-session",
            "full k=6 n=6 N=256 family with an additive perturbation of energy A/4; a session of"
            " analyze, direct reconstruct, CSV dual and independence reaches the SVD and solve paths",
            {"algebra": "full", "k": 6, "n": 6, "nodes": 256, "degree": 2, "form": "parametric",
             "perturbation": "additive", "energy_share": 0.25,
             "session": ["analyze", "reconstruct --method direct", "dual --format csv",
                         "independence"]},
        ),
    )
}


@dataclass(frozen=True)
class Call:
    """One ``opframes.cli.main`` invocation and how its stdout is checked."""

    argv: list
    check: str                      # analyze | reconstruct | dual_csv | independence


@dataclass
class Plan:
    """Generated inputs of one workload: the calls of one request and the references."""

    calls: list
    reference: dict


# ---------------------------------------------------------------- generation


def _rule(nodes):
    x, w = leggauss(nodes)
    return 0.5 * x + 0.5, 0.5 * w


def _flats_from_coefficients(coeffs, nodes):
    deg, n, _, k, _ = coeffs.shape
    flat_coeffs = coeffs.transpose(0, 1, 3, 2, 4).reshape(deg, n * k, n * k)
    powers = nodes[:, None] ** np.arange(deg)[None, :]
    return np.tensordot(powers, flat_coeffs, axes=1)


def reference_bounds(flats, weights):
    """Extreme eigenvalues of sum_i w_i M_i M_i*, by plain numpy."""
    scaled = flats * np.sqrt(weights)[:, None, None]
    tall = scaled.transpose(0, 2, 1).conj().reshape(-1, flats.shape[1])
    spectrum = np.linalg.eigvalsh(tall.conj().T @ tall)
    return float(spectrum[0]), float(spectrum[-1]), spectrum


def _pairs(arr):
    arr = np.asarray(arr, dtype=np.complex128)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _scenario_doc(kind, k, n, nodes, family_doc):
    return {
        "schema_version": 1,
        "algebra": {"kind": kind, "dim": k},
        "module_rank": n,
        "measure": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0,
                    "rule": "gauss_legendre", "nodes": nodes},
        "family": family_doc,
    }


def _draw(p, seed):
    """The first family drawn for ``seed`` whose frame operator, on the rule the
    program will use, has B/A <= MAX_CONDITION; its coefficients and spectrum."""
    from opframes.algebra import AlgebraDescriptor
    from opframes.catalog import random_frame_family
    from opframes.quadrature import gauss_legendre

    descriptor = AlgebraDescriptor(p["algebra"], p["k"])
    rule = gauss_legendre(0.0, 1.0, p["nodes"])
    x, w = _rule(p.get("resample_nodes", p["nodes"]))
    for attempt in range(64):
        family = random_frame_family(descriptor, p["n"], rule, degree=p["degree"],
                                     seed=seed if attempt == 0 else [seed, attempt])
        coeffs = np.asarray(family.coefficients)
        lower, upper, spectrum = reference_bounds(_flats_from_coefficients(coeffs, x), w)
        if upper <= MAX_CONDITION * lower:
            return coeffs, lower, upper, spectrum
    raise RuntimeError(f"no frame with B/A <= {MAX_CONDITION} in 64 draws for seed {seed}")


def _noise(rng, shape, diagonal):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if diagonal:
        z = z * np.eye(shape[-1])
    return z


def generate(name, seed, workdir):
    """Write the scenario for ``name`` and ``seed`` under ``workdir``; return its Plan."""
    p = WORKLOADS[name].params
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}-{seed}.json"
    coeffs, lower, upper, spectrum = _draw(p, seed)
    k, n, nodes = p["k"], p["n"], p["nodes"]
    diagonal = p["algebra"] == "diagonal"

    if p["form"] == "sampled":
        flats = _flats_from_coefficients(coeffs, _rule(nodes)[0])
        blocks = flats.reshape(nodes, n, k, n, k).transpose(0, 1, 3, 2, 4)
        family_doc = {"form": "sampled", "operators": _pairs(blocks)}
    else:
        family_doc = {"form": "parametric", "coefficients": _pairs(coeffs)}
    doc = _scenario_doc(p["algebra"], k, n, nodes, family_doc)

    rng = np.random.default_rng([seed, 1])
    check_nodes = p.get("resample_nodes", nodes)
    reference = {"lower_bound": lower, "upper_bound": upper, "spectrum_len": len(spectrum),
                 "dual_coefficient_rows": coeffs.size * 2}
    extra = []

    if p.get("perturbation") == "relative":
        noise = _noise(rng, coeffs.shape, diagonal)
        noise *= p["comparison_noise"] * np.linalg.norm(coeffs) / np.linalg.norm(noise)
        doc["perturbation"] = {
            "kind": "relative",
            "comparison_family": {"form": "parametric", "coefficients": _pairs(coeffs + noise)},
            "scale_primal": {"form": "polynomial", "coefficients": list(p["scales"])},
            "scale_other": {"form": "polynomial", "coefficients": list(p["scales"])},
            "alpha": p["alpha"],
            "beta": p["beta"],
        }
        extra = ["--nodes", str(check_nodes), "--seed", str(seed)]
    elif p.get("perturbation") == "additive":
        direction = _noise(rng, (n, n, k, k), diagonal)
        norm = float(np.linalg.norm(direction.transpose(0, 2, 1, 3).reshape(n * k, n * k), 2))
        c = float(np.sqrt(p["energy_share"] * lower) / norm)
        doc["perturbation"] = {
            "kind": "additive",
            "operator": _pairs(direction),
            "coefficient": {"form": "polynomial", "coefficients": [[c, 0.0]]},
        }
        reference["additive_energy"] = c * c * norm * norm

    path.write_text(json.dumps(doc), encoding="utf-8")
    base = ["--scenario", str(path)] + extra
    calls = []
    for command in p["session"]:
        verb = command.split()[0]
        if verb == "analyze":
            calls.append(Call(["analyze"] + base, "analyze"))
        elif verb == "reconstruct":
            calls.append(Call(["reconstruct", "--method", "direct"] + base, "reconstruct"))
        elif verb == "dual":
            calls.append(Call(["dual", "--format", "csv"] + base, "dual_csv"))
        elif verb == "independence":
            calls.append(Call(["independence"] + base, "independence"))
    return Plan(calls, reference)


# ---------------------------------------------------------------- checks


def _close(got, want):
    return got is not None and abs(got - want) <= BOUND_RTOL * abs(want)


def _check_analyze(report, ref, errors):
    frame = report["frame"]
    for key in ("lower_bound", "upper_bound"):
        if not _close(frame[key], ref[key]):
            errors.append(f"frame.{key} {frame[key]!r} != reference {ref[key]!r}")
    if frame["classification"] != "frame":
        errors.append(f"classification {frame['classification']!r} != 'frame'")
    if len(frame["spectrum"]) != ref["spectrum_len"]:
        errors.append(f"frame.spectrum has {len(frame['spectrum'])} entries,"
                      f" expected {ref['spectrum_len']}")
    if not (report["dual"] or {}).get("is_dual"):
        errors.append("dual.is_dual is not true")
    _check_reconstruction(report["reconstruction"] or {}, errors)
    pert = report["perturbation"]
    if pert is None:
        return
    if pert["kind"] == "relative" and not pert["criterion_passed"]:
        errors.append("perturbation.criterion_passed is not true")
    if pert["kind"] == "additive":
        if not pert["admissible"]:
            errors.append("perturbation.admissible is not true")
        if not _close(pert["energy"], ref["additive_energy"]):
            errors.append(f"perturbation.energy {pert['energy']!r} != {ref['additive_energy']!r}")
    if not pert["within_envelope"]:
        errors.append("perturbation.within_envelope is not true")


def _check_reconstruction(section, errors):
    if not section.get("converged"):
        errors.append("reconstruction.converged is not true")
    elif not section["recovery_error"] < RECOVERY_TOL:
        errors.append(f"reconstruction.recovery_error {section['recovery_error']!r} >= {RECOVERY_TOL}")


def _check_dual_csv(text, ref, errors):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["field", "value"] or any(len(r) != 2 for r in rows):
        errors.append("dual CSV does not parse as field,value rows")
        return
    values = dict(rows[1:])
    if values.get("dual.is_dual") != "True":
        errors.append("dual.is_dual is not True in the CSV")
    want = (1.0 / ref["upper_bound"], 1.0 / ref["lower_bound"])
    for i, target in enumerate(want):
        got = values.get(f"dual.bounds[{i}]")
        if got is None or not _close(float(got), target):
            errors.append(f"dual.bounds[{i}] {got!r} != reference {target!r}")
    coefficient_rows = sum(1 for r in rows if r[0].startswith("dual.coefficients["))
    if coefficient_rows != ref["dual_coefficient_rows"]:
        errors.append(f"dual CSV has {coefficient_rows} coefficient rows,"
                      f" expected {ref['dual_coefficient_rows']}")


def _check_independence(report, ref, errors):
    section = report["independence"]
    if not section["bounded_below"]:
        errors.append("independence.bounded_below is not true")
    if not _close(section["sigma_min"] ** 2, ref["lower_bound"]):
        errors.append(f"independence.sigma_min^2 {section['sigma_min'] ** 2!r}"
                      f" != lower bound {ref['lower_bound']!r}")


def check_call(call, exit_code, stdout, reference):
    """Errors found in one call's exit code and stdout; empty when it is correct."""
    errors = []
    if exit_code != 0:
        return [f"{call.argv[0]}: exit code {exit_code}, expected 0"]
    try:
        if call.check == "dual_csv":
            _check_dual_csv(stdout, reference, errors)
        else:
            report = json.loads(stdout)
            if call.check == "analyze":
                _check_analyze(report, reference, errors)
            elif call.check == "reconstruct":
                _check_reconstruction(report["reconstruction"], errors)
            else:
                _check_independence(report, reference, errors)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"malformed output: {type(exc).__name__}: {exc}")
    return [f"{call.argv[0]}: {e}" for e in errors]
