"""Operator families and scenario documents shared by the test modules."""

import numpy as np

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import diagonal_slope_family, random_frame_family
from opframes.frames import OperatorFamily
from opframes.quadrature import gauss_legendre

DIAG2 = AlgebraDescriptor("diagonal", 2)
ROOT3 = np.sqrt(3.0)


def rank_deficient_family(rule=None):
    """T_w = diag(w, 0): upper bound only, lower bound exactly zero."""
    if rule is None:
        rule = gauss_legendre(0.0, 1.0, 8)
    coeffs = np.zeros((2, 1, 1, 2, 2), dtype=complex)
    coeffs[1, 0, 0] = np.diag([1.0, 0.0])
    return OperatorFamily.parametric(rule, DIAG2, 1, coeffs)


def ratio_slopes(ratio, scale=1.0):
    """Slopes of a diagonal_slope_family with bounds (ratio * scale / 3, scale / 3)."""
    return (np.sqrt(scale), np.sqrt(ratio * scale))


def tiny_slopes():
    """The worked slopes scaled to bounds (1e-9, 4e-9 / 3): B/A = 4/3 at a tiny scale."""
    root = np.sqrt(4e-9)
    return (root, root * ROOT3 / 2.0)


def pairs(arr):
    """Complex array -> nested lists with innermost [re, im] pairs, as scenarios write them."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def slope_scenario(slopes, coefficient):
    """Scenario document: diagonal_slope_family(slopes) on 32 Gauss-Legendre nodes,
    with the additive perturbation c_w K, K = I, c_w = coefficient."""
    coeffs = pairs(diagonal_slope_family(slopes).coefficients)
    identity = pairs(np.eye(2)[None, None])
    return {
        "schema_version": 1,
        "algebra": {"kind": "diagonal", "dim": 2},
        "module_rank": 1,
        "measure": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0,
                    "rule": "gauss_legendre", "nodes": 32},
        "family": {"form": "parametric", "coefficients": coeffs},
        "perturbation": {
            "kind": "additive",
            "operator": identity,
            "coefficient": {"form": "polynomial", "coefficients": [[coefficient, 0.0]]},
        },
    }


def generated_doc(kind, k, n, nodes, form, seed, perturbation=None):
    """A small scenario of one of the benchmark's forms, from catalog.random_frame_family."""
    descriptor = AlgebraDescriptor(kind, k)
    family = random_frame_family(descriptor, n, gauss_legendre(0.0, 1.0, nodes), seed=seed)
    if form == "sampled":
        blocks = family.flats.reshape(nodes, n, k, n, k).transpose(0, 1, 3, 2, 4)
        family_doc = {"form": "sampled", "operators": pairs(blocks)}
    else:
        family_doc = {"form": "parametric", "coefficients": pairs(family.coefficients)}
    doc = {
        "schema_version": 1,
        "algebra": {"kind": kind, "dim": k},
        "module_rank": n,
        "measure": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0,
                    "rule": "gauss_legendre", "nodes": nodes},
        "family": family_doc,
    }
    if perturbation == "additive":
        doc["perturbation"] = {
            "kind": "additive",
            "operator": pairs(0.1 * family.coefficients[0]),
            "coefficient": {"form": "polynomial", "coefficients": [[0.1, 0.0]]},
        }
    elif perturbation == "relative":
        doc["perturbation"] = {
            "kind": "relative",
            "comparison_family": {"form": "parametric",
                                  "coefficients": pairs(1.01 * family.coefficients)},
            "scale_primal": {"form": "polynomial", "coefficients": [1.0, 0.5]},
            "scale_other": {"form": "polynomial", "coefficients": [1.0, 0.5]},
            "alpha": 0.25,
            "beta": 0.25,
        }
    return doc
