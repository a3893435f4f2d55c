"""Operator families and scenario documents shared by the test modules."""

import numpy as np

from opframes.algebra import AlgebraDescriptor
from opframes.catalog import diagonal_slope_family
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


def slope_scenario(slopes, coefficient):
    """Scenario document: diagonal_slope_family(slopes) on 32 Gauss-Legendre nodes,
    with the additive perturbation c_w K, K = I, c_w = coefficient."""
    coeffs = diagonal_slope_family(slopes).coefficients
    pairs = np.stack([coeffs.real, coeffs.imag], axis=-1).tolist()
    identity = np.stack([np.eye(2), np.zeros((2, 2))], axis=-1)[None, None].tolist()
    return {
        "schema_version": 1,
        "algebra": {"kind": "diagonal", "dim": 2},
        "module_rank": 1,
        "measure": {"kind": "lebesgue_interval", "a": 0.0, "b": 1.0,
                    "rule": "gauss_legendre", "nodes": 32},
        "family": {"form": "parametric", "coefficients": pairs},
        "perturbation": {
            "kind": "additive",
            "operator": identity,
            "coefficient": {"form": "polynomial", "coefficients": [[coefficient, 0.0]]},
        },
    }
