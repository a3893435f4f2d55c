"""Operator frames on finite-dimensional Hilbert C*-modules.

A numerical toolkit for node-sampled families of adjointable operators
over matrix C*-algebras: frame operators and optimal bounds, direct and
iterative reconstruction, canonical dual families, and perturbation
bound envelopes, all backed by complex linear algebra on slot blocks.
"""

__version__ = "0.1.0"

from .algebra import AlgebraDescriptor, AlgebraElement, operator_norm
from .duals import DualPairReport, canonical_dual, dual_bounds, is_dual_pair
from .exceptions import NoConvergence, NotAFrame, SingularFrameOperator
from .frames import (
    FrameOperatorData,
    FrameReport,
    OperatorFamily,
    analysis,
    below_bounded_check,
    classify,
    extremal_vector,
    frame_operator,
    independence_check,
    optimal_bounds,
    synthesis,
)
from .hilbert_module import (
    L2Family,
    ModuleOperator,
    ModuleVector,
    apply,
    inner_product,
    l2_inner_product,
    op_norm,
    random_vector,
    scalar_norm,
)
from .perturbation import (
    AdditivePerturbation,
    RelativePerturbation,
    ScalarFamily,
    additive_admissible,
    additive_envelope,
    perturb_additive,
    relative_criterion_check,
    relative_envelope,
)
from .quadrature import MeasureSpace, QuadratureRule, counting, gauss_legendre, integrate, midpoint
from .reconstruction import ReconstructionResult, reconstruct_chebyshev, reconstruct_direct, reconstruct_neumann
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
