"""The package's value classes: plain classes on ``algebra._Frozen``, read-only once built.

Each keeps its constructor (positional order and defaults), refuses assignment
and deletion, and compares either field by field, with an equal hash, or by
identity alone.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from opframes.algebra import AlgebraDescriptor, AlgebraElement
from opframes.duals import DualPairReport, canonical_dual, is_dual_pair
from opframes.frames import FrameOperatorData, FrameReport, classify, frame_operator
from opframes.hilbert_module import L2Family, ModuleOperator, ModuleVector
from opframes.perturbation import AdditivePerturbation, RelativePerturbation, ScalarFamily
from opframes.quadrature import MeasureSpace, QuadratureRule, gauss_legendre
from opframes.reconstruction import ReconstructionResult, reconstruct_direct
from opframes.scenario import Scenario, load_scenario

DIAGONAL = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "diagonal_slope.json"
DIAG2 = AlgebraDescriptor("diagonal", 2)
EMPTY = inspect.Parameter.empty

# Each class's constructor parameters, in order, with their defaults.
SIGNATURES = {
    AlgebraDescriptor: [("kind", EMPTY), ("dim", EMPTY)],
    AlgebraElement: [("descriptor", EMPTY), ("entries", EMPTY)],
    ModuleVector: [("descriptor", EMPTY), ("stack", EMPTY)],
    ModuleOperator: [("descriptor", EMPTY), ("blocks", EMPTY)],
    L2Family: [("rule", EMPTY), ("descriptor", EMPTY), ("samples", EMPTY)],
    MeasureSpace: [("kind", EMPTY), ("a", 0.0), ("b", 0.0), ("count", 0)],
    QuadratureRule: [("space", EMPTY), ("nodes", EMPTY), ("weights", EMPTY)],
    FrameOperatorData: [("descriptor", EMPTY), ("blocks", EMPTY), ("block_eigenvalues", EMPTY),
                        ("block_eigenvectors", EMPTY)],
    FrameReport: [("lower_bound", EMPTY), ("upper_bound", EMPTY), ("classification", EMPTY), ("is_frame", EMPTY),
                  ("spectrum", EMPTY), ("condition", EMPTY), ("tolerance", EMPTY), ("tight_value", None),
                  ("diagnostics", "")],
    DualPairReport: [("is_dual", EMPTY), ("resolution_residual", EMPTY), ("dual_bounds", EMPTY),
                     ("tolerance", EMPTY)],
    AdditivePerturbation: [("operator", EMPTY), ("coefficient", EMPTY)],
    RelativePerturbation: [("scale_primal", EMPTY), ("scale_other", EMPTY), ("alpha", EMPTY), ("beta", EMPTY)],
    ReconstructionResult: [("vector", EMPTY), ("iterations", EMPTY), ("residual_history", EMPTY), ("method", EMPTY),
                           ("relaxation", None), ("contraction", None), ("predicted_iterations", None)],
    Scenario: [("raw", EMPTY), ("descriptor", EMPTY), ("module_rank", EMPTY), ("rule", EMPTY), ("family", EMPTY),
               ("tolerances", EMPTY), ("perturbation", None), ("comparison_family", None)],
}
IDENTITY = {AlgebraElement, ModuleVector, ModuleOperator, L2Family, FrameOperatorData}


def values():
    """One value of each class, built the way the package builds it."""
    scenario = load_scenario(DIAGONAL)
    data = frame_operator(scenario.family)
    y = ModuleVector(DIAG2, np.diag([1.0, 2.0])[None])
    rule = gauss_legendre(0.0, 1.0, 2)
    return {
        AlgebraDescriptor: DIAG2,
        AlgebraElement: AlgebraElement(DIAG2, np.eye(2)),
        ModuleVector: y,
        ModuleOperator: ModuleOperator(DIAG2, np.eye(2)[None, None]),
        L2Family: L2Family(rule, DIAG2, np.stack([np.eye(2)[None]] * 2)),
        MeasureSpace: rule.space,
        QuadratureRule: rule,
        FrameOperatorData: data,
        FrameReport: classify(data),
        DualPairReport: is_dual_pair(scenario.family, canonical_dual(scenario.family)),
        AdditivePerturbation: AdditivePerturbation(ModuleOperator(DIAG2, np.eye(2)[None, None]),
                                                   ScalarFamily.constant(0.1)),
        RelativePerturbation: RelativePerturbation(ScalarFamily.constant(1.0), ScalarFamily.constant(1.0), 0.25, 0.25),
        ReconstructionResult: reconstruct_direct(data, y),
        Scenario: scenario,
    }


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_each_constructor_keeps_its_parameters_and_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[cls]
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in parameters)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_each_value_refuses_assignment_and_deletion(cls):
    value = values()[cls]
    for name, _ in SIGNATURES[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError, match="read-only"):
        value.extra = 1
    assert repr(value).startswith(f"{cls.__name__}({SIGNATURES[cls][0][0]}=")


def test_equal_descriptors_and_measure_spaces_compare_and_hash_equal():
    for first, second, other in [
        (AlgebraDescriptor("full", 3), AlgebraDescriptor("full", 3), AlgebraDescriptor("diagonal", 3)),
        (MeasureSpace("lebesgue_interval", 0.0, 2.0), MeasureSpace("lebesgue_interval", b=2.0),
         MeasureSpace("lebesgue_interval", 0.0, 1.0)),
        (MeasureSpace("counting", count=4), MeasureSpace("counting", 0.0, 0.0, 4), MeasureSpace("counting", count=5)),
    ]:
        assert first == second and hash(first) == hash(second) and len({first, second}) == 1
        assert first != other and not first == other
    assert AlgebraDescriptor("full", 3) != ("full", 3)


def test_rules_compare_by_their_nodes_and_weights_and_have_no_hash():
    assert gauss_legendre(0.0, 1.0, 3) == gauss_legendre(0.0, 1.0, 3) != gauss_legendre(0.0, 1.0, 4)
    with pytest.raises(TypeError):
        hash(gauss_legendre(0.0, 1.0, 3))


@pytest.mark.parametrize("cls", sorted(IDENTITY, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_values_declared_without_field_equality_compare_by_identity(cls):
    first, second = values()[cls], values()[cls]  # built alike, twice
    assert first == first and first != second and not first == second
    assert len({first, second}) == 2


def test_a_frame_operator_record_builds_from_its_eigenvalues_alone():
    # the frame rule's tests hand in only the eigenvalues; the cached spectrum fills in despite the frozen fields
    data = FrameOperatorData(None, None, np.array([[3.0, 1.0]]), None)
    assert data.eigenvalues.tolist() == [3.0, 1.0] and data.eigenvalues is data.eigenvalues
    with pytest.raises(AttributeError, match="read-only"):
        data.eigenvalues = None
