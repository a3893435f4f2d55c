"""One frame rule: every entry point that decides "is a frame" agrees.

The rule is A > tol * B (``frames.require_frame``).  classify, require_frame,
canonical_dual and below_bounded_check take tol from the caller, by default
FRAME_TOL; the reconstructors and additive_admissible decide at
SINGULARITY_RATIO.  The boundary families have A / B = tol * (1 -+ 1e-3):
diagonal slope families with 1 x 1 slots, and mixed full-algebra families
whose 4 x 4 slot mixes every spectral value.  The tiny family is the worked
one scaled to bounds (1e-9, 4e-9/3), well conditioned but below any
absolute tolerance.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from opframes.algebra import SINGULARITY_RATIO, AlgebraDescriptor
from opframes.catalog import diagonal_slope_family
from opframes.cli import main
from opframes.duals import canonical_dual, dual_bounds, is_dual_pair
from opframes.exceptions import NoConvergence, NotAFrame, SingularFrameOperator
from opframes.frames import (
    FRAME_TOL,
    FrameOperatorData,
    OperatorFamily,
    below_bounded_check,
    classify,
    frame_operator,
    independence_check,
    require_frame,
)
from opframes.hilbert_module import ModuleOperator, random_vector
from opframes.perturbation import (
    AdditivePerturbation,
    RelativePerturbation,
    ScalarFamily,
    additive_admissible,
    relative_criterion_check,
)
from opframes.quadrature import counting
from opframes.reconstruction import CHEBYSHEV_BUDGET, reconstruct_chebyshev, reconstruct_direct, reconstruct_neumann
from opframes.scenario import DEFAULT_TOLERANCES

from families import DIAG2, pairs, rank_deficient_family, ratio_slopes, slope_scenario, tiny_slopes

FRAME_KINDS = ("frame", "tight", "parseval")
SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
CLASSIFICATION_TOL = 1e-8   # the scenario default


def accepts(call):
    """False when call() refuses the family as not a frame, True otherwise."""
    try:
        call()
    except NotAFrame:
        return False
    except NoConvergence:
        pass
    return True


def verdicts(family, tol):
    """The frame verdict of every tolerance-taking entry point at tol."""
    data = frame_operator(family)
    return {
        "classify": classify(data, tol).classification in FRAME_KINDS,
        "require_frame": accepts(lambda: require_frame(data, tol)),
        "canonical_dual": accepts(lambda: canonical_dual(family, tol)),
        "below_bounded_check": below_bounded_check(family, tol)[0],
    }


def floor_verdicts(family):
    """The verdicts of the entry points that decide at SINGULARITY_RATIO."""
    data = frame_operator(family)
    y = random_vector(DIAG2, 1, np.random.default_rng(0))
    pert = AdditivePerturbation(ModuleOperator.identity(DIAG2, 1), ScalarFamily.constant(1e-6))
    return {
        "reconstruct_direct": accepts(lambda: reconstruct_direct(data, y)),
        "reconstruct_neumann": accepts(lambda: reconstruct_neumann(data, y, max_iter=3)),
        # tol = 1: any frame is accepted at x_0, with no step at B/A near 1e13
        "reconstruct_chebyshev": accepts(lambda: reconstruct_chebyshev(data, y, tol=1.0)),
        "additive_admissible": accepts(lambda: additive_admissible(family, pert)),
    }


@pytest.mark.parametrize("scale", [1.0, 1e-9])
@pytest.mark.parametrize("tol", [CLASSIFICATION_TOL, 1e-10, SINGULARITY_RATIO])
@pytest.mark.parametrize("side", [-1, 1])
def test_entry_points_agree_at_the_boundary(side, tol, scale):
    family = diagonal_slope_family(ratio_slopes(tol * (1.0 + side * 1e-3), scale))
    got = verdicts(family, tol)
    if tol == SINGULARITY_RATIO:
        got.update(floor_verdicts(family))
    assert got == dict.fromkeys(got, side > 0)


# ---------------------------------------------------------------- mixed full-algebra boundary

FULL2 = AlgebraDescriptor("full", 2)
MIXED_TOLS = [CLASSIFICATION_TOL, 1e-10, 1e-12, SINGULARITY_RATIO]
MIXED_COUNT = 300


def unitary(rng, size):
    """A random unitary matrix: the Q of a complex Gaussian, its phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def mixed_boundary_operators(tol):
    """MIXED_COUNT (M, is_frame) pairs: M = U diag(1, 0.7, 0.4, sqrt r) W with
    random unitary U and W, r = tol (1 -+ 1e-3) alternately.  As the one node
    operator of a family on A^2 over M_2(C), with weight 1, M gives s = M M*,
    whose spectrum is (1, 0.49, 0.16, r) exactly, so A / B = r: a frame at tol
    exactly when r > tol.  The unitaries spread r over every entry of s."""
    rng = np.random.default_rng(int(round(-np.log10(tol))))
    out = []
    for i in range(MIXED_COUNT):
        side = 1 if i % 2 else -1
        values = np.array([1.0, 0.7, 0.4, np.sqrt(tol * (1.0 + side * 1e-3))])
        out.append(((unitary(rng, 4) * values) @ unitary(rng, 4), side > 0))
    return out


def mixed_scenario(operator, tol):
    """Scenario document of the one-node family of ``operator`` on a counting
    measure, classified at tol.  Its reconstruction tolerance is 1, which
    analyze meets at its first iterate: a frame with B/A near 1 / tol would
    otherwise run the Chebyshev step budget, and only the frame verdict is
    compared here."""
    blocks = operator.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # row flattening -> (n, n, k, k)
    return {
        "schema_version": 1,
        "algebra": {"kind": "full", "dim": 2},
        "module_rank": 2,
        "measure": {"kind": "counting", "count": 1},
        "family": {"form": "sampled", "operators": pairs(blocks[None])},
        "tolerances": {"classification": tol, "reconstruction": 1.0},
    }


@pytest.mark.parametrize("tol", MIXED_TOLS)
def test_entry_points_are_right_on_mixed_boundary_families(tol):
    # an eigensolver on the formed s = Y* Y gets A wrong by about eps B, which
    # at tol = 1e-13 flips 35 of these 300 verdicts; the SVD of Y does not
    wrong = []
    for i, (operator, is_frame) in enumerate(mixed_boundary_operators(tol)):
        family = OperatorFamily.from_flats(counting(1), FULL2, 2, operator[None])
        got = verdicts(family, tol)
        if got != dict.fromkeys(got, is_frame):
            wrong.append((i, is_frame, got))
    assert not wrong, f"{len(wrong)} of {MIXED_COUNT} wrong, first {wrong[0]}"


@pytest.mark.parametrize("tol", MIXED_TOLS)
def test_analyze_and_independence_are_right_on_mixed_boundary_families(tol, tmp_path, capsys):
    path = tmp_path / "mixed.json"
    wrong = []
    for i, (operator, is_frame) in enumerate(mixed_boundary_operators(tol)):
        path.write_text(json.dumps(mixed_scenario(operator, tol)))
        code = main(["analyze", "--scenario", str(path)])
        analyzed = json.loads(capsys.readouterr().out)["frame"]["classification"] in FRAME_KINDS
        assert code == (0 if analyzed else 2)
        assert main(["independence", "--scenario", str(path)]) == 0
        bounded = json.loads(capsys.readouterr().out)["independence"]["bounded_below"]
        if (analyzed, bounded) != (is_frame, is_frame):
            wrong.append((i, is_frame, analyzed, bounded))
    assert not wrong, f"{len(wrong)} of {MIXED_COUNT} wrong, first {wrong[0]}"


def test_default_tolerances_agree():
    # A / B = 1e-9 lies between 1e-10 and 1e-8, the defaults these entry points once differed by
    family = diagonal_slope_family(ratio_slopes(1e-9))
    assert DEFAULT_TOLERANCES["classification"] == FRAME_TOL
    assert classify(frame_operator(family)).classification == "bessel_only"
    assert below_bounded_check(family)[0] is False
    with pytest.raises(NotAFrame):
        canonical_dual(family)
    with pytest.raises(NotAFrame):
        dual_bounds(family)


@pytest.mark.parametrize("tol", [CLASSIFICATION_TOL, SINGULARITY_RATIO])
def test_tiny_well_conditioned_family_is_a_frame(tol):
    family = diagonal_slope_family(tiny_slopes())
    lower, upper = require_frame(frame_operator(family), tol)
    assert lower == pytest.approx(1e-9, rel=1e-12)
    assert upper == pytest.approx(4e-9 / 3.0, rel=1e-12)
    got = {**verdicts(family, tol), **floor_verdicts(family)}
    assert all(got.values()), got


def test_rank_deficient_family_is_refused_everywhere():
    family = rank_deficient_family()
    got = {**verdicts(family, SINGULARITY_RATIO), **floor_verdicts(family)}
    assert not any(got.values()), got


@pytest.mark.parametrize(
    "bounds", [(np.nan, 1.0), (0.5, np.nan), (0.5, np.inf), (0.0, 0.0), (-1.0, -0.5)]
)
def test_degenerate_bounds_are_not_a_frame(bounds):
    data = FrameOperatorData(None, None, np.array(bounds), None)
    with pytest.raises(NotAFrame):
        require_frame(data, 1e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan])
def test_tolerance_must_be_positive(tol):
    data = frame_operator(diagonal_slope_family())
    with pytest.raises(ValueError, match="tol must be > 0"):
        require_frame(data, tol)
    with pytest.raises(ValueError, match="tol must be > 0"):
        classify(data, tol)


def tolerance_takers():
    """name -> call(tol) for every library function that takes a tolerance,
    on the worked family, where every finite positive tol is accepted."""
    family = diagonal_slope_family()
    data = frame_operator(family)
    y = random_vector(DIAG2, 1, np.random.default_rng(0))
    additive = AdditivePerturbation(ModuleOperator.identity(DIAG2, 1), ScalarFamily.constant(1e-6))
    one = ScalarFamily.constant(1.0)
    relative = RelativePerturbation(one, one, 0.25, 0.25)
    return {
        "classify": lambda tol: classify(data, tol),
        "below_bounded_check": lambda tol: below_bounded_check(family, tol),
        "independence_check": lambda tol: independence_check(family, tol),
        "is_dual_pair": lambda tol: is_dual_pair(family, canonical_dual(family), tol),
        "reconstruct_neumann": lambda tol: reconstruct_neumann(data, y, tol=tol),
        "reconstruct_chebyshev": lambda tol: reconstruct_chebyshev(data, y, tol=tol),
        "additive_admissible": lambda tol: additive_admissible(family, additive, tol),
        "relative_criterion_check": lambda tol: relative_criterion_check(family, family, relative, tol),
    }


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", list(tolerance_takers()))
def test_every_tolerance_must_be_positive_and_finite(name, tol):
    call = tolerance_takers()[name]
    call(1e-6)
    with pytest.raises(ValueError, match="^tol must be > 0 and finite"):
        call(tol)


@pytest.mark.parametrize("max_iter", [-1, 2.5, True, None])
def test_iteration_cap_must_be_a_count(max_iter):
    data = frame_operator(diagonal_slope_family())
    y = random_vector(DIAG2, 1, np.random.default_rng(0))
    reconstruct_neumann(data, y, max_iter=0, tol=1.0)
    with pytest.raises(ValueError, match="^max_iter must be an integer >= 0"):
        reconstruct_neumann(data, y, max_iter=max_iter)


def test_singular_frame_operator_is_not_a_frame():
    assert issubclass(SingularFrameOperator, NotAFrame)
    data = frame_operator(rank_deficient_family())
    y = random_vector(DIAG2, 1, np.random.default_rng(1))
    for reconstruct in (reconstruct_direct, reconstruct_neumann, reconstruct_chebyshev):
        with pytest.raises(SingularFrameOperator):
            reconstruct(data, y)


def boundary_scenarios():
    """Scenario documents for the CLI sweep, with the verdict each must get."""
    below = slope_scenario(ratio_slopes(CLASSIFICATION_TOL * (1.0 - 1e-3)), 1e-5)
    above = slope_scenario(ratio_slopes(CLASSIFICATION_TOL * (1.0 + 1e-3)), 1e-5)
    relative = json.loads((SCENARIOS / "perturbed_relative.json").read_text())
    relative["family"] = below["family"]
    # an energy margin larger than the frame tolerance must not move the frame verdict
    loose = dict(above, tolerances={"admissibility": 1e-6})
    return {
        "below": (below, False),
        "above": (above, True),
        "tiny": (slope_scenario(tiny_slopes(), np.sqrt(1e-9 / 4.0)), True),
        "below_relative": (relative, False),
        "above_loose_admissibility": (loose, True),
    }


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SCENARIOS.glob("*.json")) + sorted(boundary_scenarios())
)
def test_commands_agree_with_analyze(name, tmp_path, capsys):
    boundary = boundary_scenarios()
    if name in boundary:
        doc, expected = boundary[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
    else:
        path = SCENARIOS / name
        doc, expected = json.loads(path.read_text()), None

    def run(command):
        code = main([command, "--scenario", str(path)])
        return code, capsys.readouterr()

    code, captured = run("analyze")
    is_frame = json.loads(captured.out)["frame"]["classification"] in FRAME_KINDS
    assert expected is None or is_frame == expected
    assert code == (0 if is_frame else 2)
    for command in ("dual", "reconstruct", "perturb"):
        code, captured = run(command)
        if command == "perturb" and doc.get("perturbation") is None:
            assert code == 1, captured.err
        elif is_frame:
            assert code == 0, (command, captured.err)
        else:
            assert code == 2, command
            assert captured.err.startswith("not a frame: ")
    code, captured = run("independence")
    assert code == 0
    assert json.loads(captured.out)["independence"]["bounded_below"] is is_frame


def test_analyze_ends_within_the_step_budget(tmp_path, capsys):
    # B/A = 1e8 at the classification boundary: the a-priori Chebyshev count is
    # about 1.4e5 steps, and the call stops at the fixed budget instead
    path = tmp_path / "above.json"
    path.write_text(json.dumps(boundary_scenarios()["above"][0]))
    start = time.perf_counter()
    code = main(["analyze", "--scenario", str(path)])
    elapsed = time.perf_counter() - start
    section = json.loads(capsys.readouterr().out)["reconstruction"]
    assert code == 0
    assert (section["method"], section["converged"]) == ("chebyshev", False)
    assert section["iterations"] == CHEBYSHEV_BUDGET < section["predicted_iterations"]
    assert elapsed < 5.0, f"took {elapsed:.3f} s"


@pytest.mark.parametrize("tol", [SINGULARITY_RATIO * (1.0 - 1e-3), 1e-14, 1e-300])
def test_tolerance_below_the_floor_is_refused(tol):
    family = diagonal_slope_family()
    data = frame_operator(family)
    calls = (
        lambda: require_frame(data, tol),
        lambda: classify(data, tol),
        lambda: canonical_dual(family, tol),
        lambda: below_bounded_check(family, tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="below the frame-rule floor SINGULARITY_RATIO"):
            call()


def test_commands_refuse_a_classification_tolerance_below_the_floor(tmp_path, capsys):
    # A / B = 3.2e-14 lies between the scenario tolerance and the floor
    doc = slope_scenario(ratio_slopes(3.2e-14), 1e-5)
    doc["tolerances"] = {"classification": 1e-14}
    path = tmp_path / "below_floor.json"
    path.write_text(json.dumps(doc))
    errors = set()
    for command in ("analyze", "dual", "reconstruct", "perturb", "independence"):
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 1, command
        assert captured.out == ""
        errors.add(captured.err)
    assert errors == {
        "error: tol 1e-14 is below the frame-rule floor SINGULARITY_RATIO = 1e-13\n"
    }
