"""The tolerance module: where thresholds live, its two acceptance tests,
and each merged threshold at each of its call sites.

Boundary tests set the measured quantity to half and to twice the
threshold, and to nan: half is accepted, twice and nan are not.
"""

import ast
import math
import pathlib
import sys

import numpy as np
import pytest

import combsqec
from combsqec.combs import ChoiOperator
from combsqec.conditions import (
    Decoder,
    branch_supports,
    check_algebraic,
    check_info,
    verify_recovery,
)
from combsqec.library import _tp_normalize
from combsqec.model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    check_op,
    error_op,
)
from combsqec.optimize import ent_fidelity, initial_state, project_cptp
from combsqec.tensor import LabeledOperator, _spectrum_bits
from combsqec.tolerances import (
    BRANCH_WEIGHT_FLOOR,
    COMPLETENESS_ATOL,
    HERMITIAN_RTOL,
    P_FLOOR,
    PSD_RTOL,
    UNIT_NORM_ATOL,
    completeness_violation,
    psd_violation,
)

from conftest import random_unitary, rng_for, unchecked_errors

PACKAGE = pathlib.Path(combsqec.__file__).parent
SUFFIXES = ("_TOL", "_ATOL", "_RTOL", "_BITS", "_FLOOR", "_CUTOFF", "_MARGIN", "_GATE")

# (multiple of the threshold, accepted)
BOUNDARY = [(0.5, True), (2.0, False), (math.nan, False)]
# (multiple of a floor, counted as nonzero)
FLOOR = [(0.5, False), (2.0, True), (math.nan, False)]


def _assigned_names(tree: ast.Module) -> list[tuple[int, str]]:
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        for target in targets:
            names += [(n.lineno, n.id) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def test_only_the_tolerance_module_defines_tolerances():
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for line, name in _assigned_names(ast.parse(path.read_text(encoding="utf-8")))
        if name.endswith(SUFFIXES)
    ]
    assert offenders == []


def test_every_tolerance_states_its_meaning():
    path = PACKAGE / "tolerances.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    constants = _assigned_names(ast.parse("\n".join(lines)))
    assert len(constants) == 21
    silent = [name for line, name in constants if not lines[line - 2].startswith("# ")]
    assert silent == []


def test_tolerance_module_imports_only_numpy_and_the_stdlib():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "numpy" in imported
    assert imported - {"numpy"} <= sys.stdlib_module_names


# ----------------------------------------------------------------------
# the two acceptance tests
# ----------------------------------------------------------------------


def with_lowest(low: float) -> np.ndarray:
    """A 4 x 4 Hermitian matrix of spectrum (3, 2, 1, low)."""
    u = random_unitary(rng_for(41), 4)
    return (u * np.array([3.0, 2.0, 1.0, low])) @ u.conj().T


def with_nan(mat: np.ndarray, at=(0, 1)) -> np.ndarray:
    out = np.array(mat, dtype=np.complex128)
    out[at] = math.nan
    return out


def diag_gap(x: float, dim: int = 2) -> np.ndarray:
    """diag(sqrt(1 + x), 1, ...): its square sums to I + x |0><0|; nan for nan."""
    out = np.eye(dim, dtype=np.complex128)
    out[0, 0] = math.sqrt(1.0 + x) if not math.isnan(x) else math.nan
    return out


class TestPsdViolation:
    def test_threshold(self):
        tau = 1e-9
        assert psd_violation(with_lowest(-0.5 * tau), tau) is None
        assert psd_violation(with_lowest(-2 * tau), tau) == pytest.approx(-2 * tau)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("at", [(0, 0), (0, 3), (3, 1)])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_fails(self, value, at):
        mat = np.eye(4, dtype=np.complex128)
        mat[at] = value
        assert psd_violation(mat, 1e-9) is not None

    def test_input_is_not_changed(self):
        mat = with_lowest(-1.0)
        before = mat.copy()
        psd_violation(mat, 1e-9)
        assert np.array_equal(mat, before)


class TestCompletenessViolation:
    @pytest.mark.parametrize("dim", [1, 4])
    def test_threshold_scales_with_sqrt_input_dim(self, dim):
        atol = 1e-9
        bound = atol * max(1.0, math.sqrt(dim))
        assert completeness_violation(diag_gap(0.5 * bound, dim) ** 2, atol) is None
        assert completeness_violation(diag_gap(2 * bound, dim) ** 2, atol) == pytest.approx(
            2 * bound
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_fails(self, value):
        total = np.eye(2, dtype=np.complex128)
        total[1, 0] = value
        assert completeness_violation(total, 1e-9) is not None


# ----------------------------------------------------------------------
# PSD_RTOL: ChoiOperator, ErrorModel
# ----------------------------------------------------------------------

SUBS = (("a", 2), ("b", 2))


def psd_boundary(factor: float) -> np.ndarray:
    if math.isnan(factor):
        return with_nan(with_lowest(1.0))
    return with_lowest(-factor * PSD_RTOL * math.sqrt(14.0))


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_psd_rtol_in_choi_operator(factor, accepted):
    build = lambda: ChoiOperator(LabeledOperator(SUBS, SUBS, psd_boundary(factor)), ("a",), ("b",))
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match="not PSD"):
            build()


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_psd_rtol_in_error_model(factor, accepted):
    # sum E^dag E = diag(1 + x, 1); the scale is its Frobenius norm, about sqrt(2)
    x = factor * PSD_RTOL * math.sqrt(2.0)
    build = lambda: ErrorModel(((error_op(0, diag_gap(x)),),))
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match="not trace non-increasing"):
            build()


# ----------------------------------------------------------------------
# COMPLETENESS_ATOL: CheckInstrument, Decoder
# ----------------------------------------------------------------------


def complete_boundary(factor: float, dim: int = 2) -> float:
    return factor * COMPLETENESS_ATOL * math.sqrt(dim)


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_completeness_atol_in_check_instrument(factor, accepted):
    build = lambda: CheckInstrument({"o": check_op(1, diag_gap(complete_boundary(factor)))})
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match="not complete"):
            build()


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_completeness_atol_in_decoder(factor, accepted):
    # Kraus sqrt(1 + y) |0><0|: P = (1 + y) |0><0|, so ||P^2 - P||_F = y (1 + y)
    y = factor * COMPLETENESS_ATOL
    kraus = np.zeros((2, 2), dtype=np.complex128)
    kraus[0, 0] = math.sqrt(1.0 + y)
    build = lambda: Decoder(output_dim=2, input_dim=2, kraus={"m": (kraus,)})
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match="not a projector"):
            build()


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_completeness_atol_in_decoder_projector(factor, accepted):
    # sum D^dag D = diag(1 + y, 1, ..., 1): ||P^2 - P||_F = y (1 + y), unscaled
    # by the dim, so y = 2 COMPLETENESS_ATOL fails at 8 dims too
    y = factor * COMPLETENESS_ATOL
    corner = np.zeros((8, 8), dtype=np.complex128)
    corner[0, 0] = math.sqrt(1.0 + y)
    build = lambda: Decoder(
        output_dim=8,
        input_dim=8,
        kraus={"m": (np.diag([0.0] + [1.0] * 7).astype(np.complex128), corner)},
    )
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match="not a projector"):
            build()


# ----------------------------------------------------------------------
# UNIT_NORM_ATOL: CodeSpace, verify_recovery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_unit_norm_atol_in_codespace(factor, accepted):
    basis = diag_gap(factor * UNIT_NORM_ATOL)[:, :1]
    if accepted:
        CodeSpace(2, basis)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            CodeSpace(2, basis)


def two_outcome_instance(c: float):
    """One qubit, codeword |0>, one check round with outcomes a and b where
    C_b = c I, a memory that keeps the outcome, and no error."""
    inst = CheckInstrument({
        "a": check_op(1, math.sqrt(1.0 - c * c) * np.eye(2)),
        "b": check_op(1, c * np.eye(2)),
    })
    update = MemoryUpdate(({("a", ""): "a", ("b", ""): "b"},))
    code = StrategicCode(CodeSpace(2, np.eye(2)[:, :1]), Interrogator(({"": inst},), update))
    errors = ErrorModel(tuple((error_op(r, np.eye(2)),) for r in range(2)))
    return code, errors


IDENTITY_DECODER = Decoder(
    output_dim=2, input_dim=2, kraus={"a": (np.eye(2),), "b": (np.eye(2),)}
)


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_unit_norm_atol_in_verify_recovery(factor, accepted):
    code, errors = two_outcome_instance(0.5)
    state = diag_gap(2 * factor * UNIT_NORM_ATOL)[:, 0]  # norm sqrt(1 + x) = 1 + x / 2
    verify = lambda: verify_recovery(code, errors, IDENTITY_DECODER, [state])
    if accepted:
        verify()
    else:
        with pytest.raises(ValueError, match="not normalized"):
            verify()


# ----------------------------------------------------------------------
# P_FLOOR: check_info, verify_recovery, entropies, random Kraus lists
# ----------------------------------------------------------------------


@pytest.mark.parametrize("factor, counted", FLOOR[:2])
def test_p_floor_in_check_info(factor, counted):
    # the weight of sector b is c^2
    code, errors = two_outcome_instance(math.sqrt(factor * P_FLOOR))
    report = check_info(code, errors)
    assert report.detail["weights"]["b"] == pytest.approx(factor * P_FLOOR)
    assert ("b" in report.detail["deficit_bits"]) == counted


@pytest.mark.parametrize("factor, counted", FLOOR[:2])
def test_p_floor_in_verify_recovery(factor, counted):
    code, errors = two_outcome_instance(math.sqrt(factor * P_FLOOR))
    report = verify_recovery(code, errors, IDENTITY_DECODER, [np.array([1.0, 0.0])])
    assert [r.memory for r in report.records] == (["a", "b"] if counted else ["a"])


@pytest.mark.parametrize("factor, counted", FLOOR)
def test_p_floor_in_entropies(factor, counted):
    v = factor * P_FLOOR
    bits = _spectrum_bits(np.array([1.0, v]))
    assert (bits > 0.0) == counted


def test_p_floor_in_verify_recovery_drops_a_nan_weight():
    # a nan weight never reaches the floor: the walk rejects the round
    code, errors = two_outcome_instance(0.5)
    poisoned = unchecked_errors(
        ((error_op(0, with_nan(np.eye(2), (0, 0))),), errors.kraus_rounds[1])
    )
    with pytest.raises(ValueError, match="overflow at error round 0: .* weight is nan"):
        verify_recovery(code, poisoned, IDENTITY_DECODER, [np.array([1.0, 0.0])])


@pytest.mark.parametrize("factor, counted", FLOOR)
def test_p_floor_in_random_kraus_normalization(factor, counted):
    # sum K^dag K = diag(1, v): its smallest eigenvalue is v, which must count
    ops = [np.diag([1.0, math.sqrt(factor * P_FLOOR)]).astype(np.complex128)]
    if counted:
        (out,) = _tp_normalize(ops)
        assert np.allclose(out.conj().T @ out, np.eye(2))
    else:
        with pytest.raises(ValueError):
            _tp_normalize(ops)


# ----------------------------------------------------------------------
# HERMITIAN_RTOL: project_cptp, the optimizer's input state
# ----------------------------------------------------------------------


def skewed(base: np.ndarray, t: float) -> np.ndarray:
    """``base`` plus an upper corner entry that makes ||X - X^dag||_F = t."""
    out = np.array(base, dtype=np.complex128)
    out[0, -1] += t / math.sqrt(2.0)
    return out


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_hermitian_rtol_in_project_cptp(factor, accepted):
    x = LabeledOperator(SUBS, SUBS, skewed(np.eye(4) / 2, factor * HERMITIAN_RTOL))
    if accepted:
        project_cptp(x, ("a",))
    else:
        with pytest.raises(ValueError, match="must be Hermitian"):
            project_cptp(x, ("a",))


IDENTITY_ERRORS = ErrorModel(((error_op(0, np.eye(2)),),))


@pytest.mark.parametrize("factor, accepted", BOUNDARY)
def test_hermitian_rtol_in_input_state(factor, accepted):
    state = initial_state(IDENTITY_ERRORS, 2)
    rho = skewed(np.eye(2) / 2, factor * HERMITIAN_RTOL)
    if accepted:
        ent_fidelity(state, IDENTITY_ERRORS, rho)
    else:
        with pytest.raises(ValueError, match="must be Hermitian"):
            ent_fidelity(state, IDENTITY_ERRORS, rho)


@pytest.mark.parametrize("factor, accepted", BOUNDARY[:2])
def test_hermitian_rtol_in_input_state_trace(factor, accepted):
    state = initial_state(IDENTITY_ERRORS, 2)
    rho = np.diag([0.5 + factor * HERMITIAN_RTOL, 0.5])
    if accepted:
        ent_fidelity(state, IDENTITY_ERRORS, rho)
    else:
        with pytest.raises(ValueError, match="unit trace"):
            ent_fidelity(state, IDENTITY_ERRORS, rho)


# ----------------------------------------------------------------------
# BRANCH_WEIGHT_FLOOR: branch_supports, check_algebraic's degenerate branches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("factor, carries", FLOOR[:2])
def test_branch_weight_floor_in_branch_supports(factor, carries):
    # branch b is C_b |0> = c |0>, of Frobenius norm c
    code, errors = two_outcome_instance(factor * BRANCH_WEIGHT_FLOOR)
    assert (("b",) in branch_supports(code, errors)[(0, 0)]) == carries


@pytest.mark.parametrize("factor, carries", FLOOR[:2])
def test_branch_weight_floor_in_degenerate_branches(factor, carries):
    code, errors = two_outcome_instance(factor * BRANCH_WEIGHT_FLOOR)
    degenerate = check_algebraic(code, errors).detail["degenerate_branches"]
    assert (("b", ("b",)) in degenerate) == (not carries)


def test_branch_weight_floor_drops_a_nan_branch():
    # a nan branch never reaches the floor: the walk rejects the round
    code, errors = two_outcome_instance(0.5)
    poisoned = unchecked_errors(
        ((error_op(0, with_nan(np.eye(2), (0, 0))),), errors.kraus_rounds[1])
    )
    with pytest.raises(ValueError, match="overflow at error round 0: .* weight is nan"):
        branch_supports(code, poisoned)
