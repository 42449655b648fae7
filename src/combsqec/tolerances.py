"""Every tolerance, with its meaning, and the PSD and completeness tests.

A tolerance is a threshold on a residual, norm, eigenvalue, probability or
objective change; caps and chunk sizes stay with their code.  A relative
tolerance scales with max(1, ||X||_F) (:func:`relative_threshold`).  Both
tests take their threshold as an argument and never accept non-finite
input.  RW is the optimizer's Reimpell-Werner iteration.
"""

import math

import numpy as np

# ChoiOperator, ErrorModel, is_cptp: PSD test, relative to ||X||_F (error rounds: ||sum E^dag E||_F)
PSD_RTOL = 1e-9
# CheckInstrument, Decoder, is_cptp: completeness test; also a completion's largest ||P^2 - P||_F
COMPLETENESS_ATOL = 1e-9
# CodeSpace, verify_recovery: largest ||B^dag B - I||_F of a basis and | ||psi|| - 1 | of a state
UNIT_NORM_ATOL = 1e-10
# verify_recovery: largest ||psi - B B^dag psi|| of a state taken as a codestate
CODESPACE_ATOL = 1e-8
# project_cptp, optimizer input state: largest ||X - X^dag||_F relative to ||X||_F; |Tr rho - 1|
HERMITIAN_RTOL = 1e-8
# validate_comb: largest Frobenius residual of a causality level still valid
CAUSALITY_ATOL = 1e-8
# check_algebraic, check_static_kl: largest ||T - lambda I||_F, relative to the largest branch norm
RESIDUAL_RTOL = 1e-8
# check_info: largest entropy deficit in bits; not calibrated against RESIDUAL_RTOL
MI_TOL_BITS = 1e-7
# largest probability counted as zero: sector and record weights, spectra, random Kraus sums
P_FLOOR = 1e-12
# branch_supports, degenerate branches: Frobenius norm above which a branch carries weight
BRANCH_WEIGHT_FLOOR = 1e-9
# both decoders: smallest Schmidt eigenvalue whose direction a decoder keeps
WEIGHT_CUTOFF = 1e-10
# Schmidt decoder: spread of a block's weighted column norms, relative to max(1, q)
SCHMIDT_UNIFORM_RTOL = 1e-6
# decode: smallest worst recovery fidelity that passes
FIDELITY_GATE = 1.0 - 1e-6
# demo: largest ||C_o E - E C_o'||_F of an error taken to flip a check
FLIP_ATOL = 1e-9
# library Gram-Schmidt: smallest residual norm of a projector column kept
GRAM_SCHMIDT_FLOOR = 1e-8
# optimizer's PSD test of a block; looser, as the RW congruence amplifies rounding by 1/KERNEL_RTOL
PSD_TOL = 1e-8
# optimizer's completeness test of a block family's partial traces; looser, as PSD_TOL
TP_TOL = 1e-7
# project_cptp: largest ||Tr_out X - I||_F at which Dykstra's projection stops
PROJECTION_TOL = 1e-9
# RW congruence: eigenvalue of rho, relative to its largest, up to which it keeps the old channel
KERNEL_RTOL = 1e-10
# coordinate step: smallest rise of its objective that resets the stall count
STALL_MARGIN = 1e-12
# coordinate step: largest fall of the evaluated objective that is still accepted
ACCEPT_MARGIN = 1e-10


def relative_threshold(rtol: float, mat: np.ndarray) -> float:
    """rtol * max(1, ||mat||_F): the threshold of a tolerance relative to ``mat``."""
    return rtol * max(1.0, float(np.linalg.norm(mat)))


def smallest_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of Herm(mat) = (mat + mat^dag) / 2; nan for
    non-finite input, on which the eigensolver can return finite values."""
    with np.errstate(invalid="ignore"):  # inf - inf
        herm = (mat + mat.conj().T) / 2
    if not np.isfinite(herm).all():
        return math.nan
    return float(np.linalg.eigvalsh(herm)[0])


def psd_violation(mat: np.ndarray, tau: float) -> float | None:
    """None when Herm(mat) has no eigenvalue below -tau, else its smallest
    eigenvalue (nan for non-finite input).

    Herm(mat) + tau I has a Cholesky factor exactly when no eigenvalue is
    below -tau, so the eigenvalue is computed only when the factorization
    fails, to decide the boundary case and to name it.  A factorization
    that does not raise on a non-finite entry leaves one on its diagonal.
    """
    shifted = np.conjugate(mat.T, order="C")
    shifted += mat
    shifted *= 0.5
    shifted.reshape(-1)[:: len(shifted) + 1] += tau  # C order: a view of the diagonal
    try:
        if np.isfinite(np.linalg.cholesky(shifted).diagonal()).all():
            return None
    except np.linalg.LinAlgError:
        pass
    del shifted  # before the eigensolver's own copy
    low = smallest_eigenvalue(mat)
    return None if low >= -tau else low


def completeness_residual(total: np.ndarray) -> float:
    """||total - I||_F for a square ``total``, a sum of K^dag K."""
    return float(np.linalg.norm(total - np.eye(len(total))))


def completeness_violation(total: np.ndarray, atol: float) -> float | None:
    """None when the d_in x d_in ``total`` = sum K^dag K is within
    atol * max(1, sqrt(d_in)) of I in Frobenius norm, else its residual (nan
    for non-finite input)."""
    residual = completeness_residual(total)
    return None if residual <= atol * max(1.0, math.sqrt(len(total))) else residual
