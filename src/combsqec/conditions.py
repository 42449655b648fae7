"""Correctability conditions and decoder synthesis.

Two equivalent checkers decide whether a strategic code corrects an error
model: an algebraic one testing that composed Kraus products act as scalars
on the codespace, and an information-theoretic one testing that a reference
system stays uncorrelated with the outcome and error registers.  Both come
with a constructive decoder built from their respective proofs, plus an
end-to-end recovery verifier.

Throughout, ``K_{e,m,o}`` is the composed operator of error sequence e,
final memory m and outcome sequence o (see :func:`combsqec.model.compose_K`),
``K_{e,m}`` its sum over the outcome sequences reaching m, and B the
codespace basis matrix.  The final environment leg is contracted inside
every K-dagger-K product; decoder synthesis requires it to be trivial since
a decoder cannot act on the environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .model import (
    ErrorModel,
    StrategicCode,
    TRAJECTORY_CAP,
    compose_K,
    enumerate_trajectories,
)
from .tensor import LabeledOperator, dense_cap, entropy, herm_eig

__all__ = [
    "ConditionReport",
    "JointState",
    "Decoder",
    "RecoveryRecord",
    "RecoveryReport",
    "branch_supports",
    "check_algebraic",
    "check_corollary_all_outcomes",
    "check_static_kl",
    "joint_state",
    "check_info",
    "synth_decoder_algebraic",
    "synth_decoder_schmidt",
    "verify_recovery",
]

RESIDUAL_RTOL = 1e-8
MI_TOL_BITS = 1e-7
P_FLOOR = 1e-12
WEIGHT_CUTOFF = 1e-10
SCHMIDT_CUTOFF = 1e-11


# ----------------------------------------------------------------------
# report and data types
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Verdict of a correctability checker.

    ``witness`` pinpoints the worst violation: for the algebraic checkers a
    ``(i, j, e, e_prime, memory, outcomes)`` tuple, for the static case
    ``(i, j, a, b)`` Kraus-pair indices, for the entropic checker the final
    memory state.  ``detail`` carries the checker's full table (lambda
    matrices or entropy deficits).
    """

    correctable: bool
    worst_residual: float
    tolerance: float
    witness: tuple | None
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "detail", dict(self.detail))
        if self.correctable != (self.worst_residual <= self.tolerance):
            raise ValueError(
                "verdict must equal (worst residual <= tolerance); got "
                f"correctable={self.correctable}, residual={self.worst_residual}, "
                f"tolerance={self.tolerance}"
            )


@dataclass(frozen=True, eq=False)
class JointState:
    """Reference-register joint states of the entropic condition.

    For each final memory m the amplitude tensor ``amplitudes[m]`` has shape
    (output_dim, n_outcomes, n_errors, code_dim) holding K_{e,m,o} B; the
    stored ``rho_rme[m]`` is the unnormalized joint state of reference,
    outcome register and error register with index order (i, o, e), carrying
    the 1/code_dim prefactor of the maximally entangled reference.
    """

    code_dim: int
    output_dim: int
    memories: tuple[str, ...]
    error_sequences: tuple[tuple[int, ...], ...]
    outcome_sequences: Mapping[str, tuple[tuple[str, ...], ...]]
    amplitudes: Mapping[str, npt.NDArray[np.complex128]]
    rho_rme: Mapping[str, npt.NDArray[np.complex128]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "outcome_sequences",
            {m: tuple(v) for m, v in self.outcome_sequences.items()},
        )
        object.__setattr__(self, "amplitudes", dict(self.amplitudes))
        object.__setattr__(self, "rho_rme", dict(self.rho_rme))

    def weight(self, memory: str) -> float:
        """P(m): trace of the unnormalized joint block."""
        return float(np.real(np.trace(self.rho_rme[memory])))

    def weights(self) -> dict[str, float]:
        return {m: self.weight(m) for m in self.memories}

    def _split(self, memory: str) -> tuple[int, int]:
        amps = self.amplitudes[memory]
        return self.code_dim, amps.shape[1] * amps.shape[2]

    def rho_r(self, memory: str) -> npt.NDArray[np.complex128]:
        """Unnormalized reference marginal."""
        k, n = self._split(memory)
        rho = self.rho_rme[memory].reshape(k, n, k, n)
        return np.einsum("ixjx->ij", rho)

    def rho_me(self, memory: str) -> npt.NDArray[np.complex128]:
        """Unnormalized outcome-and-error-register marginal."""
        k, n = self._split(memory)
        rho = self.rho_rme[memory].reshape(k, n, k, n)
        return np.einsum("ixiy->xy", rho)


@dataclass(frozen=True, eq=False)
class Decoder:
    """Per-memory recovery Kraus lists with a completion projector.

    ``kraus[m]`` maps the check-round output space back into the ambient
    codespace; ``completion[m]`` is the projector onto the subspace the
    listed operators do not cover, so completion + sum of D^dag D = I.
    """

    output_dim: int
    input_dim: int
    kraus: Mapping[str, tuple[npt.NDArray[np.complex128], ...]]
    completion: Mapping[str, npt.NDArray[np.complex128]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kraus", {m: tuple(v) for m, v in self.kraus.items()})
        object.__setattr__(self, "completion", dict(self.completion))
        if set(self.kraus) != set(self.completion):
            raise ValueError("kraus and completion must cover the same memories")
        eye = np.eye(self.input_dim)
        for m in self.kraus:
            total = self.completion[m].astype(np.complex128).copy()
            if total.shape != (self.input_dim, self.input_dim):
                raise ValueError(f"completion for memory {m!r} has wrong shape")
            proj_err = np.linalg.norm(total @ total - total)
            for d in self.kraus[m]:
                if d.shape != (self.output_dim, self.input_dim):
                    raise ValueError(f"decoder Kraus for memory {m!r} has wrong shape")
                total = total + d.conj().T @ d
            if np.linalg.norm(total - eye) > 1e-8 * max(1.0, math.sqrt(self.input_dim)):
                raise ValueError(
                    f"decoder for memory {m!r} violates completeness: "
                    "completion + sum of D^dag D != I"
                )
            if proj_err > 1e-8:
                raise ValueError(f"completion for memory {m!r} is not a projector")

    def memories(self) -> tuple[str, ...]:
        return tuple(sorted(self.kraus))


@dataclass(frozen=True)
class RecoveryRecord:
    state_index: int
    memory: str
    weight: float
    fidelity: float


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Per-state, per-memory recovery outcomes of a decoder."""

    worst_fidelity: float
    records: tuple[RecoveryRecord, ...]
    total_weights: tuple[float, ...]

    def weight_table(self, state_index: int) -> dict[str, float]:
        return {
            r.memory: r.weight
            for r in self.records
            if r.state_index == state_index
        }


# ----------------------------------------------------------------------
# composed-Kraus bookkeeping shared by the checkers
# ----------------------------------------------------------------------


class _Composed:
    """All K_{e,m,o} B blocks of an instance, grouped by memory."""

    def __init__(self, code: StrategicCode, errors: ErrorModel):
        if errors.rounds != code.interrogator.rounds:
            raise ValueError(
                f"error model spans {errors.rounds} rounds, "
                f"interrogator {code.interrogator.rounds}"
            )
        self.basis = code.codespace.basis
        self.code_dim = code.codespace.dim
        self.sequences = tuple(errors.sequences())
        if len(self.sequences) > TRAJECTORY_CAP:
            raise ValueError(
                f"{len(self.sequences)} error sequences exceed the cap {TRAJECTORY_CAP}"
            )
        self.env_dim = errors.env_dim(errors.rounds)
        self.out_dim = errors.q_out_dim(errors.rounds) * self.env_dim
        grouped = enumerate_trajectories(code.interrogator)
        self.memories = tuple(sorted(grouped))
        self.outcomes: dict[str, tuple[tuple[str, ...], ...]] = {
            m: tuple(t.outcomes for t in grouped[m]) for m in self.memories
        }
        # blocks[m][io, ie] = K_{e,m,o} B, shape (out_dim, code_dim)
        self.blocks: dict[str, np.ndarray] = {}
        for m in self.memories:
            outs = self.outcomes[m]
            arr = np.empty(
                (len(outs), len(self.sequences), self.out_dim, self.code_dim),
                dtype=np.complex128,
            )
            for io, o in enumerate(outs):
                for ie, e in enumerate(self.sequences):
                    k_op = compose_K(errors, code.interrogator, e, m, o)
                    arr[io, ie] = k_op.data @ self.basis
            arr.flags.writeable = False
            self.blocks[m] = arr

    def aggregated(self, m: str) -> np.ndarray:
        """K_{e,m} B = sum over outcome sequences, shape (n_e, out, k)."""
        return self.blocks[m].sum(axis=0)

    def scale(self) -> float:
        """Largest composed-operator norm encountered."""
        worst = 1.0
        for m in self.memories:
            for block in (self.blocks[m].reshape(-1, self.out_dim, self.code_dim),
                          self.aggregated(m)):
                for mat in block:
                    worst = max(worst, float(np.linalg.norm(mat, ord=2)))
        return worst


def _composed(code: StrategicCode, errors: ErrorModel) -> _Composed:
    """The composed table of (code, errors), built once per pair.

    The table is kept on ``errors`` next to the code it was built for and
    rebuilt when a different code arrives.  Reuse is sound because both
    inputs are frozen, compare by identity, and hold only arrays that
    :class:`LabeledOperator` and :class:`CodeSpace` have made read-only;
    the table's own blocks are read-only too.
    """
    cached = getattr(errors, "_composed", None)
    if cached is None or cached[0] is not code:
        cached = (code, _Composed(code, errors))
        object.__setattr__(errors, "_composed", cached)
    return cached[1]


def branch_supports(
    code: StrategicCode, errors: ErrorModel, weight_floor: float = 1e-9
) -> dict[tuple[int, ...], list[tuple[str, ...]]]:
    """Outcome sequences whose K_{e,m,o} B carries weight, per error sequence."""
    comp = _composed(code, errors)
    return {
        e: sorted(
            o
            for m in comp.memories
            for io, o in enumerate(comp.outcomes[m])
            if np.linalg.norm(comp.blocks[m][io, ie]) > weight_floor
        )
        for ie, e in enumerate(comp.sequences)
    }


def _scalar_fit(t_mat: np.ndarray) -> tuple[complex, float, tuple[int, int]]:
    """Least-squares scalar, residual and worst element of T vs lambda*I."""
    k = t_mat.shape[0]
    lam = complex(np.trace(t_mat) / k)
    dev = t_mat - lam * np.eye(k)
    flat = int(np.argmax(np.abs(dev)))
    j, i = divmod(flat, k)
    return lam, float(np.linalg.norm(dev)), (int(i), int(j))


# ----------------------------------------------------------------------
# Checker 1: the algebraic condition
# ----------------------------------------------------------------------


def _algebraic_report(
    comp: _Composed, tol: float | None, per_outcome_left: bool
) -> ConditionReport:
    """Shared sweep for check_algebraic and the all-outcomes corollary.

    ``per_outcome_left`` selects the corollary's symmetric form, where the
    e' side uses the same single outcome sequence instead of the aggregate.
    """
    scale = comp.scale()
    tolerance = RESIDUAL_RTOL * scale if tol is None else float(tol)
    worst = -1.0
    witness: tuple | None = None
    lambdas: dict[str, np.ndarray] = {}
    degenerate: list[tuple[str, tuple[str, ...]]] = []
    n_e = len(comp.sequences)
    for m in comp.memories:
        agg = comp.aggregated(m)
        blocks = comp.blocks[m]
        lam_m = np.zeros((n_e, n_e), dtype=np.complex128)
        for io, o in enumerate(comp.outcomes[m]):
            if np.max(np.abs(blocks[io])) < WEIGHT_CUTOFF:
                degenerate.append((m, o))
            for a, ep in enumerate(comp.sequences):
                left = (blocks[io, a] if per_outcome_left else agg[a]).conj().T
                for b, e in enumerate(comp.sequences):
                    t_mat = left @ blocks[io, b]
                    lam, res, (i, j) = _scalar_fit(t_mat)
                    lam_m[a, b] += lam
                    if res > worst:
                        worst = res
                        witness = (i, j, e, ep, m, o)
        lambdas[m] = (lam_m + lam_m.conj().T) / 2.0
    return ConditionReport(
        correctable=bool(worst <= tolerance),
        worst_residual=float(worst),
        tolerance=tolerance,
        witness=witness,
        detail={
            "lambda": lambdas,
            "memories": comp.memories,
            "error_sequences": comp.sequences,
            "degenerate_branches": tuple(degenerate),
            "scale": scale,
        },
    )


def check_algebraic(
    code: StrategicCode, errors: ErrorModel, tol: float | None = None
) -> ConditionReport:
    """Algebraic correctability check.

    For each (e', e, m, o) the codespace matrix
    T = B^dag K_{e',m}^dag K_{e,m,o} B is reduced to its least-squares
    scalar lambda = Tr(T) / code_dim and the residual ||T - lambda I||_F;
    the e' side aggregates outcome sequences, matching the condition's
    asymmetric form.  Correctable iff every residual is within tolerance
    (default ``1e-8`` times the largest composed-operator norm).  The worst
    witness is reported in lexicographic sweep order.

    ``detail`` holds:

    * ``"lambda"``: per final memory m the matrix Lambda_m, whose (e', e)
      entry sums lambda over the outcome sequences reaching m.  It is the
      Gram matrix of the K_{e,m} B, so it is Hermitian up to rounding and
      stored symmetrized; decoder synthesis diagonalizes it.
    * ``"memories"`` and ``"error_sequences"``: the final memory states and
      the error sequences, in the order indexing ``"lambda"``.
    * ``"degenerate_branches"``: the (m, o) branches whose composed
      operators vanish on the codespace.
    * ``"scale"``: the largest composed-operator norm.
    """
    return _algebraic_report(_composed(code, errors), tol, per_outcome_left=False)


def check_corollary_all_outcomes(
    code: StrategicCode, errors: ErrorModel, tol: float | None = None
) -> ConditionReport:
    """Symmetric per-outcome form, valid when memory stores all outcomes.

    Requires the memory update to be injective on outcome sequences; on
    such instances the verdict agrees with :func:`check_algebraic`.
    """
    comp = _composed(code, errors)
    for m, outcomes in comp.outcomes.items():
        if len(outcomes) > 1:
            raise ValueError(
                f"memory update is not injective: {len(outcomes)} outcome "
                f"sequences share final memory {m!r}; use check_algebraic"
            )
    return _algebraic_report(comp, tol, per_outcome_left=True)


def check_static_kl(
    codespace,
    kraus: Sequence[npt.NDArray[np.complex128] | LabeledOperator],
    tol: float | None = None,
) -> ConditionReport:
    """Static (zero-round) condition on a plain Kraus list.

    Tests that B^dag E_a^dag E_b B is a scalar for every operator pair.
    """
    basis = codespace.basis
    mats = [
        np.asarray(k.data if isinstance(k, LabeledOperator) else k, dtype=np.complex128)
        for k in kraus
    ]
    if not mats:
        raise ValueError("static check needs at least one Kraus operator")
    for mat in mats:
        if mat.shape != (codespace.ambient_dim, codespace.ambient_dim):
            raise ValueError(
                f"static Kraus must be square on the ambient space, got {mat.shape}"
            )
    scale = max(1.0, max(float(np.linalg.norm(m, ord=2)) for m in mats))
    tolerance = RESIDUAL_RTOL * scale if tol is None else float(tol)
    k = codespace.dim
    n = len(mats)
    lam = np.zeros((n, n), dtype=np.complex128)
    worst = -1.0
    witness: tuple | None = None
    blocks = [m @ basis for m in mats]
    for a in range(n):
        left = blocks[a].conj().T
        for b in range(n):
            t_mat = left @ blocks[b]
            lam_ab, res, (i, j) = _scalar_fit(t_mat)
            lam[a, b] = lam_ab
            if res > worst:
                worst = res
                witness = (i, j, a, b)
    return ConditionReport(
        correctable=bool(worst <= tolerance),
        worst_residual=float(worst),
        tolerance=tolerance,
        witness=witness,
        detail={"lambda": lam, "scale": scale, "code_dim": k},
    )


# ----------------------------------------------------------------------
# Checker 2: the information-theoretic condition
# ----------------------------------------------------------------------


def joint_state(code: StrategicCode, errors: ErrorModel) -> JointState:
    """Joint reference-register states, one unnormalized block per memory.

    The reference holds one half of a maximally entangled state over the
    codespace; outcome and error registers record which branch occurred.
    Register order is fixed as (reference, outcome, error).
    """
    comp = _composed(code, errors)
    k = comp.code_dim
    amplitudes: dict[str, np.ndarray] = {}
    rho_rme: dict[str, np.ndarray] = {}
    for m in comp.memories:
        blocks = comp.blocks[m]           # (n_o, n_e, out, k)
        n_o, n_e = blocks.shape[0], blocks.shape[1]
        if k * n_o * n_e > dense_cap():
            raise ValueError(
                f"joint-state register dim {k * n_o * n_e} for memory {m!r} "
                f"exceeds the cap {dense_cap()}"
            )
        amps = np.transpose(blocks, (2, 0, 1, 3))       # (out, n_o, n_e, k)
        amplitudes[m] = amps
        flat = amps.reshape(comp.out_dim, n_o * n_e * k)
        gram = flat.conj().T @ flat / k
        gram = gram.reshape(n_o, n_e, k, n_o, n_e, k)
        # element [(i,o,e),(i',o',e')] = <K_{e',o'} i' | K_{e,o} i> / k:
        # the unconjugated gram side becomes the row index.
        rho = np.transpose(gram, (5, 3, 4, 2, 0, 1))
        rho_rme[m] = rho.reshape(k * n_o * n_e, k * n_o * n_e)
    return JointState(
        code_dim=k,
        output_dim=comp.out_dim,
        memories=comp.memories,
        error_sequences=comp.sequences,
        outcome_sequences=comp.outcomes,
        amplitudes=amplitudes,
        rho_rme=rho_rme,
    )


def _entropy_bits(rho: np.ndarray) -> float:
    n = rho.shape[0]
    op = LabeledOperator((("S", n),), (("S", n),), rho)
    return entropy(op)


def check_info(
    code: StrategicCode, errors: ErrorModel, tol: float = MI_TOL_BITS
) -> ConditionReport:
    """Entropic correctability check.

    Per memory sector the deficit log2(code_dim) - [S(R'ME) - S(ME)]
    vanishes exactly when the record registers decouple from a maximally
    mixed reference; this is the complementary-channel coherent-information
    form of the criterion.  Correctable iff the largest deficit over all
    sectors above the weight floor is <= tol (bits).  Plain per-sector
    mutual information would miss instruments that filter the codespace
    (the reference marginal turns pure instead of correlated), so the
    deficit is the quantity reported.
    """
    return _info_report(joint_state(code, errors), tol)


def _info_report(js: JointState, tol: float) -> ConditionReport:
    log_k = math.log2(js.code_dim)
    table: dict[str, float] = {}
    worst = -math.inf
    witness: tuple | None = None
    for m in js.memories:
        p = js.weight(m)
        if p <= P_FLOOR:
            continue
        deficit = (
            log_k
            + _entropy_bits(js.rho_me(m) / p)
            - _entropy_bits(js.rho_rme[m] / p)
        )
        table[m] = deficit
        if deficit > worst:
            worst = deficit
            witness = (m,)
    if not table:
        raise ValueError("no memory state carries weight above the floor")
    return ConditionReport(
        correctable=bool(worst <= tol),
        worst_residual=float(worst),
        tolerance=float(tol),
        witness=witness,
        detail={
            "deficit_bits": table,
            "weights": js.weights(),
            "p_floor": P_FLOOR,
        },
    )


# ----------------------------------------------------------------------
# decoder synthesis
# ----------------------------------------------------------------------


def _require_trivial_environment(errors: ErrorModel, what: str) -> None:
    if errors.env_dim(errors.rounds) != 1:
        raise ValueError(
            f"{what} requires a trivial final environment; the environment "
            "leg is inaccessible to any decoder"
        )


def _blocks_to_decoder(
    basis: np.ndarray,
    out_dim: int,
    columns: dict[str, list[np.ndarray]],
) -> Decoder:
    """Orthonormalize per-memory column stacks by polar decomposition.

    Each entry of ``columns[m]`` is an (out_dim, code_dim) block; the polar
    isometry of their horizontal stack keeps correctable instances exact
    and turns near-orthonormal stacks into valid Kraus sets.
    """
    k = basis.shape[1]
    kraus: dict[str, tuple[np.ndarray, ...]] = {}
    completion: dict[str, np.ndarray] = {}
    for m, blocks in columns.items():
        if not blocks:
            kraus[m] = ()
            completion[m] = np.eye(out_dim, dtype=np.complex128)
            continue
        stack = np.hstack(blocks)
        u, _, vh = np.linalg.svd(stack, full_matrices=False)
        iso = u @ vh
        ops = tuple(
            basis @ iso[:, a * k : (a + 1) * k].conj().T
            for a in range(len(blocks))
        )
        kraus[m] = ops
        completion[m] = np.eye(out_dim, dtype=np.complex128) - iso @ iso.conj().T
    return Decoder(
        output_dim=basis.shape[0],
        input_dim=out_dim,
        kraus=kraus,
        completion=completion,
    )


def synth_decoder_algebraic(
    code: StrategicCode,
    errors: ErrorModel,
    tol: float | None = None,
    require_correctable: bool = True,
) -> Decoder:
    """Decoder from the algebraic proof.

    Diagonalizes each aggregate Lambda_m of :func:`check_algebraic`,
    rotates the aggregated Kraus operators into orthogonal error directions
    F_alpha, and inverts each surviving direction back onto the codespace.
    Directions of weight below the cutoff never occur on the codespace and
    are dropped.  With ``require_correctable=False`` the construction
    proceeds on failing instances and yields the best-effort projective
    decoder.
    """
    _require_trivial_environment(errors, "the algebraic decoder")
    report = check_algebraic(code, errors, tol)
    if require_correctable and not report.correctable:
        raise ValueError(
            "instance is not correctable (worst residual "
            f"{report.worst_residual:.3e} > tolerance {report.tolerance:.3e}); "
            "pass require_correctable=False for a best-effort decoder"
        )
    comp = _composed(code, errors)
    columns: dict[str, list[np.ndarray]] = {}
    for m in comp.memories:
        agg = comp.aggregated(m)        # (n_e, out, k)
        n_e = (("e", agg.shape[0]),)
        spec = herm_eig(LabeledOperator(n_e, n_e, report.detail["lambda"][m]))
        blocks: list[np.ndarray] = []
        for alpha in range(agg.shape[0]):
            d_alpha = float(spec.eigenvalues[alpha])
            if d_alpha <= WEIGHT_CUTOFF:
                continue
            rotated = np.tensordot(spec.eigenvectors[:, alpha], agg, axes=([0], [0]))
            blocks.append(rotated / math.sqrt(d_alpha))
        columns[m] = blocks
    return _blocks_to_decoder(comp.basis, comp.out_dim, columns)


def synth_decoder_schmidt(
    code: StrategicCode,
    errors: ErrorModel,
    tol: float = MI_TOL_BITS,
    require_correctable: bool = True,
) -> Decoder:
    """Decoder from the entropic proof.

    Spectral-decomposes each register marginal rho_ME, projects the code
    branch amplitudes onto each register eigenvector, and aligns the
    resulting orthonormal output vectors back with the codespace basis.
    Rejects when the projected norms are not uniform across codewords
    (a Schmidt-rank inconsistency, signalling the state is not a product).
    """
    _require_trivial_environment(errors, "the entropic decoder")
    js = joint_state(code, errors)
    report = _info_report(js, tol)
    if require_correctable and not report.correctable:
        raise ValueError(
            "instance is not correctable (worst entropy deficit "
            f"{report.worst_residual:.3e} bits > {report.tolerance:.3e}); "
            "pass require_correctable=False for a best-effort decoder"
        )
    k = js.code_dim
    columns: dict[str, list[np.ndarray]] = {}
    for m in js.memories:
        amps = js.amplitudes[m]                       # (out, n_o, n_e, k)
        out_dim = amps.shape[0]
        n_me = amps.shape[1] * amps.shape[2]
        chi = amps.reshape(out_dim, n_me, k)
        spec = herm_eig(
            LabeledOperator((("r", n_me),), (("r", n_me),), js.rho_me(m))
        )
        blocks: list[np.ndarray] = []
        for alpha in range(n_me):
            q_alpha = float(spec.eigenvalues[alpha])
            if q_alpha <= SCHMIDT_CUTOFF:
                continue
            u_alpha = spec.eigenvectors[:, alpha]
            w = np.tensordot(u_alpha.conj(), chi, axes=([0], [1]))  # (out, k)
            norms = np.linalg.norm(w, axis=0)
            if require_correctable:
                dev = float(np.max(np.abs(norms**2 - q_alpha)))
                if dev > 1e-6 * max(1.0, q_alpha):
                    raise ValueError(
                        "Schmidt-rank inconsistency: projected norms "
                        f"{norms**2} differ from eigenvalue {q_alpha:.3e} "
                        f"for memory {m!r}; the joint state is not a product"
                    )
            blocks.append(w / math.sqrt(q_alpha))
        columns[m] = blocks
    basis = code.codespace.basis
    return _blocks_to_decoder(basis, js.output_dim, columns)


# ----------------------------------------------------------------------
# end-to-end verification
# ----------------------------------------------------------------------


def verify_recovery(
    code: StrategicCode,
    errors: ErrorModel,
    decoder: Decoder,
    states: Sequence[npt.NDArray[np.complex128]],
) -> RecoveryReport:
    """Apply interrogation, errors and decoding to codestates.

    For each state and final memory the recovered operator is
    sum over decoder Kraus, error sequences and environment slices of
    D (K_{e,m} psi) (K_{e,m} psi)^dag D^dag, with K_{e,m} the coherent sum
    over the memory's outcome sequences.  The reported weight is the total
    probability arriving at that memory; completion weight counts toward
    it but contributes no fidelity.  When a memory state merges several
    outcome sequences the coherent sum makes the weights interferometric;
    they are guaranteed to total one (for trace-preserving models) only
    when each memory state pins a single outcome sequence.
    """
    comp = _composed(code, errors)
    env = comp.env_dim
    q_dim = comp.out_dim // env
    records: list[RecoveryRecord] = []
    totals: list[float] = []
    worst = math.inf
    for idx, psi in enumerate(states):
        vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != code.codespace.ambient_dim:
            raise ValueError(
                f"state {idx} has dim {vec.shape[0]}, ambient is "
                f"{code.codespace.ambient_dim}"
            )
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValueError(f"state {idx} is not normalized")
        proj = code.codespace.projector
        if np.linalg.norm(proj @ vec - vec) > 1e-8:
            raise ValueError(f"state {idx} lies outside the codespace")
        logical = code.codespace.basis.conj().T @ vec
        total_weight = 0.0
        for m in comp.memories:
            agg = comp.aggregated(m)          # (n_e, out, k)
            sigma = np.zeros(
                (code.codespace.ambient_dim, code.codespace.ambient_dim),
                dtype=np.complex128,
            )
            weight = 0.0
            for a in range(agg.shape[0]):
                arrived = (agg[a] @ logical).reshape(q_dim, env)
                for eps in range(env):
                    w = arrived[:, eps]
                    weight += float(np.real(w.conj() @ w))
                    for d_op in decoder.kraus[m]:
                        out = d_op @ w
                        sigma += np.outer(out, out.conj())
            if weight > P_FLOOR:
                fid = float(np.real(vec.conj() @ sigma @ vec)) / weight
                worst = min(worst, fid)
                records.append(RecoveryRecord(idx, m, weight, fid))
            total_weight += weight
        totals.append(total_weight)
    return RecoveryReport(
        worst_fidelity=float(worst),
        records=tuple(records),
        total_weights=tuple(totals),
    )
