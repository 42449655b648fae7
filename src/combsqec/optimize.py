"""See-saw optimization of encoder, check instruments, and decoder.

The strategy side of an instance is held as Choi matrices: an encoder
channel from the logical space into the first register, per-round
instrument blocks indexed by (outgoing memory | incoming memory), and one
decoder channel per final memory value.  The objective is the entanglement
fidelity of the composite logical channel against a fixed input state,
which is multilinear in the factors.  Its sum over classical-memory
trajectories is taken by forward and backward messages over memory values
(see :class:`_Engine`): O(L · max n²) matrix products per pass for L rounds
of at most n memory values, one pass for the objective and one pair of
passes for every coefficient of a factor family.  Each coordinate step
maximizes the resulting linear functional Σ_ν Tr(X_ν A_ν) over the factor's
channels by the Reimpell–Werner fixed-point iteration (Reimpell–Werner, PRL
94, 080501, 2005; Fletcher–Shor–Win, PRA 75, 012338, 2007), whose iterates
are CPTP by construction.  The Dykstra projection onto the CPTP set
(:func:`project_cptp`) is used only to make the perturbed start feasible.

Everything here works on plain square arrays in the row-major Choi
convention (output leg first); the labeled-operator layer is only touched
at the public projection entry point.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .combs import ChoiOperator, _psd_choi
from .model import ErrorModel
from .tensor import LabeledOperator, permute_subsystems

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "OptimizationState",
    "initial_state",
    "ent_fidelity",
    "project_cptp",
    "coordinate_step",
    "seesaw",
    "static_biconvex",
]

PSD_TOL = 1e-8
TP_TOL = 1e-7
PROJECTION_TOL = 1e-9
PROJECTION_SWEEPS = 500
KERNEL_RTOL = 1e-10


# ----------------------------------------------------------------------
# configuration, trace records, and the optimization state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of a see-saw run; identical configs give identical runs.

    ``seed`` and ``perturbation`` set the Hermitian offset of the start (see
    :func:`initial_state`).  A cycle steps every factor once; the run stops
    when a cycle moves the fidelity by less than ``tol_conv`` or after
    ``max_iters`` cycles (at least 0).  Each coordinate step runs at most
    ``inner_steps`` Reimpell–Werner iterations (at least 1), and stops
    early after ``inner_stall`` iterations in a row that raise the step's
    objective by no more than 1e-12.  ``step_order`` overrides the default
    decoder, rounds last-to-first, encoder cycle with an explicit list of
    factor names as accepted by :func:`coordinate_step`.
    """

    seed: int = 0
    tol_conv: float = 1e-7
    max_iters: int = 200
    inner_steps: int = 60
    inner_stall: int = 5
    perturbation: float = 1e-2
    step_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        if self.inner_steps < 1:
            raise ValueError(f"inner_steps must be at least 1, got {self.inner_steps}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    factor: str
    fidelity: float

    def line(self) -> str:
        return f"{self.iteration} {self.factor} {self.fidelity:.12f}"


def _as_choi_array(mat, name: str, d_out: int, d_in: int) -> np.ndarray:
    arr = np.array(mat, dtype=np.complex128)
    n = d_out * d_in
    if arr.shape != (n, n):
        raise ValueError(f"{name} must be a {n} x {n} Choi matrix, got {arr.shape}")
    return arr


def _trace_out(choi: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    return np.einsum("aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in))


def _min_eig(mat: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)))


@dataclass(frozen=True, eq=False)
class OptimizationState:
    """Choi factors of a strategy, with the fidelity trace of its run.

    ``instruments[r][incoming][outgoing]`` is the Choi block of check round
    r+1 conditioned on the incoming memory value; the trace-preservation
    constraint couples the outgoing blocks of each incoming value.  The
    memory alphabet sizes per round are ``memory_structure``; the final
    round's alphabet indexes the decoders.

    Construction validates shapes and feasibility (PSD blocks, trace
    preservation).  The optimizer's own updates skip that check through
    :func:`_updated`: the start from :func:`initial_state` comes from the
    feasibility projection, which returns clipped PSD blocks with a
    trace-preservation residual of at most ``PROJECTION_TOL`` < ``TP_TOL``,
    and every later factor from Reimpell–Werner iterations, whose blocks
    are sums of congruences of PSD matrices and trace preserving to
    rounding.
    """

    logical_dim: int
    encoder_dims: tuple[int, int]
    instrument_dims: tuple[tuple[int, int], ...]
    decoder_dims: tuple[int, int]
    memory_structure: tuple[int, ...]
    encoder: npt.NDArray[np.complex128]
    instruments: tuple[tuple[tuple[npt.NDArray[np.complex128], ...], ...], ...]
    decoders: tuple[npt.NDArray[np.complex128], ...]
    fidelity: float
    trace: tuple[TraceRecord, ...] = ()
    rejected_steps: tuple[str, ...] = ()
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    converged: bool = True

    def __post_init__(self) -> None:
        ms = tuple(int(n) for n in self.memory_structure)
        object.__setattr__(self, "memory_structure", ms)
        if any(n < 1 for n in ms):
            raise ValueError("memory alphabet sizes must be positive")
        if len(self.instrument_dims) != len(ms):
            raise ValueError("one instrument dimension pair per round required")
        eo, ei = self.encoder_dims
        if ei != self.logical_dim:
            raise ValueError("encoder input dimension must equal the logical dim")
        object.__setattr__(
            self, "encoder", _as_choi_array(self.encoder, "encoder", eo, ei)
        )
        rounds = []
        for r, per_round in enumerate(self.instruments):
            do, di = self.instrument_dims[r]
            incoming = ms[r - 1] if r > 0 else 1
            if len(per_round) != incoming:
                raise ValueError(
                    f"round {r + 1} needs {incoming} incoming block families"
                )
            families = []
            for mu, blocks in enumerate(per_round):
                if len(blocks) != ms[r]:
                    raise ValueError(
                        f"round {r + 1} incoming value {mu} needs {ms[r]} blocks"
                    )
                families.append(
                    tuple(
                        _as_choi_array(b, f"round {r + 1} block", do, di)
                        for b in blocks
                    )
                )
            rounds.append(tuple(families))
        object.__setattr__(self, "instruments", tuple(rounds))
        n_dec = ms[-1] if ms else 1
        if len(self.decoders) != n_dec:
            raise ValueError(f"{n_dec} decoders required, got {len(self.decoders)}")
        do, di = self.decoder_dims
        if do != self.logical_dim:
            raise ValueError("decoder output dimension must equal the logical dim")
        object.__setattr__(
            self,
            "decoders",
            tuple(_as_choi_array(d, "decoder", do, di) for d in self.decoders),
        )
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "rejected_steps", tuple(self.rejected_steps))
        self._check_feasible()

    def _check_feasible(self) -> None:
        eo, ei = self.encoder_dims
        self._check_factor("encoder", self.encoder, _trace_out(self.encoder, eo, ei))
        for r, per_round in enumerate(self.instruments):
            do, di = self.instrument_dims[r]
            for mu, blocks in enumerate(per_round):
                total = np.zeros((di, di), dtype=np.complex128)
                for nu, block in enumerate(blocks):
                    scale = max(1.0, float(np.linalg.norm(block)))
                    if _min_eig(block) < -PSD_TOL * scale:
                        raise ValueError(
                            f"round {r + 1} block ({nu}|{mu}) is not PSD"
                        )
                    total += _trace_out(block, do, di)
                if np.linalg.norm(total - np.eye(di)) > TP_TOL:
                    raise ValueError(
                        f"round {r + 1} blocks for incoming value {mu} are not "
                        "trace preserving"
                    )
        do, di = self.decoder_dims
        for nu, dec in enumerate(self.decoders):
            self._check_factor(f"decoder {nu}", dec, _trace_out(dec, do, di))

    @staticmethod
    def _check_factor(name: str, choi: np.ndarray, reduced: np.ndarray) -> None:
        scale = max(1.0, float(np.linalg.norm(choi)))
        if _min_eig(choi) < -PSD_TOL * scale:
            raise ValueError(f"{name} Choi is not PSD")
        if np.linalg.norm(reduced - np.eye(reduced.shape[0])) > TP_TOL:
            raise ValueError(f"{name} Choi is not trace preserving")

    @property
    def rounds(self) -> int:
        return len(self.memory_structure)

    def trace_lines(self) -> list[str]:
        return [rec.line() for rec in self.trace]


def _updated(state: OptimizationState, **changes) -> OptimizationState:
    """``dataclasses.replace`` without re-validation, for internal updates.

    The new values must already be in normalized form: complex128 Choi
    arrays, tuples, and factors that are feasible by construction.
    """
    new = copy.copy(state)
    for name, value in changes.items():
        object.__setattr__(new, name, value)
    return new


# ----------------------------------------------------------------------
# superoperator plumbing
# ----------------------------------------------------------------------


def _superop_from_choi(choi: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    c4 = choi.reshape(d_out, d_in, d_out, d_in)
    return c4.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def _superop_from_kraus(mats: Sequence[np.ndarray]) -> np.ndarray:
    return sum(np.kron(m, m.conj()) for m in mats)


def _lift_superop(s: np.ndarray, d_out: int, d_in: int, d_env: int) -> np.ndarray:
    """Superoperator of (map (x) identity on an environment leg)."""
    if d_env == 1:
        return s
    eye = np.eye(d_env)
    lifted = np.einsum(
        "abqp,ef,gh->aebgqfph", s.reshape(d_out, d_out, d_in, d_in), eye, eye
    )
    return lifted.reshape((d_out * d_env) ** 2, (d_in * d_env) ** 2)


def _trace_env_superop(d_q: int, d_env: int) -> np.ndarray:
    t = np.einsum(
        "qa,rb,ef->qraebf", np.eye(d_q), np.eye(d_q), np.eye(d_env)
    )
    return t.reshape(d_q * d_q, (d_q * d_env) ** 2)


def _rho_coeff(rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return np.einsum("ij,kl->jlik", rho.conj(), rho).reshape(d * d, d * d)


def _choi_coeff(b: np.ndarray, d_out: int, d_in: int) -> np.ndarray:
    """Rearrange a superoperator-space coefficient into Choi space.

    With F = Tr(S_X B) and S_X the superoperator of the Choi factor X,
    the returned A satisfies F = Tr(X A) exactly.
    """
    b4 = b.reshape(d_in, d_in, d_out, d_out)
    return b4.transpose(3, 1, 2, 0).reshape(d_out * d_in, d_out * d_in)


def _contract_env(b: np.ndarray, d_out: int, d_in: int, d_env: int) -> np.ndarray:
    if d_env == 1:
        return b
    b8 = b.reshape(d_in, d_env, d_in, d_env, d_out, d_env, d_out, d_env)
    return np.einsum("qxpyaxby->qpab", b8).reshape(d_in * d_in, d_out * d_out)


class _Engine:
    """Error-model constants and the memory sums behind the objective.

    Factors vary between calls; everything derived from the error model,
    the input state, and the memory structure is computed once.  The sum
    over memory trajectories factorizes round by round, because a chain
    depends on its trajectory only through adjacent memory values.  So
    :meth:`evaluate` and :meth:`coefficients` run forward messages
    F_0 = E_0·Enc, F_r[ν] = E_r·Σ_μ I_{r,μ,ν}·F_{r−1}[μ] and backward
    messages B_L[ν] = Dec_ν·T·E_L, B_{r−1}[μ] = (Σ_ν B_r[ν]·I_{r,μ,ν})·E_{r−1},
    with T the trace over a final environment leg of dim > 1.  Each pass
    costs O(L · max n²) matrix products, against O(∏n_r · L) for the
    trajectory enumeration it replaces.
    """

    def __init__(
        self,
        errors: ErrorModel,
        logical_dim: int,
        memory_structure: Sequence[int],
        rho: np.ndarray,
    ):
        self.errors = errors
        self.rounds = errors.rounds
        self.memory_structure = tuple(int(n) for n in memory_structure)
        if len(self.memory_structure) != self.rounds:
            raise ValueError(
                f"memory structure lists {len(self.memory_structure)} rounds, "
                f"error model has {self.rounds}"
            )
        if any(n < 1 for n in self.memory_structure):
            raise ValueError("memory alphabet sizes must be positive")
        self.logical_dim = int(logical_dim)
        if self.logical_dim < 1:
            raise ValueError("logical dimension must be positive")
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (self.logical_dim, self.logical_dim):
            raise ValueError(
                f"input state must be {self.logical_dim} x {self.logical_dim}, "
                f"got {rho.shape}"
            )
        if np.linalg.norm(rho - rho.conj().T) > 1e-8:
            raise ValueError("input state must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ValueError("input state must have unit trace")
        self.rho = rho
        self.n_coeff = _rho_coeff(rho)
        self.encoder_dims = (errors.q_in_dim(0), self.logical_dim)
        self.instrument_dims = tuple(
            (errors.q_in_dim(r), errors.q_out_dim(r - 1))
            for r in range(1, self.rounds + 1)
        )
        self.decoder_dims = (self.logical_dim, errors.q_out_dim(self.rounds))
        self.err_superops = [
            _superop_from_kraus([op.data for op in errors.round_ops(r)])
            for r in range(self.rounds + 1)
        ]
        self.final_env = errors.env_dim(self.rounds)
        self.trace_env = (
            _trace_env_superop(errors.q_out_dim(self.rounds), self.final_env)
            if self.final_env > 1
            else None
        )

    def superops(self, state: OptimizationState) -> dict[tuple, np.ndarray]:
        """Every factor's superoperator, keyed ``("encoder",)``,
        ``("instrument", r, μ, ν)`` and ``("decoder", ν)``."""
        eo, ei = self.encoder_dims
        ops = {("encoder",): _superop_from_choi(state.encoder, eo, ei)}
        for r in range(1, self.rounds + 1):
            do, di = self.instrument_dims[r - 1]
            env = self.errors.env_dim(r - 1)
            for mu, blocks in enumerate(state.instruments[r - 1]):
                for nu, block in enumerate(blocks):
                    ops[("instrument", r, mu, nu)] = _lift_superop(
                        _superop_from_choi(block, do, di), do, di, env
                    )
        do, di = self.decoder_dims
        for nu, dec in enumerate(state.decoders):
            ops[("decoder", nu)] = _superop_from_choi(dec, do, di)
        return ops

    def _closed_decoders(self, ops: dict[tuple, np.ndarray]) -> list[np.ndarray]:
        """Dec_ν·T per final memory value ν (Dec_ν when there is no T)."""
        n_final = self.memory_structure[-1] if self.rounds else 1
        decs = [ops[("decoder", nu)] for nu in range(n_final)]
        if self.trace_env is None:
            return decs
        return [d @ self.trace_env for d in decs]

    def _forward(self, ops: dict[tuple, np.ndarray]) -> list[list[np.ndarray]]:
        """F_r[ν]: every trajectory prefix through error round r that leaves
        memory value ν, summed."""
        msgs = [[self.err_superops[0] @ ops[("encoder",)]]]
        for r in range(1, self.rounds + 1):
            msgs.append([
                self.err_superops[r]
                @ sum(
                    ops[("instrument", r, mu, nu)] @ f
                    for mu, f in enumerate(msgs[-1])
                )
                for nu in range(self.memory_structure[r - 1])
            ])
        return msgs

    def _backward(self, ops: dict[tuple, np.ndarray]) -> list[list[np.ndarray]]:
        """B_r[ν]: every trajectory suffix from error round r on that
        starts from memory value ν, summed."""
        msgs = [[d @ self.err_superops[-1] for d in self._closed_decoders(ops)]]
        for r in range(self.rounds, 0, -1):
            incoming = self.memory_structure[r - 2] if r >= 2 else 1
            msgs.insert(0, [
                sum(
                    b @ ops[("instrument", r, mu, nu)]
                    for nu, b in enumerate(msgs[0])
                )
                @ self.err_superops[r - 1]
                for mu in range(incoming)
            ])
        return msgs

    def evaluate(self, state: OptimizationState) -> float:
        ops = self.superops(state)
        return sum(
            float(np.trace(d @ f @ self.n_coeff).real)
            for d, f in zip(self._closed_decoders(ops), self._forward(ops)[-1])
        )

    def coefficients(
        self, state: OptimizationState, targets: Sequence[tuple]
    ) -> list[np.ndarray]:
        """Linear coefficient A of each target factor: F = Tr(X A) + rest.

        From one forward and one backward pass: instrument (r, μ, ν) gets
        F_{r−1}[μ]·N·B_r[ν], the encoder N·B_0, and decoder ν T·F_L[ν]·N,
        with N the input state's coefficient.
        """
        ops = self.superops(state)
        for target in targets:
            if target not in ops:
                raise ValueError(f"unknown factor target {target!r}")
        fwd = self._forward(ops)
        bwd = self._backward(ops)
        out = []
        for target in targets:
            if target[0] == "encoder":
                d_out, d_in = self.encoder_dims
                b = self.n_coeff @ bwd[0][0]
            elif target[0] == "instrument":
                _, r, mu, nu = target
                d_out, d_in = self.instrument_dims[r - 1]
                b = _contract_env(
                    fwd[r - 1][mu] @ self.n_coeff @ bwd[r][nu],
                    d_out, d_in, self.errors.env_dim(r - 1),
                )
            else:
                d_out, d_in = self.decoder_dims
                f = fwd[-1][target[1]]
                if self.trace_env is not None:
                    f = self.trace_env @ f
                b = f @ self.n_coeff
            a = _choi_coeff(b, d_out, d_in)
            out.append((a + a.conj().T) / 2.0)
        return out


# ----------------------------------------------------------------------
# feasibility projection
# ----------------------------------------------------------------------


def _affine_tp(x: np.ndarray, deficit: np.ndarray, d_out: int) -> np.ndarray:
    """``x`` moved onto the trace-preservation slice, given its TP deficit."""
    y = x.copy()
    d_in = deficit.shape[0]
    diagonal_blocks = np.einsum("aiaj->aij", y.reshape(d_out, d_in, d_out, d_in))
    diagonal_blocks += deficit / d_out
    return y


def _psd_clip(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _project_cptp_array(
    x: np.ndarray,
    d_out: int,
    d_in: int,
    tol: float = PROJECTION_TOL,
    sweeps: int = PROJECTION_SWEEPS,
) -> np.ndarray:
    """Nearest CPTP Choi by Dykstra's alternating projections.

    The affine trace-preservation slice has a closed-form orthogonal
    projection, so the correction term is carried on the cone step only.
    Each sweep costs one ``eigh`` of the Choi matrix and one partial
    trace, whose deficit is both the convergence residual and the next
    affine step; the PSD residual is computed only when raising.  The
    returned iterate is exactly PSD with the affine residual below ``tol``.
    """
    eye_in = np.eye(d_in)
    z = (x + x.conj().T) / 2.0
    deficit = eye_in - _trace_out(z, d_out, d_in)
    correction = np.zeros_like(z)
    tp_res = math.inf
    y = None
    for _ in range(sweeps):
        y = _affine_tp(z, deficit, d_out)
        w = y + correction
        z = _psd_clip(w)
        correction = w - z
        deficit = eye_in - _trace_out(z, d_out, d_in)
        tp_res = float(np.linalg.norm(deficit))
        if tp_res <= tol:
            return z
    psd_res = math.inf if y is None else max(0.0, -_min_eig(y))
    raise ValueError(
        f"feasibility projection did not converge in {sweeps} sweeps: "
        f"trace-preservation residual {tp_res:.3e}, PSD residual {psd_res:.3e}"
    )


def _project_family(
    blocks: Sequence[np.ndarray], d_out: int, d_in: int
) -> list[np.ndarray]:
    """Nearest CP blocks whose partial traces sum to the identity.

    The constraint couples the blocks, so their direct sum is projected as
    a single flagged channel; one block is its own direct sum.
    """
    n = d_out * d_in
    spans = [slice(nu * n, (nu + 1) * n) for nu in range(len(blocks))]
    big = np.zeros((len(blocks) * n, len(blocks) * n), dtype=np.complex128)
    for span, block in zip(spans, blocks):
        big[span, span] = block
    big = _project_cptp_array(big, len(blocks) * d_out, d_in)
    return [big[span, span] for span in spans]


def project_cptp(x: LabeledOperator, out_labels: Sequence[str]) -> ChoiOperator:
    """Project a square Hermitian operator onto the CPTP Choi set.

    ``out_labels`` names the output legs; the partial trace over them is
    driven to the identity on the remaining legs while eigenvalue clipping
    restores positivity.
    """
    if x.row_subsystems != x.col_subsystems:
        raise ValueError("projection needs identical subsystems on both sides")
    scale = max(1.0, float(np.linalg.norm(x.data)))
    if np.linalg.norm(x.data - x.data.conj().T) > 1e-8 * scale:
        raise ValueError("projection input must be Hermitian")
    out_labels = tuple(out_labels)
    unknown = set(out_labels) - set(x.row_labels)
    if unknown:
        raise ValueError(f"unknown output labels {sorted(unknown)}")
    in_labels = tuple(l for l in x.row_labels if l not in out_labels)
    ordered = permute_subsystems(x, out_labels + in_labels)
    d_out = 1
    for label in out_labels:
        d_out *= x.row_dim_of(label)
    d_in = ordered.row_dim // d_out
    projected = _project_cptp_array(ordered.data, d_out, d_in)
    op = LabeledOperator(ordered.row_subsystems, ordered.col_subsystems, projected)
    return _psd_choi(op, input_labels=in_labels, output_labels=out_labels)


# ----------------------------------------------------------------------
# objective and coordinate ascent
# ----------------------------------------------------------------------


def ent_fidelity(
    state: OptimizationState, errors: ErrorModel, rho: npt.NDArray[np.complex128]
) -> float:
    """Entanglement fidelity of the composite logical channel at ``rho``.

    Factored evaluation: one forward pass of per-memory messages composes
    the factor superoperators round by round, summing over incoming memory
    values at each round, and the result is contracted against the input
    state, so neither the full multi-leg comb nor the list of memory
    trajectories is materialized.
    """
    engine = _Engine(errors, state.logical_dim, state.memory_structure, rho)
    _require_matching_dims(engine, state)
    return engine.evaluate(state)


def _require_matching_dims(engine: _Engine, state: OptimizationState) -> None:
    if (
        engine.encoder_dims != state.encoder_dims
        or engine.instrument_dims != state.instrument_dims
        or engine.decoder_dims != state.decoder_dims
    ):
        raise ValueError(
            "state dimensions do not match the error model: "
            f"encoder {state.encoder_dims} vs {engine.encoder_dims}, "
            f"instruments {state.instrument_dims} vs {engine.instrument_dims}, "
            f"decoder {state.decoder_dims} vs {engine.decoder_dims}"
        )


def _parse_which(which: str, state: OptimizationState) -> tuple[str, int, int]:
    parts = which.split(":")
    if parts[0] == "encoder" and len(parts) == 1:
        return ("encoder", 0, 0)
    if parts[0] == "decoder" and len(parts) == 2:
        nu = int(parts[1])
        if not 0 <= nu < len(state.decoders):
            raise ValueError(f"decoder index {nu} out of range")
        return ("decoder", nu, 0)
    if parts[0] == "round" and len(parts) == 3:
        r, mu = int(parts[1]), int(parts[2])
        if not 1 <= r <= state.rounds:
            raise ValueError(f"round {r} out of range")
        incoming = state.memory_structure[r - 2] if r >= 2 else 1
        if not 0 <= mu < incoming:
            raise ValueError(f"incoming memory value {mu} out of range for round {r}")
        return ("round", r, mu)
    raise ValueError(
        f"unknown factor {which!r}; expected 'encoder', 'decoder:NU', or 'round:R:MU'"
    )


def _tp_congruence(
    ys: Sequence[np.ndarray], fallback: Sequence[np.ndarray], d_out: int, d_in: int
) -> list[np.ndarray]:
    """PSD blocks made trace preserving by one input-leg congruence.

    With ρ = Σ_ν Tr_out Y_ν, returns (I⊗ρ^{+½}) Y_ν (I⊗ρ^{+½}) +
    (I⊗P) F_ν (I⊗P), where ρ^{+½} is the inverse square root on the support
    of ρ and P projects onto its kernel (eigenvalues at most ``KERNEL_RTOL``
    times the largest), on which the trace-preserving ``fallback`` family F
    is kept.  Every block is a sum of congruences of PSD matrices; the
    blocks are returned Hermitian, because the congruence by large entries
    of ρ^{+½} would otherwise leave an anti-Hermitian rounding part in the
    partial traces that no later congruence removes.
    """
    rho = sum(_trace_out(y, d_out, d_in) for y in ys)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > KERNEL_RTOL * max(float(vals[-1]), 0.0)
    sup = vecs[:, keep]
    n = d_out * d_in
    # (I⊗M) Y (I⊗M) for Hermitian M, applied to the input leg by reshapes
    congruence = lambda mat, y: (
        np.matmul(mat, y.reshape(d_out, d_in, n)).reshape(n, d_out, d_in) @ mat
    ).reshape(n, n)
    inv_sqrt = (sup / np.sqrt(vals[keep])) @ sup.conj().T
    out = [congruence(inv_sqrt, y) for y in ys]
    if not keep.all():
        ker = vecs[:, ~keep]
        out = [o + congruence(ker @ ker.conj().T, f) for o, f in zip(out, fallback)]
    return [(o + o.conj().T) / 2.0 for o in out]


def _rw_iterate(
    xs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray], d_out: int, d_in: int
) -> list[np.ndarray]:
    """One Reimpell–Werner fixed-point iteration on a flagged block family.

    X_ν ↦ (I⊗ρ^{+½}) A_ν X_ν A_ν (I⊗ρ^{+½}) + (I⊗P) X_ν (I⊗P) with
    ρ = Σ_ν Tr_out A_ν X_ν A_ν, as in :func:`_tp_congruence`; the kernel
    of ρ keeps the incoming channel.  On the support, rounding in the
    eigenvalues of ρ leaves a trace-preservation error of order
    ε·‖ρ‖/λ_min, so a second congruence by the partial trace of the result,
    which is the identity up to that error, restores trace preservation to
    rounding.  Reimpell–Werner, PRL 94, 080501 (2005).
    """
    ys = [a @ x @ a for x, a in zip(xs, coeffs)]
    out = _tp_congruence(ys, xs, d_out, d_in)
    return _tp_congruence(out, xs, d_out, d_in)


def _step(
    engine: _Engine, state: OptimizationState, which: str, f_current: float
) -> OptimizationState:
    """One coordinate step by Reimpell–Werner iteration; never decreases F.

    The objective is linear in the updated factor, F = Σ_ν Tr(X_ν A_ν) + rest,
    with A_ν ⪰ 0; :func:`_rw_iterate` is repeated on the factor's block
    family, keeping the best iterate, until ``inner_stall`` iterations in a
    row fail to raise F by more than 1e-12 or ``inner_steps`` iterations
    have run.  The best family is accepted only if the evaluated objective
    falls no more than 1e-10 below ``f_current``, the objective of
    ``state``.
    """
    kind, first, second = _parse_which(which, state)
    config = state.config
    if kind == "encoder":
        d_out, d_in = state.encoder_dims
        blocks = [state.encoder]
        targets = [("encoder",)]
    elif kind == "decoder":
        d_out, d_in = state.decoder_dims
        blocks = [state.decoders[first]]
        targets = [("decoder", first)]
    else:
        r, mu = first, second
        d_out, d_in = state.instrument_dims[r - 1]
        blocks = list(state.instruments[r - 1][mu])
        targets = [("instrument", r, mu, nu) for nu in range(len(blocks))]

    coeffs = engine.coefficients(state, targets)
    linear = lambda xs: sum(
        float(np.trace(x @ a).real) for x, a in zip(xs, coeffs)
    )
    f_rest = f_current - linear(blocks)
    record = lambda st, fid: _updated(
        st,
        fidelity=fid,
        trace=st.trace + (TraceRecord(len(st.trace), which, fid),),
    )

    best_blocks = xs = blocks
    best_f = f_current
    stall = 0
    for _ in range(config.inner_steps):
        xs = _rw_iterate(xs, coeffs, d_out, d_in)
        f_here = f_rest + linear(xs)
        if f_here > best_f + 1e-12:
            best_f = f_here
            best_blocks = xs
            stall = 0
        else:
            stall += 1
            if stall >= config.inner_stall:
                break

    if kind == "encoder":
        candidate = _updated(state, encoder=best_blocks[0])
    elif kind == "decoder":
        decs = list(state.decoders)
        decs[first] = best_blocks[0]
        candidate = _updated(state, decoders=tuple(decs))
    else:
        rounds_fac = [list(per) for per in state.instruments]
        rounds_fac[first - 1][second] = tuple(best_blocks)
        candidate = _updated(
            state, instruments=tuple(tuple(per) for per in rounds_fac)
        )
    f_true = engine.evaluate(candidate)
    if f_true < f_current - 1e-10:
        return _updated(
            record(state, f_current),
            rejected_steps=state.rejected_steps
            + (f"{which}: evaluated objective regressed",),
        )
    return record(candidate, f_true)


def coordinate_step(
    state: OptimizationState,
    errors: ErrorModel,
    rho: npt.NDArray[np.complex128],
    which: str,
) -> OptimizationState:
    """Maximize one factor with the others fixed.

    ``which`` is ``"encoder"``, ``"decoder:NU"``, or ``"round:R:MU"`` (the
    latter updates all outgoing blocks of round R's incoming value MU
    jointly, since trace preservation couples them).  The returned state's
    objective is never below the incoming one beyond 1e-10; a step whose
    evaluated objective would fall further leaves the factor unchanged and
    logs the event in ``rejected_steps``.
    """
    engine = _Engine(errors, state.logical_dim, state.memory_structure, rho)
    _require_matching_dims(engine, state)
    return _step(engine, state, which, engine.evaluate(state))


# ----------------------------------------------------------------------
# initialization and the see-saw loop
# ----------------------------------------------------------------------


def _embedding_choi(d_out: int, d_in: int) -> np.ndarray:
    """Choi matrix of the isometric embedding of the smaller leg."""
    v = np.zeros((d_out, d_in), dtype=np.complex128)
    for i in range(min(d_out, d_in)):
        v[i, i] = 1.0
    return np.outer(v.reshape(-1), v.reshape(-1).conj())


def _perturbed_family(
    rng: np.random.Generator,
    bases: Sequence[np.ndarray],
    d_out: int,
    d_in: int,
    magnitude: float,
) -> list[np.ndarray]:
    """Unit-norm Hermitian Ginibre offsets on each base, then projection.

    Per base, in order, one real and then one imaginary n x n normal draw.
    """
    moved = []
    for base in bases:
        n = base.shape[0]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        h /= max(float(np.linalg.norm(h)), 1e-15)
        moved.append(base + magnitude * h)
    return _project_family(moved, d_out, d_in)


def initial_state(
    errors: ErrorModel,
    logical_dim: int,
    memory_structure: Sequence[int] | None = None,
    rho: npt.NDArray[np.complex128] | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationState:
    """Identity-embedding factors with a seeded perturbation, re-projected.

    The unperturbed identity start is stationary for some instances, so a
    small Hermitian Ginibre offset (re-projected to feasibility) is always
    applied.
    """
    config = config or OptimizerConfig()
    ms = tuple(
        memory_structure
        if memory_structure is not None
        else (2,) * errors.rounds
    )
    if rho is None:
        rho = np.eye(logical_dim, dtype=np.complex128) / logical_dim
    engine = _Engine(errors, logical_dim, ms, rho)
    rng = np.random.default_rng(config.seed)
    eps = config.perturbation

    eo, ei = engine.encoder_dims
    (encoder,) = _perturbed_family(rng, [_embedding_choi(eo, ei)], eo, ei, eps)

    instruments = []
    for r in range(1, engine.rounds + 1):
        do, di = engine.instrument_dims[r - 1]
        incoming = ms[r - 2] if r >= 2 else 1
        zero = np.zeros((do * di, do * di), dtype=np.complex128)
        bases = [_embedding_choi(do, di)] + [zero] * (ms[r - 1] - 1)
        instruments.append(
            tuple(
                tuple(_perturbed_family(rng, bases, do, di, eps))
                for _ in range(incoming)
            )
        )

    do, di = engine.decoder_dims
    decoders = tuple(
        _perturbed_family(rng, [_embedding_choi(do, di)], do, di, eps)[0]
        for _ in range(ms[-1] if ms else 1)
    )

    state = OptimizationState(
        logical_dim=logical_dim,
        encoder_dims=engine.encoder_dims,
        instrument_dims=engine.instrument_dims,
        decoder_dims=engine.decoder_dims,
        memory_structure=ms,
        encoder=encoder,
        instruments=tuple(instruments),
        decoders=decoders,
        fidelity=0.0,
        config=config,
    )
    f0 = engine.evaluate(state)
    return _updated(state, fidelity=f0, trace=(TraceRecord(0, "init", f0),))


def _factor_order(state: OptimizationState) -> list[str]:
    order = [f"decoder:{nu}" for nu in range(len(state.decoders))]
    for r in range(state.rounds, 0, -1):
        incoming = state.memory_structure[r - 2] if r >= 2 else 1
        order += [f"round:{r}:{mu}" for mu in range(incoming)]
    order.append("encoder")
    return order


def seesaw(
    errors: ErrorModel,
    logical_dim: int,
    memory_structure: Sequence[int] | None = None,
    rho: npt.NDArray[np.complex128] | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationState:
    """Cyclic coordinate ascent over decoder, check rounds, and encoder.

    Stops when the objective moves less than ``config.tol_conv`` over a
    full cycle, or after ``config.max_iters`` cycles; ``converged`` on the
    returned state records which rule fired.  The recorded trace is
    nondecreasing and the best state encountered is returned.  The default
    input state is maximally mixed on the logical space.
    """
    config = config or OptimizerConfig()
    if rho is None:
        rho = np.eye(logical_dim, dtype=np.complex128) / logical_dim
    state = initial_state(errors, logical_dim, memory_structure, rho, config)
    engine = _Engine(errors, logical_dim, state.memory_structure, rho)
    order = (
        list(config.step_order)
        if config.step_order is not None
        else _factor_order(state)
    )
    for which in order:
        _parse_which(which, state)
    best = state
    converged = False
    for _ in range(config.max_iters):
        f_start = state.fidelity
        for which in order:
            state = _step(engine, state, which, state.fidelity)
            if state.fidelity > best.fidelity:
                best = state
        if abs(state.fidelity - f_start) < config.tol_conv:
            converged = True
            break
    result = best if best.fidelity > state.fidelity else state
    return _updated(result, converged=converged)


def static_biconvex(
    errors: ErrorModel,
    logical_dim: int,
    rho: npt.NDArray[np.complex128] | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationState:
    """Encoder/decoder alternation for models with no check rounds.

    The two-factor special case of :func:`seesaw`; the cycle degenerates
    to one decoder step and one encoder step.
    """
    if errors.rounds != 0:
        raise ValueError(
            f"static alternation needs a single-round error model, got "
            f"{errors.rounds} check rounds"
        )
    return seesaw(errors, logical_dim, (), rho, config)
