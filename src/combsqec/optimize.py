"""See-saw optimization of encoder, check instruments, and decoder.

The strategy side of an instance is held as Choi matrices: an encoder
channel from the logical space into the first register, per-round
instrument blocks indexed by (outgoing memory | incoming memory), and one
decoder channel per final memory value.  The objective is the entanglement
fidelity of the composite logical channel against a fixed input state,
which is multilinear in the factors; each coordinate step maximizes the
resulting linear functional over the factor's feasible set by projected
ascent, with feasibility restored by alternating projections.

Everything here works on plain square arrays in the row-major Choi
convention (output leg first); the labeled-operator layer is only touched
at the public projection entry point.
"""

from __future__ import annotations

import copy
import itertools
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


# ----------------------------------------------------------------------
# configuration, trace records, and the optimization state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of a see-saw run; identical configs give identical runs.

    ``step_order`` overrides the default decoder, rounds last-to-first,
    encoder cycle with an explicit list of factor names as accepted by
    :func:`coordinate_step`.
    """

    seed: int = 0
    tol_conv: float = 1e-7
    max_iters: int = 200
    inner_steps: int = 60
    inner_stall: int = 5
    perturbation: float = 1e-2
    step_order: tuple[str, ...] | None = None


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
    :func:`_updated`: their factors come from the feasibility projection,
    which returns clipped PSD blocks with a trace-preservation residual of
    at most ``PROJECTION_TOL`` < ``TP_TOL``.
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
    """Error-model constants and the trajectory sums behind the objective.

    Factors vary between calls; everything derived from the error model,
    the input state, and the memory structure is computed once.
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
        self.trajectories = (
            list(itertools.product(*(range(n) for n in self.memory_structure)))
            if self.rounds
            else [()]
        )

    def chain(self, state: OptimizationState, traj: tuple[int, ...]):
        """Application-ordered (key, superop) factors of one trajectory."""
        eo, ei = self.encoder_dims
        parts: list[tuple[tuple, np.ndarray]] = [
            (("encoder",), _superop_from_choi(state.encoder, eo, ei))
        ]
        for r in range(self.rounds + 1):
            if r >= 1:
                mu = traj[r - 2] if r >= 2 else 0
                nu = traj[r - 1]
                do, di = self.instrument_dims[r - 1]
                s = _superop_from_choi(state.instruments[r - 1][mu][nu], do, di)
                parts.append(
                    (
                        ("instrument", r, mu, nu),
                        _lift_superop(s, do, di, self.errors.env_dim(r - 1)),
                    )
                )
            parts.append((("error", r), self.err_superops[r]))
        if self.trace_env is not None:
            parts.append((("trace_env",), self.trace_env))
        nu_final = traj[-1] if self.rounds else 0
        do, di = self.decoder_dims
        parts.append(
            (("decoder", nu_final), _superop_from_choi(state.decoders[nu_final], do, di))
        )
        return parts

    def evaluate(self, state: OptimizationState) -> float:
        total = 0.0
        for traj in self.trajectories:
            cur = None
            for _, s in self.chain(state, traj):
                cur = s if cur is None else s @ cur
            total += float(np.trace(cur @ self.n_coeff).real)
        return total

    def coefficient(self, state: OptimizationState, target: tuple) -> np.ndarray:
        """Linear coefficient A of the target factor: F = Tr(X A) + rest."""
        if target[0] == "encoder":
            d_out, d_in = self.encoder_dims
            d_env = 1
        elif target[0] == "instrument":
            d_out, d_in = self.instrument_dims[target[1] - 1]
            d_env = self.errors.env_dim(target[1] - 1)
        elif target[0] == "decoder":
            d_out, d_in = self.decoder_dims
            d_env = 1
        else:
            raise ValueError(f"unknown factor target {target!r}")
        dl2 = self.logical_dim**2
        acc = np.zeros((d_in * d_in, d_out * d_out), dtype=np.complex128)
        hit = False
        for traj in self.trajectories:
            parts = self.chain(state, traj)
            keys = [k for k, _ in parts]
            if target not in keys:
                continue
            hit = True
            idx = keys.index(target)
            pre = np.eye(dl2, dtype=np.complex128)
            for _, s in parts[:idx]:
                pre = s @ pre
            post = None
            for _, s in parts[idx + 1 :]:
                post = s if post is None else s @ post
            if post is None:
                post = np.eye(dl2, dtype=np.complex128)
            b = pre @ self.n_coeff @ post
            acc += _contract_env(b, d_out, d_in, d_env)
        if not hit:
            raise ValueError(f"factor {target!r} appears in no trajectory")
        a = _choi_coeff(acc, d_out, d_in)
        return (a + a.conj().T) / 2.0


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

    Factored evaluation: per memory trajectory the factor superoperators
    are composed in sequence and contracted against the input state, so
    the full multi-leg comb is never materialized.
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


def _step(
    engine: _Engine, state: OptimizationState, which: str, f_current: float
) -> OptimizationState:
    """One projected-ascent coordinate step; never decreases the objective.

    ``f_current`` is the objective of ``state``.
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

    coeffs = [engine.coefficient(state, t) for t in targets]
    linear = lambda xs: sum(
        float(np.trace(x @ a).real) for x, a in zip(xs, coeffs)
    )
    f_rest = f_current - linear(blocks)
    grad_norm = math.sqrt(sum(float(np.linalg.norm(a)) ** 2 for a in coeffs))
    record = lambda st, fid: _updated(
        st,
        fidelity=fid,
        trace=st.trace + (TraceRecord(len(st.trace), which, fid),),
    )
    if grad_norm < 1e-14:
        return record(state, f_current)
    step_size = 1.0 / grad_norm

    best_blocks = [b.copy() for b in blocks]
    best_f = f_current
    xs = [b.copy() for b in blocks]
    stall = 0
    try:
        for _ in range(config.inner_steps):
            moved = [x + step_size * a for x, a in zip(xs, coeffs)]
            xs = _project_family(moved, d_out, d_in)
            f_here = f_rest + linear(xs)
            if f_here > best_f + 1e-12:
                best_f = f_here
                best_blocks = [x.copy() for x in xs]
                stall = 0
            else:
                stall += 1
                if stall >= config.inner_stall:
                    break
    except ValueError as exc:
        return _updated(
            record(state, f_current),
            rejected_steps=state.rejected_steps + (f"{which}: {exc}",),
        )

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
    objective is never below the incoming one beyond 1e-10; a failed
    feasibility projection leaves the factor unchanged and logs the event.
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
