"""See-saw optimization of encoder, check instruments, and decoders.

The strategy side of an instance is a quantum comb (Chiribella–D'Ariano–
Perinotti, PRL 101, 060401, 2008) held as Choi matrices.  Its teeth are
numbered by factor round r = 0..L+1 for L check rounds: round 0 is the
encoder from the logical space into the first register, rounds 1..L are
the check instruments, and round L+1 holds the decoders into the logical
space.  Every round is a set of flagged block families: block (r, μ, ν) is
the Choi matrix of round r for incoming memory value μ and outgoing value
ν, and trace preservation couples the blocks of one family.  The encoder is
one family of one block; decoder ν is round L+1's family for incoming value
ν (the final memory), again of one block.  :class:`OptimizationState`
stores exactly these rounds.  Only its named views, and the factor names
that :func:`_parse_which` reads and :func:`_factor_order` writes, know which
round holds the encoder and which the decoders; everything else treats the
rounds alike.

The objective is the entanglement fidelity of the composite logical channel
against a fixed input state, which is multilinear in the factors.  Its sum
over classical-memory trajectories is taken by forward and backward
messages over memory values (see :class:`_Engine`): O(L · max n²) matrix
products per pass for L rounds of at most n memory values.  The engine of
one public call keeps its messages, so a coordinate step on round r
recomputes only the forward messages from round r on and the backward
messages of the rounds changed since the previous step, and builds the
superoperators of those rounds only.  Each coordinate step maximizes the
resulting linear functional Σ_ν Tr(X_ν A_ν) over one family by the
Reimpell–Werner fixed-point iteration (Reimpell–Werner, PRL 94, 080501,
2005; Fletcher–Shor–Win, PRA 75, 012338, 2007), whose iterates are CPTP by
construction.  So is the start (see :func:`initial_state`): the optimizer
never projects, and :func:`project_cptp`, Dykstra's projection onto the
CPTP set, is a public utility only.

Everything here works on plain square arrays in the row-major Choi
convention (output leg first); the labeled-operator layer is only touched
at the public projection entry point.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import numpy.typing as npt

from .combs import ChoiOperator, _psd_choi
from .model import ErrorModel
from .tensor import LabeledOperator, _owned, permute_subsystems
from .tolerances import (
    ACCEPT_MARGIN, HERMITIAN_RTOL, KERNEL_RTOL, PROJECTION_TOL, PSD_TOL, STALL_MARGIN, TP_TOL,
    completeness_violation, psd_violation, relative_threshold, smallest_eigenvalue,
)

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

PROJECTION_SWEEPS = 500
# RW iterations in a row without a rise above STALL_MARGIN that end a coordinate step
INNER_STALL = 5


# ----------------------------------------------------------------------
# configuration, trace records, and the optimization state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of a see-saw run; identical configs give identical runs.

    ``seed`` (at least 0) draws the start's random instruments, and
    ``perturbation`` (in [0, 1]) is their weight against the embedding
    channels (see :func:`initial_state`).  A cycle steps every factor once;
    the run stops when a cycle moves the fidelity by less than ``tol_conv``
    or after ``max_iters`` cycles (at least 0).  Each coordinate step runs at most
    ``inner_steps`` Reimpell–Werner iterations (at least 1), and stops
    early after ``INNER_STALL`` iterations in a row that raise the step's
    objective by no more than ``STALL_MARGIN``.  ``tol_conv`` is at least 0.
    """

    seed: int = 0
    tol_conv: float = 1e-7
    max_iters: int = 200
    inner_steps: int = 60
    perturbation: float = 1e-2

    def __post_init__(self) -> None:
        for name in ("seed", "max_iters", "inner_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("tol_conv", "perturbation"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not 0.0 <= self.perturbation <= 1.0:
            raise ValueError(
                f"perturbation must be in [0, 1], got {self.perturbation!r}"
            )
        for name, low in (
            ("seed", 0), ("tol_conv", 0), ("max_iters", 0), ("inner_steps", 1)
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")


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


@dataclass(frozen=True, eq=False)
class OptimizationState:
    """Choi factors of a strategy, with the fidelity trace of its run.

    The strategy is factor rounds r = 0..L+1 of one comb (see the module
    docstring): ``dims[r]`` is round r's (out, in) pair and
    ``factors[r][μ][ν]`` its Choi block for incoming memory value μ and
    outgoing value ν.  Trace preservation couples the blocks of one family
    ``factors[r][μ]``, and feasibility messages name blocks that way.  The
    encoder, the check instruments, the decoders, their dims, the logical
    dim and the memory alphabet sizes per check round are read-only views
    of these two fields.

    Construction validates shapes and runs :func:`_family_fault` on every
    block family.  The optimizer's updates skip construction through
    :func:`_updated`, but each coordinate step runs that test on the one
    family it changes, and keeps the old family if the new one fails.
    """

    dims: tuple[tuple[int, int], ...]
    factors: tuple[tuple[tuple[npt.NDArray[np.complex128], ...], ...], ...]
    fidelity: float
    trace: tuple[TraceRecord, ...] = ()
    rejected_steps: tuple[str, ...] = ()
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    converged: bool = True

    def __post_init__(self) -> None:
        dims = tuple((int(d_out), int(d_in)) for d_out, d_in in self.dims)
        if len(dims) < 2 or len(self.factors) != len(dims):
            raise ValueError(
                "one dimension pair and one factor round each for the encoder, "
                "every check round, and the decoders required"
            )
        if dims[0][1] != dims[-1][0]:
            raise ValueError(
                f"encoder input dimension {dims[0][1]} and decoder output "
                f"dimension {dims[-1][0]} must both be the logical dim"
            )
        factors = []
        outgoing = 1
        for r, (per_round, (d_out, d_in)) in enumerate(zip(self.factors, dims)):
            if len(per_round) != outgoing:
                raise ValueError(
                    f"factor round {r} needs {outgoing} incoming block families, "
                    f"got {len(per_round)}"
                )
            outgoing = len(per_round[0]) if 0 < r < len(dims) - 1 else 1
            if outgoing < 1:
                raise ValueError("memory alphabet sizes must be positive")
            for mu, blocks in enumerate(per_round):
                if len(blocks) != outgoing:
                    raise ValueError(
                        f"factor round {r} incoming value {mu} needs {outgoing} "
                        f"blocks, got {len(blocks)}"
                    )
            factors.append(tuple(
                tuple(_as_choi_array(b, f"factor round {r} block", d_out, d_in)
                      for b in blocks)
                for blocks in per_round
            ))
        for r, (per_round, (d_out, d_in)) in enumerate(zip(factors, dims)):
            for mu, blocks in enumerate(per_round):
                fault = _family_fault(blocks, d_out, d_in, r, mu)
                if fault is not None:
                    raise ValueError(fault)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "rejected_steps", tuple(self.rejected_steps))

    @property
    def rounds(self) -> int:
        return len(self.dims) - 2

    @property
    def logical_dim(self) -> int:
        return self.dims[0][1]

    @property
    def memory_structure(self) -> tuple[int, ...]:
        return tuple(len(per_round[0]) for per_round in self.factors[1:-1])

    @property
    def encoder(self) -> npt.NDArray[np.complex128]:
        return self.factors[0][0][0]

    @property
    def instruments(self) -> tuple:
        """``instruments[r - 1][μ][ν]``: check round r's blocks."""
        return self.factors[1:-1]

    @property
    def decoders(self) -> tuple[npt.NDArray[np.complex128], ...]:
        return tuple(dec for (dec,) in self.factors[-1])

    @property
    def encoder_dims(self) -> tuple[int, int]:
        return self.dims[0]

    @property
    def instrument_dims(self) -> tuple[tuple[int, int], ...]:
        return self.dims[1:-1]

    @property
    def decoder_dims(self) -> tuple[int, int]:
        return self.dims[-1]

    def trace_lines(self) -> list[str]:
        return [rec.line() for rec in self.trace]


def _family_fault(
    blocks: Sequence[np.ndarray], d_out: int, d_in: int, r: int, mu: int
) -> str | None:
    """Why family μ of factor round r is infeasible, or None: every block
    must pass the PSD test at ``PSD_TOL`` times max(1, its Frobenius norm),
    and the partial traces the completeness test at ``TP_TOL``."""
    total = np.zeros((d_in, d_in), dtype=np.complex128)
    for nu, block in enumerate(blocks):
        if psd_violation(block, relative_threshold(PSD_TOL, block)) is not None:
            return f"factor round {r} block ({nu}|{mu}) is not PSD"
        total += _trace_out(block, d_out, d_in)
    if completeness_violation(total, TP_TOL) is not None:
        return (
            f"factor round {r} blocks for incoming value {mu} are not trace "
            "preserving"
        )
    return None


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
    the input state, and the memory structure is computed once.  Factor
    round r = 0..L+1 has (out, in) dims ``dims[r]``; its blocks act on the
    system next to an environment leg of dim ``envs[r]``, are lifted by it
    like any instrument, and are followed by ``after[r]``: error round r for
    r ≤ L, and for r = L+1 the trace over the final environment leg (the
    identity when that leg is trivial).  Lifting the decoders and tracing
    afterwards equals tracing first, Tr_E∘(D⊗id_E) = D∘Tr_E.  Round r has
    ``outgoing[r]`` outgoing memory values, with ``outgoing =
    (1, *memory_structure, 1)``.

    The sum over memory trajectories factorizes round by round, because a
    chain depends on its trajectory only through adjacent memory values.
    So :meth:`evaluate` and :meth:`coefficients` run forward messages
    F_{−1} = I, F_r[ν] = after_r·Σ_μ S_{r,μ,ν}·F_{r−1}[μ] and backward
    messages B_{L+1} = after_{L+1}, B_{r−1}[μ] = (Σ_ν B_r[ν]·S_{r,μ,ν})·after_{r−1},
    with S_{r,μ,ν} the lifted superoperator of block (r, μ, ν).  Each pass
    costs O(L · max n²) matrix products, against O(∏n_r · L) for the
    trajectory enumeration it replaces.

    An engine lives for one public call and remembers, by array identity,
    the messages it computed: F_r while the families of rounds ≤ r are
    unchanged, and B_r while those of rounds > r are.  A call redoes only
    the messages after the first changed family, forward, or before the
    last, backward, with the same arithmetic in the same order, so its
    results equal a fresh engine's bitwise.  Each redone message builds the
    S_{r,μ,ν} of its own round and keeps none (see :meth:`_messages`).
    :meth:`coefficients` runs the forward pass only up to round r − 1 and
    the backward pass only down to round r of its targets.
    """

    def __init__(
        self,
        errors: ErrorModel,
        logical_dim: int,
        memory_structure: Sequence[int],
        rho: np.ndarray,
    ):
        rounds = errors.rounds
        memory_structure = tuple(int(n) for n in memory_structure)
        if len(memory_structure) != rounds:
            raise ValueError(
                f"memory structure lists {len(memory_structure)} rounds, "
                f"error model has {rounds}"
            )
        if any(n < 1 for n in memory_structure):
            raise ValueError("memory alphabet sizes must be positive")
        logical_dim = int(logical_dim)
        if logical_dim < 1:
            raise ValueError("logical dimension must be positive")
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (logical_dim, logical_dim):
            raise ValueError(
                f"input state must be {logical_dim} x {logical_dim}, "
                f"got {rho.shape}"
            )
        tau = relative_threshold(HERMITIAN_RTOL, rho)
        if not np.linalg.norm(rho - rho.conj().T) <= tau:
            raise ValueError("input state must be Hermitian")
        if not abs(np.trace(rho).real - 1.0) <= HERMITIAN_RTOL:
            raise ValueError("input state must have unit trace")
        self.n_coeff = _rho_coeff(rho)
        error_rounds = range(rounds + 1)
        self.dims = tuple(zip(
            (*(errors.q_in_dim(r) for r in error_rounds), logical_dim),
            (logical_dim, *(errors.q_out_dim(r) for r in error_rounds)),
        ))
        self.envs = (1, *(errors.env_dim(r) for r in error_rounds))
        self.outgoing = (1, *memory_structure, 1)
        self.after = [
            _superop_from_kraus([op.data for op in errors.round_ops(r)])
            for r in error_rounds
        ] + [_trace_env_superop(logical_dim, self.envs[-1])]
        self._fwd: list = []
        self._bwd: list = []

    def _messages(
        self, cache: list, families: Sequence, rounds: Sequence[int], msgs, step
    ):
        """The message after ``rounds``, starting from ``msgs``.

        ``cache[k]`` holds round ``rounds[k]``'s families and the message
        ``step`` made from them; it is reused while every family up to it
        is the same objects, and the pass is redone from the first round
        that differs.  ``step`` gets the round's lifted superoperators, as
        ``ops[μ][ν]`` = S_{r,μ,ν}, built for it and then dropped.
        """
        for k, r in enumerate(rounds):
            if k < len(cache) and all(
                x is y for old, new in zip(cache[k][0], families[r])
                for x, y in zip(old, new)
            ):
                msgs = cache[k][1]
                continue
            del cache[k:]
            (d_out, d_in), env = self.dims[r], self.envs[r]
            ops = [
                [_lift_superop(_superop_from_choi(b, d_out, d_in), d_out, d_in, env)
                 for b in blocks]
                for blocks in families[r]
            ]
            msgs = step(r, ops, msgs)
            cache.append((families[r], msgs))
        return msgs

    def _forward(self, families: Sequence, last: int) -> list[np.ndarray]:
        """F_last: F_r[ν] sums every trajectory prefix through ``after[r]``
        that leaves memory value ν; F_{−1} = I."""
        return self._messages(
            self._fwd, families, range(last + 1),
            [np.eye(self.dims[0][1] ** 2, dtype=np.complex128)],
            lambda r, ops, prev: [
                self.after[r] @ sum(ops[mu][nu] @ f for mu, f in enumerate(prev))
                for nu in range(self.outgoing[r])
            ],
        )

    def _backward(self, families: Sequence, first: int) -> list[np.ndarray]:
        """B_first: B_r[ν] sums every trajectory suffix from ``after[r]`` on
        that starts from memory value ν; B_{L+1} = after_{L+1}."""
        return self._messages(
            self._bwd, families, range(len(self.dims) - 1, first, -1),
            [self.after[-1]],
            lambda r, ops, prev: [
                sum(b @ ops[mu][nu] for nu, b in enumerate(prev)) @ self.after[r - 1]
                for mu in range(self.outgoing[r - 1])
            ],
        )

    def evaluate(self, state: OptimizationState) -> float:
        (final,) = self._forward(state.factors, len(self.dims) - 1)
        return float(np.trace(final @ self.n_coeff).real)

    def coefficients(
        self, state: OptimizationState, targets: Sequence[tuple[int, int, int]]
    ) -> list[np.ndarray]:
        """Linear coefficient A of each target block (r, μ, ν): F = Tr(X A) + rest.

        The block gets F_{r−1}[μ]·N·B_r[ν] with N the input state's
        coefficient, contracted over the round's environment leg.
        """
        families = state.factors
        for r, mu, nu in targets:
            if not (0 <= r < len(families) and 0 <= mu < len(families[r])
                    and 0 <= nu < len(families[r][mu])):
                raise ValueError(f"unknown factor target {(r, mu, nu)!r}")
        out = []
        for r, mu, nu in targets:
            d_out, d_in = self.dims[r]
            fwd = self._forward(families, r - 1)[mu]
            bwd = self._backward(families, r)[nu]
            b = _contract_env(fwd @ self.n_coeff @ bwd, d_out, d_in, self.envs[r])
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
    psd_res = math.inf if y is None else max(0.0, -smallest_eigenvalue(y))
    raise ValueError(
        f"feasibility projection did not converge in {sweeps} sweeps: "
        f"trace-preservation residual {tp_res:.3e}, PSD residual {psd_res:.3e}"
    )


def project_cptp(x: LabeledOperator, out_labels: Sequence[str]) -> ChoiOperator:
    """Project a square Hermitian operator onto the CPTP Choi set.

    ``out_labels`` names the output legs; the partial trace over them is
    driven to the identity on the remaining legs while eigenvalue clipping
    restores positivity.
    """
    if x.row_subsystems != x.col_subsystems:
        raise ValueError("projection needs identical subsystems on both sides")
    tau = relative_threshold(HERMITIAN_RTOL, x.data)
    if not np.linalg.norm(x.data - x.data.conj().T) <= tau:
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
    op = _owned(ordered.row_subsystems, ordered.col_subsystems, projected)
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
    if engine.dims != state.dims:
        raise ValueError(
            "state dimensions do not match the error model: (out, in) per "
            f"factor round {state.dims} vs {engine.dims}"
        )


def _parse_which(which: str, state: OptimizationState) -> tuple[int, int]:
    """Factor round and incoming memory value of a public factor name."""
    kind, *parts = which.split(":")
    try:
        indices = tuple(int(part) for part in parts)
    except ValueError:
        kind = None
    if kind == "encoder" and not parts:
        return 0, 0
    if kind == "decoder" and len(parts) == 1:
        (nu,) = indices
        if not 0 <= nu < len(state.factors[-1]):
            raise ValueError(f"decoder index {nu} out of range")
        return state.rounds + 1, nu
    if kind == "round" and len(parts) == 2:
        r, mu = indices
        if not 1 <= r <= state.rounds:
            raise ValueError(f"round {r} out of range")
        if not 0 <= mu < len(state.factors[r]):
            raise ValueError(f"incoming memory value {mu} out of range for round {r}")
        return r, mu
    raise ValueError(
        f"unknown factor {which!r}; expected 'encoder', 'decoder:NU', or 'round:R:MU'"
    )


def _tp_congruence(
    ys: Sequence[np.ndarray], fallback: Sequence[np.ndarray], d_out: int, d_in: int
) -> np.ndarray:
    """PSD blocks, stacked, made trace preserving by one input-leg congruence.

    With ρ = Σ_ν Tr_out Y_ν, returns (I⊗ρ^{+½}) Y_ν (I⊗ρ^{+½}) +
    (I⊗P) F_ν (I⊗P), where ρ^{+½} is the inverse square root on the support
    of ρ and P projects onto its kernel (eigenvalues at most ``KERNEL_RTOL``
    times the largest), on which the trace-preserving ``fallback`` family F
    is kept.  Every block is a sum of congruences of PSD matrices; the
    blocks are returned Hermitian, because the congruence by large entries
    of ρ^{+½} would otherwise leave an anti-Hermitian rounding part in the
    partial traces that no later congruence removes.
    """
    n = d_out * d_in
    ys = np.asarray(ys)
    rho = np.einsum("caiaj->ij", ys.reshape(-1, d_out, d_in, d_out, d_in))
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > KERNEL_RTOL * max(float(vals[-1]), 0.0)
    sup = vecs[:, keep]
    # (I⊗M) Y_ν (I⊗M) for Hermitian M and every ν, on the input leg by reshapes
    congruence = lambda mat, y: (
        np.matmul(mat, y.reshape(-1, d_out, d_in, n)).reshape(-1, n, d_out, d_in)
        @ mat
    ).reshape(-1, n, n)
    out = congruence((sup / np.sqrt(vals[keep])) @ sup.conj().T, ys)
    if not keep.all():
        ker = vecs[:, ~keep]
        out += congruence(ker @ ker.conj().T, np.asarray(fallback))
    return (out + out.conj().transpose(0, 2, 1)) / 2.0


def _rw_iterate(
    xs: Sequence[np.ndarray], coeffs: Sequence[np.ndarray], d_out: int, d_in: int
) -> np.ndarray:
    """One Reimpell–Werner fixed-point iteration on a flagged block family.

    X_ν ↦ (I⊗ρ^{+½}) A_ν X_ν A_ν (I⊗ρ^{+½}) + (I⊗P) X_ν (I⊗P) with
    ρ = Σ_ν Tr_out A_ν X_ν A_ν, as in :func:`_tp_congruence`; the kernel
    of ρ keeps the incoming channel.  On the support, rounding in the
    eigenvalues of ρ leaves a trace-preservation error of order
    ε·‖ρ‖/λ_min.  The next iteration recomputes ρ from A X A, so that error
    does not carry over; :func:`_step` removes it once, from the family it
    keeps.  Reimpell–Werner, PRL 94, 080501 (2005).
    """
    a = np.asarray(coeffs)
    return _tp_congruence(a @ np.asarray(xs) @ a, xs, d_out, d_in)


def _step(
    engine: _Engine,
    state: OptimizationState,
    r: int,
    mu: int,
    which: str,
    f_current: float,
) -> OptimizationState:
    """One coordinate step on family μ of factor round r, recorded in the
    trace and in ``rejected_steps`` as ``which``; never decreases F.

    The objective is linear in the updated factor, F = Σ_ν Tr(X_ν A_ν) + rest,
    with A_ν ⪰ 0; :func:`_rw_iterate` is repeated on the factor's block
    family, keeping the best iterate, until ``INNER_STALL`` iterations in a
    row fail to raise F by more than ``STALL_MARGIN`` or ``inner_steps``
    iterations have run.  The best iterate is made trace preserving to
    rounding by one more congruence by its partial trace, which is the
    identity up to the iterate's error.  The family is accepted only if it
    passes :func:`_family_fault` and its evaluated objective falls no more
    than ``ACCEPT_MARGIN`` below ``f_current``, the objective of ``state``.
    """
    d_out, d_in = engine.dims[r]
    blocks = state.factors[r][mu]
    coeffs = np.stack(
        engine.coefficients(state, [(r, mu, nu) for nu in range(len(blocks))])
    )
    linear = lambda xs: float(np.einsum("cij,cji->", xs, coeffs).real)
    f_rest = f_current - linear(blocks)
    record = lambda st, fid: _updated(
        st,
        fidelity=fid,
        trace=st.trace + (TraceRecord(len(st.trace), which, fid),),
    )

    best_blocks = xs = blocks
    best_f = f_current
    stall = 0
    for _ in range(state.config.inner_steps):
        xs = _rw_iterate(xs, coeffs, d_out, d_in)
        f_here = f_rest + linear(xs)
        if f_here > best_f + STALL_MARGIN:
            best_f = f_here
            best_blocks = xs
            stall = 0
        else:
            stall += 1
            if stall >= INNER_STALL:
                break
    if best_blocks is not blocks:
        best_blocks = _tp_congruence(best_blocks, blocks, d_out, d_in)

    fault = _family_fault(best_blocks, d_out, d_in, r, mu)
    if fault is None:
        per_round = state.factors[r]
        per_round = (*per_round[:mu], tuple(best_blocks), *per_round[mu + 1:])
        candidate = _updated(
            state, factors=(*state.factors[:r], per_round, *state.factors[r + 1:])
        )
        f_true = engine.evaluate(candidate)
        if f_true >= f_current - ACCEPT_MARGIN:
            return record(candidate, f_true)
        fault = "evaluated objective regressed"
    return _updated(
        record(state, f_current),
        rejected_steps=state.rejected_steps + (f"{which}: {fault}",),
    )


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
    objective is never below the incoming one beyond ``ACCEPT_MARGIN``; a
    step whose evaluated objective would fall further, or whose family
    fails the constructor's feasibility test, leaves the factor unchanged
    and logs the event in ``rejected_steps``.
    """
    r, mu = _parse_which(which, state)
    engine = _Engine(errors, state.logical_dim, state.memory_structure, rho)
    _require_matching_dims(engine, state)
    return _step(engine, state, r, mu, which, engine.evaluate(state))


# ----------------------------------------------------------------------
# initialization and the see-saw loop
# ----------------------------------------------------------------------


def _start_family(
    rng: np.random.Generator, d_out: int, d_in: int, count: int, p: float
) -> tuple[np.ndarray, ...]:
    """(1 − p) × the embedding channel on block 0 plus p × a random
    instrument over all ``count`` blocks.

    The embedding has Kraus operators the d_out × d_in identity and
    |0⟩⟨j| for d_out ≤ j < d_in, so it is trace preserving when it
    truncates too.  The instrument's Kraus operators are the d_out-row
    slices of one seeded isometry (QR of a complex Ginibre matrix),
    d_out·d_in per block, so every block has full Kraus rank: a
    Reimpell–Werner step X ↦ A X A cannot raise it.  Both terms are CPTP,
    so the family is, up to rounding.
    """
    n = d_out * d_in
    shape = (count * n * d_out, d_in)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kraus = np.linalg.qr(g)[0].reshape(count, n, n)  # block, Kraus op, vec
    blocks = [p * (v.T @ v.conj()) for v in kraus]
    embed = np.eye(d_out, d_in).reshape(-1)
    leak = np.zeros(n)
    leak[d_out:d_in] = 1.0  # vec |0><j| is the unit vector at j
    blocks[0] += (1.0 - p) * (np.outer(embed, embed) + np.diag(leak))
    return tuple(blocks)


def _engine(
    errors: ErrorModel,
    logical_dim: int,
    memory_structure: Sequence[int] | None,
    rho: npt.NDArray[np.complex128] | None = None,
) -> _Engine:
    """The engine of one public call, with its defaults: two memory values
    per check round and the maximally mixed input state."""
    ms = memory_structure if memory_structure is not None else (2,) * errors.rounds
    if rho is None:
        rho = np.eye(logical_dim, dtype=np.complex128) / logical_dim
    return _Engine(errors, logical_dim, ms, rho)


def _initial_state(engine: _Engine, config: OptimizerConfig) -> OptimizationState:
    """:func:`initial_state` on ``engine``, whose messages it leaves cached."""
    rng = np.random.default_rng(config.seed)
    families = [
        tuple(
            _start_family(rng, d_out, d_in, outgoing, config.perturbation)
            for _ in range(incoming)
        )
        for (d_out, d_in), incoming, outgoing in zip(
            engine.dims, (1, *engine.outgoing), engine.outgoing
        )
    ]
    state = OptimizationState(engine.dims, families, fidelity=0.0, config=config)
    f0 = engine.evaluate(state)
    return _updated(state, fidelity=f0, trace=(TraceRecord(0, "init", f0),))


def initial_state(
    errors: ErrorModel,
    logical_dim: int,
    memory_structure: Sequence[int] | None = None,
    rho: npt.NDArray[np.complex128] | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationState:
    """Embedding channels mixed with seeded random instruments of weight
    ``config.perturbation`` (see :func:`_start_family`), CPTP without a
    projection; the bare embedding start is stationary for some instances.
    """
    engine = _engine(errors, logical_dim, memory_structure, rho)
    return _initial_state(engine, config or OptimizerConfig())


def _factor_order(state: OptimizationState) -> list[tuple[int, int, str]]:
    """Round, incoming value and trace name of every block family, in the
    see-saw's order: decoders, check rounds from the last, encoder."""
    last = state.rounds + 1
    order = [(last, nu, f"decoder:{nu}") for nu in range(len(state.factors[last]))]
    for r in range(state.rounds, 0, -1):
        order += [(r, mu, f"round:{r}:{mu}") for mu in range(len(state.factors[r]))]
    order.append((0, 0, "encoder"))
    return order


def seesaw(
    errors: ErrorModel,
    logical_dim: int,
    memory_structure: Sequence[int] | None = None,
    config: OptimizerConfig | None = None,
) -> OptimizationState:
    """Cyclic coordinate ascent over decoder, check rounds, and encoder.

    Stops when the objective moves less than ``config.tol_conv`` over a
    full cycle, or after ``config.max_iters`` cycles; ``converged`` on the
    returned state records which rule fired.  The recorded trace is
    nondecreasing and the best state encountered is returned.  The input
    state is the maximally mixed state on the logical space, the
    Reimpell–Werner objective.
    """
    config = config or OptimizerConfig()
    engine = _engine(errors, logical_dim, memory_structure)
    state = _initial_state(engine, config)
    order = _factor_order(state)
    best = state
    converged = False
    for _ in range(config.max_iters):
        f_start = state.fidelity
        for r, mu, which in order:
            state = _step(engine, state, r, mu, which, state.fidelity)
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
    return seesaw(errors, logical_dim, (), config)
