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
products per pass for L rounds of at most n memory values.  A correlated
model's environment leg rides in the messages, and the trace over the
final environment is part of the last error round.  The engine of
one public call keeps its messages, so a coordinate step on round r
recomputes only the forward messages from round r on and the backward
messages of the rounds changed since the previous step, and builds the
superoperators of those rounds only.  Each coordinate step maximizes the
resulting linear functional Σ_ν Tr(X_ν A_ν) over one family by the
Reimpell–Werner fixed-point iteration (Reimpell–Werner, PRL 94, 080501,
2005; Fletcher–Shor–Win, PRA 75, 012338, 2007).  It runs on Kraus square
roots K_ν of the blocks X_ν = K_ν† K_ν, one input-leg product per
iteration, so its iterates are Gram matrices and CPTP by construction.  So
is the start (see :func:`initial_state`): the optimizer never projects, and
:func:`project_cptp`, Dykstra's projection onto the CPTP set, is a public
utility only.

Everything here works on plain arrays in the row-major Choi convention
(output leg first); the labeled-operator layer is only touched at the
public projection entry point.
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
from .model import WEIGHT_CAP, ErrorModel
from .tensor import LabeledOperator, _owned, permute_subsystems
from .tolerances import (
    ACCEPT_MARGIN, HERMITIAN_RTOL, KERNEL_RTOL, PROJECTION_TOL, PSD_RTOL, PSD_TOL, STALL_MARGIN,
    TP_TOL, completeness_violation, psd_violation, relative_threshold, smallest_eigenvalue,
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


def _superop_from_kraus(mats: Sequence[np.ndarray], q_out: int, q_in: int) -> np.ndarray:
    """Σ K ⊗ K̄ of Kraus operators from q_in ⊗ E to q_out ⊗ E′, each leg E
    trailing its system, with rows and columns reordered to (e, e′, q, q′)."""
    e_out, e_in = len(mats[0]) // q_out, len(mats[0].T) // q_in
    s = sum(np.kron(m, m.conj()) for m in mats)
    s = s.reshape(q_out, e_out, q_out, e_out, q_in, e_in, q_in, e_in)
    return s.transpose(1, 3, 0, 2, 5, 7, 4, 6).reshape((e_out * q_out) ** 2, -1)


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


class _Engine:
    """Error-model constants and the memory sums behind the objective.

    Factors vary between calls; everything derived from the error model,
    the input state, and the memory structure is computed once.  Factor
    round r = 0..L+1 has (out, in) dims ``dims[r]`` and is followed by
    ``after[r]``: error round r for r ≤ L, the identity for r = L+1.  Round
    r has ``outgoing[r]`` outgoing memory values, with ``outgoing =
    (1, *memory_structure, 1)``.  By default every check round has two
    memory values and the input state is the maximally mixed one.

    The sum over memory trajectories factorizes round by round, because a
    chain depends on its trajectory only through adjacent memory values.
    So :meth:`evaluate` and :meth:`coefficients` run forward messages
    F_{−1} = I, F_r[ν] = after_r·Σ_μ S_{r,μ,ν}·F_{r−1}[μ] and backward
    messages B_{L+1} = after_{L+1}, B_{r−1}[μ] = (Σ_ν B_r[ν]·S_{r,μ,ν})·after_{r−1},
    with S_{r,μ,ν} the superoperator of block (r, μ, ν).  Each pass costs
    O(L · max n²) matrix products, against O(∏n_r · L) for the trajectory
    enumeration it replaces.  The environment leg rides in the messages
    beside the logical index: a forward message has rows (e, e′, q, q′), a
    backward one columns, so a block acts on every environment slice by one
    product and is never lifted.  The last error round also traces out the
    final environment, one Kraus operator per slice, so the decoders see none.

    An engine lives for one public call and remembers, by array identity,
    the messages it computed: F_r while the families of rounds ≤ r are
    unchanged, and B_r while those of rounds > r are.  A call redoes only
    the messages after the first changed family, forward, or before the
    last, backward, with the same arithmetic in the same order, so its
    results equal a fresh engine's bitwise.  Each redone message builds the
    S_{r,μ,ν} of its own round and keeps none (see :meth:`_messages`).
    :meth:`coefficients` of a family of round r runs the forward pass only
    up to round r − 1 and the backward pass only down to round r.
    """

    def __init__(
        self,
        errors: ErrorModel,
        logical_dim: int,
        memory_structure: Sequence[int] | None = None,
        rho: np.ndarray | None = None,
    ):
        rounds = errors.rounds
        if memory_structure is None:
            memory_structure = (2,) * rounds
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
        if rho is None:
            rho = np.eye(logical_dim, dtype=np.complex128) / logical_dim
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
        if psd_violation(rho, relative_threshold(PSD_RTOL, rho)) is not None:
            raise ValueError("input state must be positive semidefinite")
        self.n_coeff = _rho_coeff(rho)
        error_rounds = range(rounds + 1)
        self.dims = tuple(zip(
            (*(errors.q_in_dim(r) for r in error_rounds), logical_dim),
            (logical_dim, *(errors.q_out_dim(r) for r in error_rounds)),
        ))
        self.outgoing = (1, *memory_structure, 1)
        self.after, weight = [], 1.0
        for r in error_rounds:
            mats = [op.data for op in errors.round_ops(r)]
            norm = float(np.linalg.svd(np.concatenate(mats), compute_uv=False)[0])
            weight *= norm * norm  # ||sum E^dag E||_2, taken before any product can overflow
            if not weight <= WEIGHT_CAP:
                raise ValueError(
                    f"error weights overflow at error round {r}: the product of ||sum E^dag E||_2 "
                    f"over rounds 0..{r} is {weight:.3e}, above the bound {WEIGHT_CAP:.1e}"
                )
            q_out = errors.q_out_dim(r)
            if r == rounds:  # the final environment, traced out: one Kraus operator per slice
                mats = [k for m in mats for k in m.reshape(q_out, -1, len(m.T)).transpose(1, 0, 2)]
            self.after.append(_superop_from_kraus(mats, q_out, errors.q_in_dim(r)))
        self.after.append(np.eye(logical_dim**2))
        self._fwd: list = []
        self._bwd: list = []

    def _messages(
        self, cache: list, families: Sequence, rounds: Sequence[int], msgs, step
    ):
        """The message after ``rounds``, starting from ``msgs``.

        ``cache[k]`` holds round ``rounds[k]``'s families and the message
        ``step`` made from them; it is reused while every family up to it
        is the same objects, and the pass is redone from the first round
        that differs.  ``step`` gets the round's superoperators, as
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
            d_out, d_in = self.dims[r]
            ops = [[_superop_from_choi(b, d_out, d_in) for b in blocks] for blocks in families[r]]
            msgs = step(r, ops, msgs)
            cache.append((families[r], msgs))
        return msgs

    def _forward(self, families: Sequence, last: int) -> list[np.ndarray]:
        """F_last: F_r[ν] sums every trajectory prefix through ``after[r]``
        that leaves memory value ν; F_{−1} = I."""
        k2 = self.dims[0][1] ** 2
        return self._messages(
            self._fwd, families, range(last + 1),
            [np.eye(k2, dtype=np.complex128)],
            lambda r, ops, prev: [
                self.after[r] @ sum(
                    ops[mu][nu] @ f.reshape(-1, self.dims[r][1] ** 2, k2)
                    for mu, f in enumerate(prev)
                ).reshape(-1, k2)
                for nu in range(self.outgoing[r])
            ],
        )

    def _backward(self, families: Sequence, first: int) -> list[np.ndarray]:
        """B_first: B_r[ν] sums every trajectory suffix from ``after[r]`` on
        that starts from memory value ν; B_{L+1} = after_{L+1}."""
        k2 = len(self.after[-1])
        return self._messages(
            self._bwd, families, range(len(self.dims) - 1, first, -1),
            [self.after[-1]],
            lambda r, ops, prev: [
                sum(
                    b.reshape(-1, self.dims[r][0] ** 2) @ ops[mu][nu] for nu, b in enumerate(prev)
                ).reshape(k2, -1) @ self.after[r - 1]
                for mu in range(self.outgoing[r - 1])
            ],
        )

    def evaluate(self, state: OptimizationState) -> float:
        (final,) = self._forward(state.factors, len(self.dims) - 1)
        return float(np.trace(final @ self.n_coeff).real)

    def coefficients(self, state: OptimizationState, r: int, mu: int) -> np.ndarray:
        """Linear coefficients A_ν of family μ of round r, stacked (count, n, n):
        F = Σ_ν Tr(X_ν A_ν) + rest.

        Block ν gets F_{r−1}[μ]·N·B_r[ν] with N the input state's
        coefficient, summed over the environment slices of the messages;
        F_{r−1}[μ]·N is formed once for the family.
        """
        d_out, d_in = self.dims[r]
        k2 = self.dims[0][1] ** 2  # one product over the (e, e′, logical) index of both messages
        fwd = self._forward(state.factors, r - 1)[mu] @ self.n_coeff
        fwd = fwd.reshape(-1, d_in**2, k2).transpose(1, 0, 2).reshape(d_in**2, -1)
        bwd = (b.reshape(k2, -1, d_out**2).transpose(1, 0, 2).reshape(-1, d_out**2)
               for b in self._backward(state.factors, r))
        a = np.stack([_choi_coeff(fwd @ b, d_out, d_in) for b in bwd])
        return (a + a.conj().transpose(0, 2, 1)) / 2.0


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


def _rw_iterate(hs: np.ndarray, fallback: np.ndarray, d_in: int) -> np.ndarray:
    """One Reimpell–Werner iteration on Kraus roots X_ν = K_ν† K_ν of a
    flagged block family, given H_ν = K_ν A_ν stacked in ``hs``.

    Returns H_ν (I⊗ρ^{+½}) with ρ = Σ_ν Tr_out H_ν† H_ν and ρ^{+½} the
    inverse square root on its support, so X_ν ↦ (I⊗ρ^{+½}) A_ν X_ν A_ν
    (I⊗ρ^{+½}).  On the kernel of ρ (eigenvalues at most ``KERNEL_RTOL``
    times the largest) the rows F_ν (I⊗P) of the incoming ``fallback``
    roots are appended, and a root with more rows than its n columns
    becomes the R factor of its QR, which has the same K† K.  Rounding in
    the eigenvalues of ρ leaves a trace-preservation error of order
    ε·‖ρ‖/λ_min, which the next iteration does not carry over and
    :func:`_kept_blocks` removes once.  Reimpell–Werner, PRL 94, 080501 (2005).
    """
    count, _, n = hs.shape
    rows = hs.reshape(-1, d_in)  # the input leg of every row, every block
    vals, vecs = np.linalg.eigh(rows.conj().T @ rows)
    cut = int(np.searchsorted(vals, KERNEL_RTOL * max(float(vals[-1]), 0.0), "right"))
    sup = vecs[:, cut:]
    out = (rows @ ((sup / np.sqrt(vals[cut:])) @ sup.conj().T)).reshape(count, -1, n)
    if cut == 0:
        return out
    ker = vecs[:, :cut]
    kept = fallback.reshape(-1, d_in) @ (ker @ ker.conj().T)
    out = np.concatenate([out, kept.reshape(count, -1, n)], axis=1)
    return out if out.shape[1] <= n else np.linalg.qr(out, mode="r")


def _kept_blocks(ks: np.ndarray, fallback: np.ndarray, d_in: int) -> np.ndarray:
    """The Choi blocks a step keeps from roots K_ν: one more congruence by
    their own partial trace, which is the identity up to the iterate's
    trace-preservation error, then X_ν = K_ν† K_ν, Hermitized."""
    ks = _rw_iterate(ks, fallback, d_in)
    xs = ks.conj().transpose(0, 2, 1) @ ks
    return (xs + xs.conj().transpose(0, 2, 1)) / 2.0


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
    with A_ν ⪰ 0, stacked by one :meth:`_Engine.coefficients` call for the
    family.  The step runs on Kraus roots X_ν = K_ν† K_ν, taken by one
    batched ``eigh`` of the family's blocks.  Each iteration forms
    H_ν = K_ν A_ν, so Σ_ν Tr(X_ν A_ν) = Σ_ν Tr(K_ν† H_ν) is the objective of
    the current roots, and :func:`_rw_iterate` maps H to the next roots.
    The iteration is repeated, keeping the best iterate, until
    ``INNER_STALL`` iterations in a row fail to raise F by more than
    ``STALL_MARGIN`` or ``inner_steps`` iterations have run, and
    :func:`_kept_blocks` turns the best roots into Choi blocks, with the
    incoming family on any kernel.  The family is accepted only if it passes
    :func:`_family_fault` and its evaluated objective falls no more than
    ``ACCEPT_MARGIN`` below ``f_current``, the objective of ``state``.
    """
    d_out, d_in = engine.dims[r]
    blocks = state.factors[r][mu]
    coeffs = engine.coefficients(state, r, mu)
    f_rest = f_current - float(np.einsum("cij,cji->", blocks, coeffs).real)
    record = lambda st, fid: _updated(
        st,
        fidelity=fid,
        trace=st.trace + (TraceRecord(len(st.trace), which, fid),),
    )

    # root rows: the conjugated eigenvectors, each scaled by its eigenvalue's root
    vals, vecs = np.linalg.eigh(blocks)
    start = ks = np.sqrt(np.maximum(vals, 0.0))[:, :, None] * vecs.conj().transpose(0, 2, 1)
    hs = ks @ coeffs
    best_ks = None
    best_f = f_current
    stall = 0
    for _ in range(state.config.inner_steps):
        ks = _rw_iterate(hs, ks, d_in)
        hs = ks @ coeffs
        f_here = f_rest + float(np.vdot(ks, hs).real)
        if f_here > best_f + STALL_MARGIN:
            best_f = f_here
            best_ks = ks
            stall = 0
        else:
            stall += 1
            if stall >= INNER_STALL:
                break
    best_blocks = blocks if best_ks is None else _kept_blocks(best_ks, start, d_in)

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
    engine = _Engine(errors, logical_dim, memory_structure, rho)
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
    engine = _Engine(errors, logical_dim, memory_structure)
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
