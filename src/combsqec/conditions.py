"""Correctability conditions and decoder synthesis.

Two equivalent checkers decide whether a strategic code corrects an error
model: an algebraic one testing that composed Kraus products act as scalars
on the codespace, and an information-theoretic one testing that a reference
system stays uncorrelated with the outcome and error registers.  Both come
with a constructive decoder built from their respective proofs, plus an
end-to-end recovery verifier.

Throughout, ``K_{e,m,o}`` is the composed operator of error sequence e,
final memory m and outcome sequence o (see :func:`combsqec.model.compose_K`)
and B the codespace basis matrix.  A decoder for final memory m acts on the
check-round output Q_out only, so the channel it inverts has one Kraus
operator K_b per branch b = (o, e, eps): the slice eps of K_{e,m,o} on the
final environment.  The outcome sequences the memory forgets and the
environment are summed incoherently.  Both checkers, both decoders and the
verifier read this one channel, the branch table of :class:`_Composed`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .model import (
    INITIAL_MEMORY,
    ErrorModel,
    StrategicCode,
    TRAJECTORY_CAP,
    WEIGHT_CAP,
    require_chained,
)
from .tensor import LabeledOperator, _spectrum_bits
from .tolerances import (
    BRANCH_WEIGHT_FLOOR, CODESPACE_ATOL, COMPLETENESS_ATOL, MI_TOL_BITS, P_FLOOR,
    RESIDUAL_RTOL, SCHMIDT_UNIFORM_RTOL, UNIT_NORM_ATOL, WEIGHT_CUTOFF,
)

__all__ = [
    "ConditionReport",
    "Decoder",
    "RecoveryRecord",
    "RecoveryReport",
    "branch_supports",
    "check_algebraic",
    "check_static_kl",
    "check_info",
    "synth_decoder_algebraic",
    "synth_decoder_schmidt",
    "verify_recovery",
]

# complex entries of one chunk of the algebraic sweep's T cells (16 MiB)
_FIT_CHUNK = 1 << 20


# ----------------------------------------------------------------------
# report and data types
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Verdict of a correctability checker.

    ``witness`` pinpoints the worst violation: for the algebraic checker an
    ``(i, j, b, b_prime, memory)`` tuple, each branch an (outcome sequence,
    error sequence, environment slice) triple, for the static case
    ``(i, j, a, b)`` Kraus-pair indices, for the entropic checker the final
    memory state.  ``detail`` carries the checker's full table (lambda
    matrices or entropy deficits).
    """

    worst_residual: float
    tolerance: float
    witness: tuple | None
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "detail", dict(self.detail))

    @property
    def correctable(self) -> bool:
        """The verdict: worst residual within tolerance (False for nan)."""
        return bool(self.worst_residual <= self.tolerance)


@dataclass(frozen=True, eq=False)
class Decoder:
    """Per-memory recovery Kraus lists.

    ``kraus[m]`` maps the check-round output space back into the ambient
    codespace.  Per memory, sum of D^dag D must be a projector P (within
    ``COMPLETENESS_ATOL`` of P^2 = P in Frobenius norm); the subspace
    I - P that the listed operators do not cover completes the channel.
    An empty list is the empty sum P = 0, a projector, so it passes
    untested and the completion is the identity.  The constructor is the
    trust boundary: it keeps a read-only complex128 copy of each operator,
    so the caller's arrays may change afterwards.  The synthesizers hand
    over the operators they have just computed through
    :func:`_owned_decoder` instead, which runs the same tests and copies
    nothing.
    """

    output_dim: int
    input_dim: int
    kraus: Mapping[str, tuple[npt.NDArray[np.complex128], ...]]

    def __post_init__(self) -> None:
        kraus: dict[str, tuple[npt.NDArray[np.complex128], ...]] = {}
        for m, ops in self.kraus.items():
            try:
                mats = tuple(np.array(d, dtype=np.complex128) for d in ops)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"decoder Kraus for memory {m!r} is not a complex matrix"
                ) from exc
            kraus[m] = self._checked(m, mats)
        object.__setattr__(self, "kraus", kraus)

    def _checked(
        self, m: str, mats: tuple[npt.NDArray[np.complex128], ...]
    ) -> tuple[npt.NDArray[np.complex128], ...]:
        """Memory ``m``'s complex matrices, after the shape and projector
        tests, marked read-only in place."""
        for d in mats:
            if d.shape != (self.output_dim, self.input_dim):
                raise ValueError(f"decoder Kraus for memory {m!r} has wrong shape")
            d.flags.writeable = False
        if mats:
            stack = np.concatenate(mats)
            total = stack.conj().T @ stack
            if not np.linalg.norm(total @ total - total) <= COMPLETENESS_ATOL:
                raise ValueError(
                    f"decoder for memory {m!r}: sum of D^dag D is not a projector"
                )
        return mats

    def memories(self) -> tuple[str, ...]:
        return tuple(sorted(self.kraus))


def _owned_decoder(
    output_dim: int, input_dim: int, kraus: dict[str, tuple[np.ndarray, ...]]
) -> Decoder:
    """Decoder of complex matrices a synthesizer has just computed.

    They pass the constructor's shape and projector tests and are marked
    read-only in place, not copied, so no one else may hold them.
    """
    decoder = object.__new__(Decoder)
    object.__setattr__(decoder, "output_dim", output_dim)
    object.__setattr__(decoder, "input_dim", input_dim)
    object.__setattr__(
        decoder, "kraus", {m: decoder._checked(m, mats) for m, mats in kraus.items()}
    )
    return decoder


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


@np.errstate(over="ignore", invalid="ignore")
def _bounded_matmul(ops: np.ndarray, blocks: np.ndarray, what: str) -> np.ndarray:
    """``np.matmul(ops, blocks)``, raising when ``what``, the sum of its squared
    moduli, is nan or above ``WEIGHT_CAP``; numpy's overflow warnings are off."""
    out = np.matmul(ops, blocks)
    weight = np.vdot(out, out).real
    if not weight <= WEIGHT_CAP:
        raise ValueError(f"{what} is {weight:.3e}, and the checkers need it at most {WEIGHT_CAP:.1e}")
    return out


def _walk(code: StrategicCode, errors: ErrorModel) -> dict[str, tuple]:
    """Every nonzero K_{e,m,o} B, by one pass over the rounds.

    The checker layer's only enumeration of outcome sequences.  The frontier
    maps a memory state to its live branches: the outcome prefixes that
    hold one, and per branch the index of its prefix, the index of its
    error prefix (C order over the rounds' Kraus counts) and its partial
    product, a (rows, code_dim) block.  It starts from the stack E_{e_0} B;
    per memory, one stacked ``np.matmul`` applies each check outcome (to
    the system leg, the environment leg untouched) and one the next error
    round.  A branch whose partial product is exactly zero stays zero, so
    it is dropped where it appears, and so is a prefix left with no branch;
    nothing else is.  A round of the walk that would build more than
    ``TRAJECTORY_CAP`` branches raises, and so does an error round after
    which a memory's total branch weight, the sum of ||K B||_F^2 over its
    partial products, fails :func:`_bounded_matmul`; a trace
    non-increasing model keeps it at most code_dim.  Returns the frontier
    after the last error round, keyed by final memory.
    """
    interrogator = code.interrogator
    count = 0

    def build(n: int) -> None:
        nonlocal count
        count += n
        if count > TRAJECTORY_CAP:
            raise ValueError(f"{count} composed branches exceed the cap {TRAJECTORY_CAP}")

    stacked = [np.stack([op.data for op in ops]) for ops in errors.kraus_rounds]

    def error_round(r: int, o_of, e_idx, stack):
        ops = stacked[r]
        n, _, k = stack.shape
        build(n * len(ops))
        what = f"branch weights overflow at error round {r}: a memory's total weight"
        out = _bounded_matmul(ops, stack[:, None], what).reshape(n * len(ops), -1, k)
        live = out.any(axis=(1, 2))
        e_next = (e_idx[:, None] * len(ops) + np.arange(len(ops))).reshape(-1)
        return np.repeat(o_of, len(ops))[live], e_next[live], out[live]

    start = np.zeros(1, dtype=np.intp)
    o_of, e_idx, stack = error_round(0, start, start, code.codespace.basis[None])
    frontier = {INITIAL_MEMORY: ([()], o_of, e_idx, stack)} if len(stack) else {}
    for r in range(1, interrogator.rounds + 1):
        env = errors.env_dim(r - 1)
        count = 0
        parts: dict[str, list[tuple]] = {}
        for memory, (prefixes, o_of, e_idx, stack) in frontier.items():
            n, rows, k = stack.shape
            grid = stack.reshape(n, rows // env, env * k)
            inst = interrogator.instrument(r, memory)
            for o in inst.outcomes:
                build(n)
                out = np.matmul(inst.kraus[o].data, grid).reshape(n, -1, k)
                live = out.any(axis=(1, 2))
                if not live.any():
                    continue
                nxt = interrogator.update.next_memory(r, o, memory)
                parts.setdefault(nxt, []).append(
                    ([p + (o,) for p in prefixes], o_of[live], e_idx[live], out[live])
                )
        frontier = {}
        for memory, chunks in parts.items():
            prefixes, o_of = [], []
            for chunk_prefixes, chunk_o, _, _ in chunks:
                o_of.append(chunk_o + len(prefixes))
                prefixes.extend(chunk_prefixes)
            o_of, e_idx, stack = error_round(
                r,
                np.concatenate(o_of),
                np.concatenate([c[2] for c in chunks]),
                np.concatenate([c[3] for c in chunks]),
            )
            if len(stack):
                used = np.flatnonzero(np.bincount(o_of))
                prefixes = [prefixes[i] for i in used.tolist()]
                frontier[memory] = (prefixes, np.searchsorted(used, o_of), e_idx, stack)
    return frontier


class _Composed:
    """The nonzero branches of an instance, grouped by final memory.

    Built by one :func:`_walk` and no other enumeration: ``outcomes[m]`` is
    its prefixes reaching m in lexicographic order.  A branch is one
    final-environment slice of a nonzero K_{e,m,o} B: rows q * env + eps of
    the walk's (q * env, k) block, for q in Q_out.  Per final memory m,
    ``blocks[m]`` is the (n_b, out, k) stack of the exactly nonzero slices
    in (outcome, error, slice) C order; branch b has outcome sequence
    ``outcomes[m][row[m][b]]``, error sequence ``sequence(err[m][b])`` and
    environment slice ``eps[m][b]``.  These are the Kraus operators of the
    channel a decoder for m acts on: it reads Q_out only, so the outcome
    sequences the memory forgets and the final environment are summed
    incoherently.  A memory no branch reaches has no branch: it holds one
    shared, read-only (0, out, k) stack and empty index arrays, and costs
    no per-memory work.

    Its two tolerance-independent products, the properties :attr:`sweep` and
    :attr:`sectors`, are built on first use; they live and die with the
    table, so they follow its identity rule, and are read-only like it.
    """

    def __init__(self, code: StrategicCode, errors: ErrorModel):
        if errors.q_in_dim(0) != code.codespace.ambient_dim:
            raise ValueError(
                f"dim mismatch feeding error round 0: the codespace has ambient dim "
                f"{code.codespace.ambient_dim}, error expects {errors.q_in_dim(0)}"
            )
        require_chained(code.interrogator, errors)
        self.basis = code.codespace.basis
        self.code_dim = k = code.codespace.dim
        self.counts = tuple(len(ops) for ops in errors.kraus_rounds)
        self.out_dim = q = errors.q_out_dim(errors.rounds)
        env = errors.env_dim(errors.rounds)
        reached = _walk(code, errors)
        self.memories = code.interrogator.final_memories
        self.outcomes: dict[str, tuple[tuple[str, ...], ...]] = dict.fromkeys(self.memories, ())
        self.row: dict[str, np.ndarray] = {}
        self.err: dict[str, np.ndarray] = {}
        self.eps: dict[str, np.ndarray] = {}
        self.blocks: dict[str, np.ndarray] = {}
        empty = np.zeros(0, dtype=np.intp)
        no_blocks = np.zeros((0, q, k), dtype=np.complex128)
        empty.flags.writeable = no_blocks.flags.writeable = False
        for m in self.memories:
            if m not in reached:
                self.row[m] = self.err[m] = self.eps[m] = empty
                self.blocks[m] = no_blocks
                continue
            prefixes, o_of, e_idx, stack = reached[m]
            order = sorted(range(len(prefixes)), key=prefixes.__getitem__)
            self.outcomes[m] = tuple(prefixes[i] for i in order)
            n = len(stack)
            slices = stack.reshape(n, q, env, k).transpose(0, 2, 1, 3).reshape(n * env, q, k)
            row, err = np.repeat(np.argsort(order)[o_of], env), np.repeat(e_idx, env)
            eps = np.tile(np.arange(env), n)
            live = np.flatnonzero(slices.any(axis=(1, 2)))
            keep = live[np.lexsort((eps[live], err[live], row[live]))]
            row, err, eps, slices = row[keep], err[keep], eps[keep], slices[keep]
            for a in (row, err, eps, slices):
                a.flags.writeable = False
            self.row[m], self.err[m], self.eps[m], self.blocks[m] = row, err, eps, slices

    def sequence(self, index: int) -> tuple[int, ...]:
        """The error sequence at ``index`` in C order."""
        return tuple(int(i) for i in np.unravel_index(index, self.counts))

    def branch(self, m: str, b: int) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        """Branch b of memory m as (outcome sequence, error sequence, slice)."""
        return (
            self.outcomes[m][self.row[m][b]],
            self.sequence(self.err[m][b]),
            int(self.eps[m][b]),
        )

    def support(self, m: str) -> tuple[tuple, ...]:
        """The branches of memory m, in order."""
        return tuple(self.branch(m, b) for b in range(len(self.blocks[m])))

    @functools.cached_property
    def sweep(self) -> tuple:
        """The algebraic checker's product: :func:`_algebraic_sweep`."""
        return _algebraic_sweep(self)

    @functools.cached_property
    def sectors(self) -> dict[str, tuple]:
        """The entropic checker's and both decoders' product: :func:`_schmidt_sectors`."""
        return _schmidt_sectors(self)

    def scale(self) -> float:
        """Largest branch norm, and at least 1."""
        stack = np.concatenate([self.blocks[m] for m in self.memories])
        norms = np.linalg.norm(stack, 2, axis=(-2, -1))
        return max(1.0, float(np.max(norms, initial=0.0)))


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
    code: StrategicCode, errors: ErrorModel
) -> dict[tuple[int, ...], list[tuple[str, ...]]]:
    """Outcome sequences whose K_{e,m,o} B carries weight, per error sequence."""
    comp = _composed(code, errors)
    supports: dict[tuple[int, ...], set[tuple[str, ...]]] = {
        e: set() for e in errors.sequences()
    }
    for m in comp.memories:
        heavy = np.linalg.norm(comp.blocks[m], axis=(1, 2)) > BRANCH_WEIGHT_FLOOR
        for o, e in zip(comp.row[m][heavy], comp.err[m][heavy]):
            supports[comp.sequence(e)].add(comp.outcomes[m][o])
    return {e: sorted(outs) for e, outs in supports.items()}


# ----------------------------------------------------------------------
# Checker 1: the algebraic condition
# ----------------------------------------------------------------------


def _fit_cells(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar fits of every cell T[a, b] = left[a]^dag right[b].

    ``left`` and ``right`` are (n, out, k) stacks of blocks.  Each cell is
    reduced to its least-squares scalar lambda = Tr(T) / k and the residual
    ||T - lambda I||_F.  Returns lambda, the residual and the worst entry,
    each of shape (n_left, n_right); the worst entry is the position
    j * k + i of the first largest entry of |T - lambda I|, with (i, j) its
    (column, row).

    All cells are one Gram matrix of the (out, n k) column stacks,
    G[(a, i), (b, j)] = T[a, b][i, j], formed by ``np.matmul`` in chunks of
    at most ``_FIT_CHUNK`` entries.
    """
    n_left, out, k = left.shape
    n_right = len(right)
    columns = lambda x: x.transpose(1, 0, 2).reshape(out, len(x) * k)
    left_h = np.ascontiguousarray(columns(left).conj().T)
    lam = np.empty((n_left, n_right), dtype=np.complex128)
    res = np.empty((n_left, n_right))
    entry = np.empty((n_left, n_right), dtype=np.intp)
    step = max(1, _FIT_CHUNK // (n_left * k * k))
    diag = np.arange(k)
    for start in range(0, n_right, step):
        cut = slice(start, min(start + step, n_right))
        dev = (left_h @ columns(right[cut])).reshape(n_left, k, -1, k)
        lam[:, cut] = np.trace(dev, axis1=1, axis2=3) / k
        dev[:, diag, :, diag] -= lam[:, cut]
        res[:, cut] = np.linalg.norm(dev, axis=(1, 3))
        cells = np.abs(dev).transpose(0, 2, 1, 3)
        entry[:, cut] = cells.reshape(n_left, -1, k * k).argmax(axis=2)
    return lam, res, entry


def _algebraic_sweep(comp: _Composed) -> tuple:
    """Worst residual, its witness and the detail table of one sweep.

    Each memory's branches are fitted against each other, and the fitted
    scalars are Lambda_m.  The witness names the first worst cell (b', b)
    in C order of the first memory that holds it.
    """
    k = comp.code_dim
    worst = 0.0
    witness: tuple | None = None
    lambdas: dict[str, np.ndarray] = {}
    for m in comp.memories:
        blocks = comp.blocks[m]
        lam = np.zeros((len(blocks), len(blocks)), dtype=np.complex128)
        if len(blocks):
            lam, fit, entry = _fit_cells(blocks, blocks)
            a, b = np.unravel_index(int(np.argmax(fit)), fit.shape)
            if witness is None or fit[a, b] > worst:
                worst = float(fit[a, b])
                j, i = divmod(int(entry[a, b]), k)
                witness = (i, j, comp.branch(m, b), comp.branch(m, a), m)
        lambdas[m] = (lam + lam.conj().T) / 2.0
        lambdas[m].flags.writeable = False
    detail = {
        "lambda": lambdas,
        "support": {m: comp.support(m) for m in comp.memories},
        "memories": comp.memories,
        "scale": comp.scale(),
    }
    return worst, witness, detail


def check_algebraic(
    code: StrategicCode, errors: ErrorModel, tol: float | None = None
) -> ConditionReport:
    """Algebraic correctability check.

    The Knill–Laflamme condition on the channel each final memory m leaves
    on Q_out, whose Kraus operators are the memory's branches K_b (see
    :class:`_Composed`).  For each pair (b', b) of branches of m the
    codespace matrix T = B^dag K_b'^dag K_b B is reduced to its
    least-squares scalar lambda = Tr(T) / code_dim and the residual
    ||T - lambda I||_F.  Correctable iff every residual is within tolerance
    (default ``RESIDUAL_RTOL`` times the largest branch norm).  A branch's phase
    scales its cells by a unit number, so no verdict or residual depends on
    Kraus phases.  The witness is ``(i, j, b, b_prime, m)``: the first cell
    of largest residual in (m, b', b) order, each branch named as (outcome
    sequence, error sequence, environment slice), and (i, j) the (column,
    row) of the largest entry of |T - lambda I| in that cell; when every
    residual is zero it is the first cell of the first memory with a
    branch.  All cells of a memory are reduced in one batch, whose rounding
    may differ from a per-cell reduction in the last bit, so of two cells
    or entries that tie in exact arithmetic (such as (b', b) and (b, b')
    when T is Hermitian) either may be named.  No cap bounds the outcome
    sequences; ``TRAJECTORY_CAP`` bounds the branches a round of the walk builds.

    ``detail`` holds:

    * ``"lambda"``: per final memory m the matrix Lambda_m, the Gram matrix
      of the branches B^dag K_b^dag over code_dim, so Hermitian up to
      rounding and stored symmetrized.  Decoder synthesis does not read it:
      its eigenpairs are the singular pairs of the stacked branches.
    * ``"support"``: per final memory, the branches indexing its
      ``"lambda"``, in order, each as (outcome sequence, error sequence,
      environment slice).
    * ``"memories"``: the final memory states, reached by a branch or not.
    * ``"scale"``: the largest branch norm.
    """
    worst, witness, detail = _composed(code, errors).sweep
    tolerance = RESIDUAL_RTOL * detail["scale"] if tol is None else float(tol)
    return ConditionReport(
        worst_residual=worst,
        tolerance=tolerance,
        witness=witness,
        detail={
            **detail,
            "lambda": dict(detail["lambda"]),
            "support": dict(detail["support"]),
        },
    )


def check_static_kl(
    codespace,
    kraus: Sequence[npt.NDArray[np.complex128] | LabeledOperator],
    tol: float | None = None,
) -> ConditionReport:
    """Static (zero-round) condition on a plain Kraus list.

    Tests that B^dag E_a^dag E_b B is a scalar for every operator pair.
    Raises when the sum of ||E_a B||_F^2 fails :func:`_bounded_matmul`.
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
    stack = np.stack(mats)
    blocks = _bounded_matmul(stack, basis, "Kraus weights overflow: the sum of ||E_a B||_F^2")
    scale = max(1.0, float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1)))))
    tolerance = RESIDUAL_RTOL * scale if tol is None else float(tol)
    lam, res, entry = _fit_cells(blocks, blocks)
    a, b = (int(x) for x in np.unravel_index(int(np.argmax(res)), res.shape))
    j, i = divmod(int(entry[a, b]), codespace.dim)
    worst = float(res[a, b])
    return ConditionReport(
        worst_residual=worst,
        tolerance=tolerance,
        witness=(i, j, a, b),
        detail={"lambda": lam, "scale": scale, "code_dim": codespace.dim},
    )


# ----------------------------------------------------------------------
# Checker 2: the information-theoretic condition
# ----------------------------------------------------------------------


def _schmidt_sectors(comp: _Composed) -> dict[str, tuple]:
    """Per memory m: (p_m, deficit, spectrum, vectors), from two SVDs.

    Each sector's state (1/sqrt(k)) sum_{i,b} |i>_R |o>_O |e, eps>_E K_b B|i>,
    over the memory's branches b = (o, e, eps), is pure on (R, O, E, Q_out),
    so S(RME) = S(Q_out) and S(ME) = S(R Q_out).  Both spectra are squared
    singular values, divided by k, of the memory's branch stack reshaped as
    (Q | R branch) and as (Q R | branch); the latter's left singular
    vectors are the Schmidt vectors both decoders read.  Zero slices add no
    singular value, so the branches suffice.  Memories with as many
    branches share one stacked SVD call.
    ``spectrum`` is the nonzero spectrum of the unnormalized rho_ME, and
    ``deficit`` is None at or below the weight floor.
    """
    k, out = comp.code_dim, comp.out_dim
    log_k = math.log2(k)
    by_count: dict[int, list[str]] = {}
    for m in comp.memories:
        by_count.setdefault(len(comp.blocks[m]), []).append(m)
    sectors: dict[str, tuple] = {}
    for n_b, group in by_count.items():
        blocks = np.stack([comp.blocks[m] for m in group])    # (g, n_b, out, k)
        q_side = np.moveaxis(blocks, 2, 1).reshape(len(group), out, n_b * k)
        rq_side = blocks.transpose(0, 2, 3, 1).reshape(len(group), out * k, n_b)
        s_q = np.linalg.svd(q_side, full_matrices=False)[1]
        vectors, s_rq, _ = np.linalg.svd(rq_side, full_matrices=False)
        vectors.flags.writeable = False
        for g, m in enumerate(group):
            spectrum = s_rq[g] ** 2 / k
            p = float(np.sum(spectrum))
            deficit = None
            if p > P_FLOOR:
                deficit = (
                    log_k
                    + _spectrum_bits(spectrum / p)
                    - _spectrum_bits(s_q[g] ** 2 / k / p)
                )
            spectrum.flags.writeable = False
            sectors[m] = (p, deficit, spectrum, vectors[g])
    return {m: sectors[m] for m in comp.memories}


def check_info(
    code: StrategicCode, errors: ErrorModel, tol: float | None = None
) -> ConditionReport:
    """Entropic correctability check.

    Per memory sector the deficit log2(code_dim) - [S(RME) - S(ME)]
    vanishes exactly when the record registers decouple from a maximally
    mixed reference; this is the complementary-channel coherent-information
    form of the criterion.  Correctable iff the largest deficit over all
    sectors above the weight floor is <= tol bits (default ``MI_TOL_BITS``).
    Plain per-sector mutual information would miss instruments that filter
    the codespace (the reference marginal turns pure instead of
    correlated), so the deficit is the quantity reported.  The witness is
    the memory of largest deficit, the first in sorted order among deficits
    that tie exactly; rounding may split deficits that tie in exact
    arithmetic (sectors related by a symmetry), so of those either may be
    named.  With no sector above the floor the channel is empty, and the
    verdict is the algebraic checker's: correctable, deficit 0, no witness.

    Each sector's state on (R, O, E, Q_out) is pure, the final environment
    sitting in E with the error sequence, so S(RME) = S(Q_out) and
    S(ME) = S(R Q_out): both come from SVDs of the memory's branches,
    once per table, and no register-sized matrix is formed, so
    ``COMBSQEC_DENSE_CAP`` does not bound this checker.  ``detail`` holds
    ``"deficit_bits"`` and ``"weights"`` (P(m)) per memory, and ``"p_floor"``.
    """
    sectors = _composed(code, errors).sectors
    tol = MI_TOL_BITS if tol is None else tol
    table = {m: d for m, (_, d, _, _) in sectors.items() if d is not None}
    witness = max(table, key=table.__getitem__, default=None)
    worst = float(table.get(witness, 0.0))
    return ConditionReport(
        worst_residual=worst,
        tolerance=float(tol),
        witness=None if witness is None else (witness,),
        detail={
            "deficit_bits": table,
            "weights": {m: p for m, (p, _, _, _) in sectors.items()},
            "p_floor": P_FLOOR,
        },
    )


# ----------------------------------------------------------------------
# decoder synthesis
# ----------------------------------------------------------------------


def _decoder(comp: _Composed, sectors: dict[str, tuple], uniform: bool) -> Decoder:
    """Per memory, invert the sector's Schmidt vectors by a polar step.

    Each Schmidt vector of weight above ``WEIGHT_CUTOFF``, an
    (out * code_dim) unit column, reshaped to (out, code_dim) and scaled by
    sqrt(code_dim), is one block.  The polar isometry of the blocks'
    horizontal stack keeps correctable instances exact and turns
    near-orthonormal stacks into valid Kraus sets; with no block the memory
    gets no Kraus operator, and no SVD runs.  With
    ``uniform`` a block whose column norms are not uniform across codewords
    raises (a Schmidt-rank inconsistency: the sector's state is not a
    product).
    """
    k, out, basis = comp.code_dim, comp.out_dim, comp.basis
    kraus: dict[str, tuple[np.ndarray, ...]] = {}
    for m, (_, _, spectrum, vectors) in sectors.items():
        keep = spectrum > WEIGHT_CUTOFF
        if not keep.any():
            kraus[m] = ()
            continue
        q, u = spectrum[keep], vectors[:, keep].reshape(out, k, -1)
        if uniform:
            # column norms of each block, weighted by its eigenvalue
            norms2 = q * k * np.sum(np.abs(u) ** 2, axis=0)
            dev = np.max(np.abs(norms2 - q), axis=0)
            bad = np.flatnonzero(dev > SCHMIDT_UNIFORM_RTOL * np.maximum(1.0, q))
            if bad.size:
                a = bad[0]
                raise ValueError(
                    "Schmidt-rank inconsistency: projected norms "
                    f"{norms2[:, a]} differ from eigenvalue {q[a]:.3e} "
                    f"for memory {m!r}; the joint state is not a product"
                )
        r = len(q)
        stack = math.sqrt(k) * u.transpose(0, 2, 1).reshape(out, r * k)
        w, _, vh = np.linalg.svd(stack, full_matrices=False)
        iso = w @ vh
        kraus[m] = tuple(basis @ iso[:, a * k : (a + 1) * k].conj().T for a in range(r))
    return _owned_decoder(basis.shape[0], out, kraus)


def synth_decoder_algebraic(
    code: StrategicCode, errors: ErrorModel, require_correctable: bool = True
) -> Decoder:
    """Decoder from the algebraic proof.

    Lambda_m of :func:`check_algebraic` is M^dag M / code_dim for the
    (out * code_dim, n_b) matrix M whose column b is branch K_b B.  So the
    SVD of M gives Lambda_m's eigenvalues s^2 / code_dim and, as left
    singular vectors, the orthogonal error directions F_alpha: the branches
    rotated by an eigenvector, over the root of its eigenvalue, are
    sqrt(code_dim) times one.  That SVD is the one :func:`check_info`
    decides on, so both synthesizers read its product and differ only in
    the gate they run and the entropic decoder's uniform-norm check.  Each
    direction is inverted back onto the codespace; those of weight at or
    below ``WEIGHT_CUTOFF`` never occur on the codespace and are dropped.
    The gate is :func:`check_algebraic` at its default tolerance.  With
    ``require_correctable=False`` the construction proceeds on failing
    instances, without running the check, and yields the best-effort
    projective decoder.  A memory with no branch gets no Kraus operator.
    """
    if require_correctable:
        report = check_algebraic(code, errors)
        if not report.correctable:
            raise ValueError(
                "instance is not correctable (worst residual "
                f"{report.worst_residual:.3e} > tolerance {report.tolerance:.3e}); "
                "pass require_correctable=False for a best-effort decoder"
            )
    comp = _composed(code, errors)
    return _decoder(comp, comp.sectors, uniform=False)


def synth_decoder_schmidt(
    code: StrategicCode, errors: ErrorModel, require_correctable: bool = True
) -> Decoder:
    """Decoder from the entropic proof.

    Each sector's state on (R, O, E, Q_out) is pure, so its Schmidt
    decomposition across (R Q_out | O E) carries the spectrum of rho_ME,
    as S(ME) = S(R Q_out); the Schmidt vectors are read from the product
    :func:`check_info` decides on.  Every Schmidt vector above
    ``WEIGHT_CUTOFF`` is one block, and the polar step the algebraic
    decoder uses too aligns the blocks back with the codespace basis.
    The gate is :func:`check_info` at its default tolerance, whose
    sectors the table caches, so gating costs no second SVD.  Rejects when
    a block's column norms are not uniform across codewords (a Schmidt-rank
    inconsistency, signalling the state is not a product).  No
    register-sized matrix is formed, so ``COMBSQEC_DENSE_CAP`` does not
    bound the synthesis.
    """
    if require_correctable:
        report = check_info(code, errors)
        if not report.correctable:
            raise ValueError(
                "instance is not correctable (worst entropy deficit "
                f"{report.worst_residual:.3e} bits > {report.tolerance:.3e}); "
                "pass require_correctable=False for a best-effort decoder"
            )
    comp = _composed(code, errors)
    return _decoder(comp, comp.sectors, uniform=require_correctable)


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

    For state psi and final memory m, each branch K_b of m (see
    :class:`_Composed`) delivers W_b = K_b psi.  The weight, the sum of
    ||W_b||^2, is the probability of arriving at m, so the weights of a
    state total one for trace-preserving models; the fidelity is the sum
    over decoder Kraus D and branches b of |<psi| D W_b>|^2 over the
    weight, so no recovered state is formed.  Weight in the completion
    I - sum D^dag D counts toward the weight but contributes no fidelity.
    Records run in (state, memory) order.

    The states are validated together, with the first bad one named: a
    wrong dimension or norm in state order, then codespace membership,
    read from the logical coordinates B^dag psi.  The states are converted
    to complex vectors first, in order up to the first of a wrong size, so
    a state numpy cannot convert raises numpy's error before any norm is
    tested.  Per memory, three batched matrix products over all states form
    the arrived vectors W_b = K_b B B^dag psi, the bras <psi| D and their
    overlaps.
    """
    comp = _composed(code, errors)
    ambient = code.codespace.ambient_dim
    out = comp.out_dim
    basis = code.codespace.basis
    vecs, wrong_size = [], None
    for idx, psi in enumerate(states):  # converted up to the first of a wrong size
        vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != ambient:
            wrong_size = f"state {idx} has dim {vec.shape[0]}, ambient is {ambient}"
            break
        vecs.append(vec)
    vecs = np.array(vecs, dtype=np.complex128).reshape(-1, ambient)
    unnormalized = ~(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= UNIT_NORM_ATOL)
    if unnormalized.any():
        raise ValueError(f"state {int(np.argmax(unnormalized))} is not normalized")
    if wrong_size is not None:
        raise ValueError(wrong_size)
    logical = vecs @ basis.conj()                              # (n_s, k)
    # codespace membership from the logical coordinates: psi = B B^dag psi
    outside = np.linalg.norm(vecs - logical @ basis.T, axis=1) > CODESPACE_ATOL
    if outside.any():
        raise ValueError(f"state {int(np.argmax(outside))} lies outside the codespace")
    missing = [m for m in comp.memories if m not in decoder.kraus]
    if missing:
        raise ValueError(f"decoder has no Kraus operators for final memory {missing[0]!r}")
    if (decoder.output_dim, decoder.input_dim) != (ambient, out):
        raise ValueError(
            f"decoder maps dim {decoder.input_dim} to {decoder.output_dim}; the "
            f"instance needs {out} (check-round output) to {ambient} (ambient)"
        )
    weights = np.zeros((len(vecs), len(comp.memories)))
    overlaps = np.zeros_like(weights)
    for col, m in enumerate(comp.memories):
        if not len(comp.blocks[m]):
            continue
        arrived = np.matmul(comp.blocks[m], logical.T)        # (b, q, n_s)
        weights[:, col] = np.sum(np.abs(arrived) ** 2, axis=(0, 1))
        kraus = np.array(decoder.kraus[m], dtype=np.complex128).reshape(-1, ambient, out)
        bras = np.matmul(vecs.conj(), kraus)                  # (n, n_s, q): <psi_s| D_n
        cells = np.matmul(bras.transpose(1, 0, 2), arrived.transpose(2, 1, 0))
        overlaps[:, col] = np.sum(np.abs(cells) ** 2, axis=(1, 2))
    records = [
        RecoveryRecord(idx, m, float(weights[idx, col]),
                       float(overlaps[idx, col]) / float(weights[idx, col]))
        for idx in range(len(vecs))
        for col, m in enumerate(comp.memories)
        if weights[idx, col] > P_FLOOR
    ]
    return RecoveryReport(
        worst_fidelity=min((r.fidelity for r in records), default=math.inf),
        records=tuple(records),
        total_weights=tuple(float(sum(row)) for row in weights.tolist()),
    )
