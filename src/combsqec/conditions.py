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
from typing import Any, Callable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .model import (
    INITIAL_MEMORY,
    ErrorModel,
    StrategicCode,
    TRAJECTORY_CAP,
    enumerate_trajectories,
    require_chained,
)
from .tensor import LabeledOperator, _spectrum_bits

__all__ = [
    "ConditionReport",
    "Decoder",
    "RecoveryRecord",
    "RecoveryReport",
    "branch_supports",
    "check_algebraic",
    "check_corollary_all_outcomes",
    "check_static_kl",
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
# Decoder: Frobenius slack of completeness (per sqrt input dim) and of P^2 = P
DECODER_ATOL = 1e-8
# verify_recovery: largest | ||psi|| - 1 | of a state taken as normalized
NORM_ATOL = 1e-10
# verify_recovery: largest ||psi - B B^dag psi|| of a state taken as a codestate
CODESPACE_ATOL = 1e-8
# Schmidt decoder: spread of a block's weighted column norms, relative to max(1, q)
SCHMIDT_UNIFORM_RTOL = 1e-6
# branch_supports: Frobenius norm above which a K_{e,m,o} B block carries weight
BRANCH_WEIGHT_FLOOR = 1e-9
# complex entries of one chunk of the algebraic sweep's T cells (16 MiB)
_FIT_CHUNK = 1 << 20


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
        slack = DECODER_ATOL * max(1.0, math.sqrt(self.input_dim))
        for m in self.kraus:
            total = self.completion[m].astype(np.complex128).copy()
            if total.shape != (self.input_dim, self.input_dim):
                raise ValueError(f"completion for memory {m!r} has wrong shape")
            proj_err = np.linalg.norm(total @ total - total)
            for d in self.kraus[m]:
                if d.shape != (self.output_dim, self.input_dim):
                    raise ValueError(f"decoder Kraus for memory {m!r} has wrong shape")
                total = total + d.conj().T @ d
            if np.linalg.norm(total - eye) > slack:
                raise ValueError(
                    f"decoder for memory {m!r} violates completeness: "
                    "completion + sum of D^dag D != I"
                )
            if proj_err > DECODER_ATOL:
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


def _check_dims(code: StrategicCode, errors: ErrorModel) -> None:
    """Each round reads the system dim the round before it writes."""
    if errors.q_in_dim(0) != code.codespace.ambient_dim:
        raise ValueError(
            f"dim mismatch feeding error round 0: the codespace has ambient dim "
            f"{code.codespace.ambient_dim}, error expects {errors.q_in_dim(0)}"
        )
    require_chained(code.interrogator, errors)


def _walk(code: StrategicCode, errors: ErrorModel) -> dict[str, tuple]:
    """Every nonzero K_{e,m,o} B, by one pass over the rounds.

    The frontier maps a memory state to its live branches: outcome prefixes
    reaching it (a superset of theirs), and per branch the index of its
    prefix, the index of its error prefix (C order over the rounds' Kraus
    counts) and its partial product, a (rows, code_dim) block.  It starts
    from the stack E_{e_0} B; per memory, one stacked ``np.matmul`` applies
    each check outcome (to the system leg, the environment leg untouched)
    and one the next error round.  A branch whose partial product is
    exactly zero stays zero, so it is dropped where it appears; nothing
    else is.  A round of the walk that would build more than
    ``TRAJECTORY_CAP`` branches raises.  Returns the frontier after the
    last error round, keyed by final memory.
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
        out = np.matmul(ops, stack[:, None]).reshape(n * len(ops), -1, k)
        live = out.any(axis=(1, 2))
        e_next = (e_idx[:, None] * len(ops) + np.arange(len(ops))).reshape(-1)
        return np.repeat(o_of, len(ops))[live], e_next[live], out[live]

    start = np.zeros(1, dtype=np.intp)
    frontier = {
        INITIAL_MEMORY: ([()], *error_round(0, start, start, code.codespace.basis[None]))
    }
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
                frontier[memory] = (prefixes, o_of, e_idx, stack)
    return frontier


class _Composed:
    """The nonzero K_{e,m,o} B blocks of an instance, grouped by memory.

    Built by one :func:`_walk`.  Per final memory m the table keeps its
    branches: ``blocks[m]`` is the (n_b, out, k) stack of the nonzero
    blocks in (outcome, error) C order, branch b having outcome sequence
    ``outcomes[m][row[m][b]]`` and error sequence ``cols[m][col[m][b]]``.
    ``cols[m]`` lists the error sequences (C order over the rounds' Kraus
    counts, as :meth:`ErrorModel.sequences` lists them) with a branch, the
    memory's support, and ``aggregated[m][c]`` is K_{e,m} B, the sum of the
    branches of error sequence ``cols[m][c]``.  Every other block is
    exactly zero.  A memory no branch reaches has no branch.
    """

    def __init__(self, code: StrategicCode, errors: ErrorModel):
        _check_dims(code, errors)
        self.basis = code.codespace.basis
        self.code_dim = code.codespace.dim
        self.counts = tuple(len(ops) for ops in errors.kraus_rounds)
        self.env_dim = errors.env_dim(errors.rounds)
        self.out_dim = errors.q_out_dim(errors.rounds) * self.env_dim
        grouped = enumerate_trajectories(code.interrogator)
        self.memories = tuple(sorted(grouped))
        self.outcomes: dict[str, tuple[tuple[str, ...], ...]] = {
            m: tuple(t.outcomes for t in grouped[m]) for m in self.memories
        }
        reached = _walk(code, errors)
        self.row: dict[str, np.ndarray] = {}
        self.col: dict[str, np.ndarray] = {}
        self.cols: dict[str, np.ndarray] = {}
        self.blocks: dict[str, np.ndarray] = {}
        self.aggregated: dict[str, np.ndarray] = {}
        empty = np.zeros(0, dtype=np.intp)
        shape = (self.out_dim, self.code_dim)
        for m in self.memories:
            prefixes, o_of, e_idx, stack = reached.get(
                m, ([], empty, empty, np.zeros((0, *shape), dtype=np.complex128))
            )
            position = {o: i for i, o in enumerate(self.outcomes[m])}
            row = np.array([position[p] for p in prefixes], dtype=np.intp)[o_of]
            order = np.lexsort((e_idx, row))
            cols, col = np.unique(e_idx, return_inverse=True)
            row, col, stack = row[order], col[order], stack[order]
            agg = np.zeros((len(cols), *shape), dtype=np.complex128)
            np.add.at(agg, col, stack)
            for a in (row, col, cols, stack, agg):
                a.flags.writeable = False
            self.row[m], self.col[m], self.cols[m] = row, col, cols
            self.blocks[m], self.aggregated[m] = stack, agg
        self._products: dict[object, Any] = {}

    def sequence(self, index: int) -> tuple[int, ...]:
        """The error sequence at ``index`` in C order."""
        return tuple(int(i) for i in np.unravel_index(index, self.counts))

    def support(self, m: str) -> tuple[tuple[int, ...], ...]:
        """The error sequences with a nonzero block at memory m, in order."""
        return tuple(self.sequence(i) for i in self.cols[m])

    def product(self, key: object, build: Callable[[_Composed], Any]) -> Any:
        """A tolerance-independent product of the table, built on first use.

        Products live and die with the table, so they follow its identity
        rule; their arrays are read-only like the blocks.
        """
        if key not in self._products:
            self._products[key] = build(self)
        return self._products[key]

    def scale(self) -> float:
        """Largest composed-operator norm encountered, and at least 1."""
        stacks = [s for m in self.memories for s in (self.blocks[m], self.aggregated[m])]
        norms = np.linalg.norm(np.concatenate(stacks), 2, axis=(-2, -1))
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
    supports: dict[tuple[int, ...], list[tuple[str, ...]]] = {
        e: [] for e in errors.sequences()
    }
    for m in comp.memories:
        heavy = np.linalg.norm(comp.blocks[m], axis=(1, 2)) > BRANCH_WEIGHT_FLOOR
        for o, c in zip(comp.row[m][heavy], comp.col[m][heavy]):
            supports[comp.sequence(comp.cols[m][c])].append(comp.outcomes[m][o])
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

    Each memory's aggregates K_{e',m} B are fitted against its branches
    K_{e,m,o} B, and lambda is summed per (e', e) into Lambda_m.  Every
    other cell is T = 0, with lambda = 0 and residual 0.  So a memory whose
    worst residual is 0 names its first cell in full C order,
    (o, e', e) = (0, 0, 0) with (i, j) = (0, 0), as a sweep over every cell
    would.
    """
    k = comp.code_dim
    worst = -1.0
    witness: tuple | None = None
    lambdas: dict[str, np.ndarray] = {}
    degenerate: list[tuple[str, tuple[str, ...]]] = []
    for m in comp.memories:
        blocks, row, col, cols = comp.blocks[m], comp.row[m], comp.col[m], comp.cols[m]
        outcomes = comp.outcomes[m]
        res, cell, i, j = 0.0, (0, 0, 0), 0, 0
        lam_m = np.zeros((len(cols), len(cols)), dtype=np.complex128)
        vanishing = np.ones(len(outcomes), dtype=bool)
        if len(blocks):
            lam, fit, entry = _fit_cells(comp.aggregated[m], blocks)   # (e', branch)
            np.add.at(lam_m, (slice(None), col), lam)
            top = float(fit.max())
            if top != 0.0:
                # the first worst cell in (o, e', e) order
                a, b = np.nonzero(fit == top)
                first = np.lexsort((col[b], a, row[b]))[0]
                a, b = a[first], b[first]
                res, cell = top, (row[b], cols[a], cols[col[b]])
                j, i = divmod(int(entry[a, b]), k)
            vanishing[row[np.max(np.abs(blocks), axis=(1, 2)) >= WEIGHT_CUTOFF]] = False
        if res > worst:
            worst = res
            o, a, b = cell
            witness = (i, j, comp.sequence(b), comp.sequence(a), m, outcomes[o])
        degenerate.extend((m, outcomes[io]) for io in np.flatnonzero(vanishing))
        lambdas[m] = (lam_m + lam_m.conj().T) / 2.0
        lambdas[m].flags.writeable = False
    detail = {
        "lambda": lambdas,
        "support": {m: comp.support(m) for m in comp.memories},
        "memories": comp.memories,
        "degenerate_branches": tuple(degenerate),
        "scale": comp.scale(),
    }
    return float(worst), witness, detail


def _algebraic_report(comp: _Composed, tol: float | None) -> ConditionReport:
    """Verdict of the (cached) sweep for check_algebraic and the corollary."""
    worst, witness, detail = comp.product("algebraic", _algebraic_sweep)
    tolerance = RESIDUAL_RTOL * detail["scale"] if tol is None else float(tol)
    return ConditionReport(
        correctable=bool(worst <= tolerance),
        worst_residual=worst,
        tolerance=tolerance,
        witness=witness,
        detail={
            **detail,
            "lambda": dict(detail["lambda"]),
            "support": dict(detail["support"]),
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
    (default ``1e-8`` times the largest composed-operator norm).  The
    witness names the first cell of largest residual in (m, o, e', e)
    order, and (i, j) the (column, row) of the largest entry of
    |T - lambda I| in that cell.  All cells of a memory are reduced in one
    batch, whose rounding may differ from a per-cell reduction in the last
    bit, so of two cells or entries that tie in exact arithmetic (such as
    (e', e) and (e, e') when T is Hermitian) either may be named.

    ``detail`` holds:

    * ``"lambda"``: per final memory m the matrix Lambda_m on the memory's
      support, whose (e', e) entry sums lambda over the outcome sequences
      reaching m.  It is the Gram matrix of the K_{e,m} B over code_dim, so
      it is Hermitian up to rounding and stored symmetrized.  Every entry
      off the support is exactly zero.  Decoder synthesis does not read it:
      its eigenpairs are the singular pairs of the stacked K_{e,m} B.
    * ``"support"``: per final memory, the error sequences indexing its
      ``"lambda"``, in order: those with a nonzero K_{e,m,o} B for some o.
    * ``"memories"``: the final memory states.
    * ``"degenerate_branches"``: the (m, o) branches whose composed
      operators vanish on the codespace, in (m, o) order.
    * ``"scale"``: the largest composed-operator norm.
    """
    return _algebraic_report(_composed(code, errors), tol)


def check_corollary_all_outcomes(
    code: StrategicCode, errors: ErrorModel, tol: float | None = None
) -> ConditionReport:
    """Symmetric per-outcome form, valid when memory stores all outcomes.

    Requires the memory update to be injective on outcome sequences.  There
    each memory pins one outcome sequence, whose branches are the memory's
    aggregates, so the symmetric form is the asymmetric one and the report
    is :func:`check_algebraic`'s, from the same cached sweep.
    """
    comp = _composed(code, errors)
    for m, outcomes in comp.outcomes.items():
        if len(outcomes) > 1:
            raise ValueError(
                f"memory update is not injective: {len(outcomes)} outcome "
                f"sequences share final memory {m!r}; use check_algebraic"
            )
    return _algebraic_report(comp, tol)


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
    stack = np.stack(mats)
    scale = max(1.0, float(np.max(np.linalg.norm(stack, 2, axis=(-2, -1)))))
    tolerance = RESIDUAL_RTOL * scale if tol is None else float(tol)
    blocks = stack @ basis
    lam, res, entry = _fit_cells(blocks, blocks)
    a, b = (int(x) for x in np.unravel_index(int(np.argmax(res)), res.shape))
    j, i = divmod(int(entry[a, b]), codespace.dim)
    worst = float(res[a, b])
    return ConditionReport(
        correctable=bool(worst <= tolerance),
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

    Each sector's state (1/sqrt(k)) sum_{i,o,e} |i>_R |o>_O |e>_E K_{e,m,o} B|i>
    is pure on (R, O, E, Q_out), so S(RME) = S(Q_out) and S(ME) = S(R Q_out).
    Both spectra are squared singular values, divided by k, of the memory's
    branch stack reshaped as (Q | R branch) and as (Q R | branch); the
    latter's left singular vectors are the Schmidt vectors the entropic
    decoder needs.  Zero blocks add no singular value, so the branches
    suffice.  Memories with as many branches share one stacked SVD call.
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
    code: StrategicCode, errors: ErrorModel, tol: float = MI_TOL_BITS
) -> ConditionReport:
    """Entropic correctability check.

    Per memory sector the deficit log2(code_dim) - [S(RME) - S(ME)]
    vanishes exactly when the record registers decouple from a maximally
    mixed reference; this is the complementary-channel coherent-information
    form of the criterion.  Correctable iff the largest deficit over all
    sectors above the weight floor is <= tol (bits).  Plain per-sector
    mutual information would miss instruments that filter the codespace
    (the reference marginal turns pure instead of correlated), so the
    deficit is the quantity reported.  The witness is the memory of largest
    deficit, the first in sorted order among deficits that tie exactly;
    rounding may split deficits that tie in exact arithmetic (sectors
    related by a symmetry), so of those either may be named.

    Each sector's state on (R, O, E, Q_out) is pure, so S(RME) = S(Q_out)
    and S(ME) = S(R Q_out): both come from SVDs of the composed blocks,
    once per table, and no register-sized matrix is formed, so
    ``COMBSQEC_DENSE_CAP`` does not bound this checker.  ``detail`` holds
    ``"deficit_bits"`` and ``"weights"`` (P(m)) per memory, and ``"p_floor"``.
    """
    sectors = _composed(code, errors).product("schmidt", _schmidt_sectors)
    return _info_report(sectors, tol)


def _info_report(sectors: dict[str, tuple], tol: float) -> ConditionReport:
    table = {m: d for m, (_, d, _, _) in sectors.items() if d is not None}
    if not table:
        raise ValueError("no memory state carries weight above the floor")
    witness = max(table, key=table.__getitem__)
    return ConditionReport(
        correctable=bool(table[witness] <= tol),
        worst_residual=float(table[witness]),
        tolerance=float(tol),
        witness=(witness,),
        detail={
            "deficit_bits": table,
            "weights": {m: p for m, (p, _, _, _) in sectors.items()},
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
    vectors: dict[str, np.ndarray],
) -> Decoder:
    """Orthonormalize per-memory singular vectors by polar decomposition.

    ``vectors[m]`` is an (out_dim * code_dim, r) matrix of unit columns;
    column alpha, reshaped to (out_dim, code_dim) and scaled by
    sqrt(code_dim), is one block.  The polar isometry of the blocks'
    horizontal stack keeps correctable instances exact and turns
    near-orthonormal stacks into valid Kraus sets; with r = 0 the memory
    gets no Kraus operator and the identity as completion.
    """
    k = basis.shape[1]
    kraus: dict[str, tuple[np.ndarray, ...]] = {}
    completion: dict[str, np.ndarray] = {}
    for m, vecs in vectors.items():
        r = vecs.shape[1]
        stack = math.sqrt(k) * vecs.reshape(out_dim, k, r).transpose(0, 2, 1).reshape(
            out_dim, r * k
        )
        u, _, vh = np.linalg.svd(stack, full_matrices=False)
        iso = u @ vh
        kraus[m] = tuple(basis @ iso[:, a * k : (a + 1) * k].conj().T for a in range(r))
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

    Lambda_m of :func:`check_algebraic` is M^dag M / code_dim for the
    (out * code_dim, n_e) matrix M whose column e is K_{e,m} B.  So one SVD
    of M per memory gives Lambda_m's eigenvalues s^2 / code_dim and, as
    left singular vectors, the orthogonal error directions F_alpha: the
    K_{e,m} B rotated by an eigenvector, over the root of its eigenvalue,
    are sqrt(code_dim) times one.  Each direction is inverted back onto
    the codespace; those of weight s^2 / code_dim at or below the cutoff
    never occur on the codespace and are dropped.  With
    ``require_correctable=False`` the construction proceeds on failing
    instances, without running the check, and yields the best-effort
    projective decoder.  A memory with an empty support gets no Kraus
    operator and the identity as completion.
    """
    _require_trivial_environment(errors, "the algebraic decoder")
    if require_correctable:
        report = check_algebraic(code, errors, tol)
        if not report.correctable:
            raise ValueError(
                "instance is not correctable (worst residual "
                f"{report.worst_residual:.3e} > tolerance {report.tolerance:.3e}); "
                "pass require_correctable=False for a best-effort decoder"
            )
    comp = _composed(code, errors)
    k = comp.code_dim
    vectors: dict[str, np.ndarray] = {}
    for m in comp.memories:
        agg = comp.aggregated[m]        # (support, out, k)
        stack = agg.reshape(len(agg), comp.out_dim * k).T
        u, s, _ = np.linalg.svd(stack, full_matrices=False)
        vectors[m] = u[:, s**2 / k > WEIGHT_CUTOFF]
    return _blocks_to_decoder(comp.basis, comp.out_dim, vectors)


def synth_decoder_schmidt(
    code: StrategicCode,
    errors: ErrorModel,
    tol: float = MI_TOL_BITS,
    require_correctable: bool = True,
) -> Decoder:
    """Decoder from the entropic proof.

    Each sector's state on (R, O, E, Q_out) is pure, so its Schmidt
    decomposition across (R Q_out | O E) carries the spectrum of rho_ME,
    as S(ME) = S(R Q_out); the Schmidt vectors are read from the product
    :func:`check_info` decides on.  Every Schmidt vector above the cutoff
    is one block, and the polar step the algebraic decoder uses too aligns
    the blocks back with the codespace basis.  Rejects when a block's
    column norms are not uniform across codewords (a Schmidt-rank
    inconsistency, signalling the state is not a product).  No
    register-sized matrix is formed, so ``COMBSQEC_DENSE_CAP`` does not
    bound the synthesis.
    """
    _require_trivial_environment(errors, "the entropic decoder")
    comp = _composed(code, errors)
    sectors = comp.product("schmidt", _schmidt_sectors)
    report = _info_report(sectors, tol)
    if require_correctable and not report.correctable:
        raise ValueError(
            "instance is not correctable (worst entropy deficit "
            f"{report.worst_residual:.3e} bits > {report.tolerance:.3e}); "
            "pass require_correctable=False for a best-effort decoder"
        )
    k = comp.code_dim
    vectors: dict[str, np.ndarray] = {}
    for m, (_, _, spectrum, schmidt) in sectors.items():
        keep = spectrum > SCHMIDT_CUTOFF
        q, u = spectrum[keep], schmidt[:, keep]
        if require_correctable:
            # column norms of each block, weighted by its eigenvalue
            norms2 = q * k * np.sum(np.abs(u.reshape(comp.out_dim, k, -1)) ** 2, axis=0)
            dev = np.max(np.abs(norms2 - q), axis=0)
            bad = np.flatnonzero(dev > SCHMIDT_UNIFORM_RTOL * np.maximum(1.0, q))
            if bad.size:
                a = bad[0]
                raise ValueError(
                    "Schmidt-rank inconsistency: projected norms "
                    f"{norms2[:, a]} differ from eigenvalue {q[a]:.3e} "
                    f"for memory {m!r}; the joint state is not a product"
                )
        vectors[m] = u
    return _blocks_to_decoder(comp.basis, comp.out_dim, vectors)


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

    For state psi and final memory m, W_{e,eps} = (K_{e,m} psi)_eps arrives
    under error sequence e in final environment slice eps, with K_{e,m} the
    coherent sum over the memory's outcome sequences.  The weight, the sum
    of ||W_{e,eps}||^2, is the probability arriving at m; the fidelity is
    the sum over decoder Kraus D, e and eps of |<psi| D W_{e,eps}>|^2 over
    the weight, so no recovered state is formed.  Completion weight counts
    toward the weight but contributes no fidelity.  When a memory state
    merges several outcome sequences the coherent sum makes the weights
    interferometric; they are guaranteed to total one (for trace-preserving
    models) only when each memory state pins a single outcome sequence.
    Records run in (state, memory) order.
    """
    comp = _composed(code, errors)
    ambient = code.codespace.ambient_dim
    q_dim = comp.out_dim // comp.env_dim
    basis = code.codespace.basis
    vecs = []
    for idx, psi in enumerate(states):
        vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != ambient:
            raise ValueError(f"state {idx} has dim {vec.shape[0]}, ambient is {ambient}")
        if abs(np.linalg.norm(vec) - 1.0) > NORM_ATOL:
            raise ValueError(f"state {idx} is not normalized")
        vecs.append(vec)
    vecs = np.array(vecs, dtype=np.complex128).reshape(-1, ambient)
    logical = vecs @ basis.conj()                              # (n_s, k)
    # codespace membership from the logical coordinates: psi = B B^dag psi
    outside = np.linalg.norm(vecs - logical @ basis.T, axis=1) > CODESPACE_ATOL
    if outside.any():
        raise ValueError(f"state {int(np.argmax(outside))} lies outside the codespace")
    missing = [m for m in comp.memories if m not in decoder.kraus]
    if missing:
        raise ValueError(f"decoder has no Kraus operators for final memory {missing[0]!r}")
    if (decoder.output_dim, decoder.input_dim) != (ambient, q_dim):
        raise ValueError(
            f"decoder maps dim {decoder.input_dim} to {decoder.output_dim}; the "
            f"instance needs {q_dim} (check-round output) to {ambient} (ambient)"
        )
    weights = np.zeros((len(vecs), len(comp.memories)))
    overlaps = np.zeros_like(weights)
    for col, m in enumerate(comp.memories):
        if not len(comp.blocks[m]):
            continue
        n_arrived = comp.env_dim * len(comp.cols[m])
        arrived = np.einsum("eak,sk->sae", comp.aggregated[m], logical).reshape(
            len(vecs), q_dim, n_arrived
        )                                                      # (n_s, q, eps e)
        weights[:, col] = np.sum(np.abs(arrived) ** 2, axis=(1, 2))
        kraus = np.array(decoder.kraus[m], dtype=np.complex128).reshape(-1, ambient, q_dim)
        bras = np.einsum("sx,nxq->snq", vecs.conj(), kraus)   # <psi_s| D_n
        overlaps[:, col] = np.sum(np.abs(bras @ arrived) ** 2, axis=(1, 2))
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
