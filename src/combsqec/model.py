"""Strategic-code data model.

A strategic code pairs a codespace with an interrogator: a sequence of
check-instrument rounds whose instrument choice in round r may depend on a
classical memory state folded from earlier outcomes.  Errors interleave with
the rounds and may carry correlations through an environment chain.

Label conventions are fixed here, and only this module spells them out:
higher layers build round operators with :func:`check_op` and
:func:`error_op` and check round-to-round dims with
:func:`require_chained`.

* ``Q{r}``   system entering error round r (``Q0`` is the codespace ambient),
* ``Q{r}p``  system leaving error round r and entering check round r+1,
* ``E{r}``   environment leaving error round r (dimension 1 when uncorrelated).

Check round r maps ``Q{r-1}p -> Q{r}``; error round r maps
``Q{r} (x) E{r-1} -> Q{r}p (x) E{r}`` with no environment input at round 0.
The classical memory alphabet is a set of strings and the initial memory
state is the empty string.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .combs import ChoiOperator, _gram_sum, _psd_choi
from .tensor import LabeledOperator, Subsystems, _check_cap, _owned, dense_cap
from .tolerances import (
    COMPLETENESS_ATOL, PSD_RTOL, UNIT_NORM_ATOL,
    completeness_residual, completeness_violation, psd_violation, relative_threshold,
)

__all__ = [
    "INITIAL_MEMORY",
    "CodeSpace",
    "CheckInstrument",
    "MemoryUpdate",
    "Interrogator",
    "ErrorModel",
    "StrategicCode",
    "Trajectory",
    "q_label",
    "qp_label",
    "env_label",
    "check_op",
    "error_op",
    "require_chained",
    "enumerate_trajectories",
    "count_trajectories",
    "comb_vector",
    "comb_vector_dense",
    "interrogator_operator",
    "compose_K",
    "error_comb",
    "error_comb_vector",
]

INITIAL_MEMORY = ""

TRAJECTORY_CAP = 10**6


def q_label(r: int) -> str:
    """Label of the system entering error round r."""
    return f"Q{r}"


def qp_label(r: int) -> str:
    """Label of the system leaving error round r."""
    return f"Q{r}p"


def env_label(r: int) -> str:
    """Label of the environment leaving error round r."""
    return f"E{r}"


def check_op(r: int, mat: npt.ArrayLike) -> LabeledOperator:
    """Kraus operator of check round r, ``Q{r-1}p -> Q{r}``."""
    mat = np.asarray(mat, dtype=np.complex128)
    d_out, d_in = mat.shape
    return LabeledOperator(((q_label(r), d_out),), ((qp_label(r - 1), d_in),), mat)


def error_op(
    r: int, mat: npt.ArrayLike, env_in: int = 1, env_out: int = 1
) -> LabeledOperator:
    """Kraus operator of error round r, ``Q{r} (x) E{r-1} -> Q{r}p (x) E{r}``.

    The environment is the trailing factor of each side; round 0 has no
    environment input, so ``env_in`` must be 1 there.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    n_rows, n_cols = mat.shape
    if n_rows % env_out:
        raise ValueError(f"row count {n_rows} not divisible by env_out {env_out}")
    if n_cols % env_in:
        raise ValueError(
            f"column count {n_cols} not divisible by the "
            f"incoming environment dim {env_in}"
        )
    rows = ((qp_label(r), n_rows // env_out), (env_label(r), env_out))
    cols = ((q_label(r), n_cols // env_in),)
    if r > 0:
        cols += ((env_label(r - 1), env_in),)
    return LabeledOperator(rows, cols, mat)


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CodeSpace:
    """Orthonormal basis of the initial codespace inside a d-dimensional ambient.

    Args:
        ambient_dim: dimension d of the ambient Hilbert space.
        basis: complex array of shape (d, k) whose columns are the codewords.
    """

    ambient_dim: int
    basis: npt.NDArray[np.complex128] = field(repr=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.basis, dtype=np.complex128)
        if mat.ndim == 1:
            mat = mat.reshape(-1, 1)
        if mat.ndim != 2 or mat.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis must be shaped ({self.ambient_dim}, k), got {mat.shape}"
            )
        if mat.shape[1] < 1:
            raise ValueError("codespace needs at least one basis vector")
        if not completeness_residual(mat.conj().T @ mat) <= UNIT_NORM_ATOL:
            raise ValueError("codespace basis is not orthonormal")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "basis", mat)

    @property
    def dim(self) -> int:
        """Number of codewords k."""
        return int(self.basis.shape[1])

    @property
    def projector(self) -> npt.NDArray[np.complex128]:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class CheckInstrument:
    """A complete set of check Kraus operators, keyed by outcome.

    Every operator has the first one's subsystems, and the set is complete:
    sum of C^dag C equals the identity.  Where the instrument is applied,
    its round and the memory states that select it, is the
    :class:`Interrogator`'s to say, so one object may serve every memory
    state of a round.
    """

    kraus: Mapping[str, LabeledOperator]

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("instrument needs at least one outcome")
        object.__setattr__(self, "kraus", dict(self.kraus))
        first = next(iter(self.kraus.values()))
        for outcome, op in self.kraus.items():
            if (
                op.row_subsystems != first.row_subsystems
                or op.col_subsystems != first.col_subsystems
            ):
                raise ValueError(
                    f"outcome {outcome!r} signature differs within the instrument"
                )
        stack = np.concatenate([op.data for op in self.kraus.values()])
        total = stack.conj().T @ stack
        if completeness_violation(total, COMPLETENESS_ATOL) is not None:
            raise ValueError("instrument is not complete: sum of C^dag C != I")

    @property
    def outcomes(self) -> tuple[str, ...]:
        return tuple(sorted(self.kraus))


@dataclass(frozen=True, eq=False)
class MemoryUpdate:
    """Per-round classical memory update tables.

    ``tables[r-1]`` maps ``(outcome, previous_memory) -> next_memory`` for
    round r; round-1 keys use the initial memory state (the empty string).
    Totality over each instrument's outcome alphabet is enforced when the
    update is paired with instruments inside an :class:`Interrogator`.
    """

    tables: tuple[Mapping[tuple[str, str], str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(dict(t) for t in self.tables))

    @property
    def rounds(self) -> int:
        return len(self.tables)

    def next_memory(self, r: int, outcome: str, memory: str) -> str:
        try:
            return self.tables[r - 1][(outcome, memory)]
        except KeyError as exc:
            raise KeyError(
                f"memory update for round {r} has no entry for outcome "
                f"{outcome!r} in memory state {memory!r}"
            ) from exc

    def fold(self, outcomes: Sequence[str]) -> tuple[str, ...]:
        """Memory trajectory (m_1, ..., m_l) induced by an outcome sequence."""
        if len(outcomes) != self.rounds:
            raise ValueError(
                f"expected {self.rounds} outcomes, got {len(outcomes)}"
            )
        memory = INITIAL_MEMORY
        trace: list[str] = []
        for r, outcome in enumerate(outcomes, start=1):
            memory = self.next_memory(r, outcome, memory)
            trace.append(memory)
        return tuple(trace)


@dataclass(frozen=True)
class Trajectory:
    """One outcome sequence together with its induced memory trajectory."""

    outcomes: tuple[str, ...]
    memories: tuple[str, ...]

    @property
    def final_memory(self) -> str:
        return self.memories[-1] if self.memories else INITIAL_MEMORY


@dataclass(frozen=True, eq=False)
class Interrogator:
    """Adaptive check-instrument sequence with classical memory.

    ``instruments[r-1]`` maps each memory state reachable after round r-1 to
    the :class:`CheckInstrument` applied in round r; memory states that
    apply the same operators may share one object.  Construction validates
    reachability: every reachable memory state has an instrument, every
    instrument outcome has an update-table entry, and all instruments within
    a round share one signature, which maps ``Q{r-1}p -> Q{r}``.
    ``round_dims[r-1]`` is the (input, output) system dim pair of round r.
    """

    instruments: tuple[Mapping[str, CheckInstrument], ...]
    update: MemoryUpdate
    round_dims: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "instruments", tuple(dict(m) for m in self.instruments)
        )
        if self.update.rounds != len(self.instruments):
            raise ValueError(
                f"update has {self.update.rounds} rounds, "
                f"instruments have {len(self.instruments)}"
            )
        reachable: list[frozenset[str]] = [frozenset((INITIAL_MEMORY,))]
        round_dims: list[tuple[int, int]] = []
        for r in range(1, len(self.instruments) + 1):
            table = self.instruments[r - 1]
            signature: tuple[Subsystems, Subsystems] | None = None
            nxt: set[str] = set()
            for memory in sorted(reachable[r - 1]):
                inst = table.get(memory)
                if inst is None:
                    raise ValueError(
                        f"no round-{r} instrument for reachable memory state {memory!r}"
                    )
                first = next(iter(inst.kraus.values()))
                sig = (first.row_subsystems, first.col_subsystems)
                if signature is None:
                    labels = ((q_label(r),), (qp_label(r - 1),))
                    if (first.row_labels, first.col_labels) != labels:
                        raise ValueError(
                            f"round-{r} instrument for memory state {memory!r} must map "
                            f"{labels[1]} -> {labels[0]}, got "
                            f"{first.col_labels} -> {first.row_labels}"
                        )
                    signature = sig
                    round_dims.append((first.col_dim, first.row_dim))
                elif sig != signature:
                    raise ValueError(
                        f"round-{r} instruments disagree on dims across memory states"
                    )
                for outcome in inst.outcomes:
                    nxt.add(self.update.next_memory(r, outcome, memory))
            reachable.append(frozenset(nxt))
        object.__setattr__(self, "_reachable", tuple(reachable))
        object.__setattr__(self, "round_dims", tuple(round_dims))

    @property
    def rounds(self) -> int:
        return len(self.instruments)

    @property
    def reachable(self) -> tuple[frozenset[str], ...]:
        """Memory states reachable after each round; entry 0 is the initial state."""
        return self._reachable  # type: ignore[attr-defined]

    @property
    def final_memories(self) -> tuple[str, ...]:
        return tuple(sorted(self.reachable[self.rounds]))

    def instrument(self, r: int, memory: str) -> CheckInstrument:
        try:
            return self.instruments[r - 1][memory]
        except KeyError as exc:
            raise KeyError(
                f"no round-{r} instrument for memory state {memory!r}"
            ) from exc


@dataclass(frozen=True, eq=False)
class ErrorModel:
    """Per-round error Kraus lists with an optional environment chain.

    ``kraus_rounds[r]`` holds the operators of error round r.  Round 0 maps
    ``Q0 -> Q0p (x) E0``; round r maps ``Q{r} (x) E{r-1} -> Q{r}p (x) E{r}``.
    Environment dimensions of 1 model uncorrelated rounds.  Each round must
    be trace non-increasing (sum of E^dag E bounded by I); pass
    ``require_trace_nonincreasing=False`` to admit unnormalized operator
    sets, e.g. raw Pauli errors fed to the algebraic checker.  A
    non-finite entry is rejected either way: it fails the trace check, and
    without that check each operator is tested for one.
    """

    kraus_rounds: tuple[tuple[LabeledOperator, ...], ...]
    require_trace_nonincreasing: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kraus_rounds", tuple(tuple(r) for r in self.kraus_rounds)
        )
        if not self.kraus_rounds:
            raise ValueError("error model needs at least round 0")
        for r, ops in enumerate(self.kraus_rounds):
            if not ops:
                raise ValueError(f"error round {r} has no Kraus operators")
            expect_rows = (qp_label(r), env_label(r))
            expect_cols = (q_label(r),) if r == 0 else (q_label(r), env_label(r - 1))
            first = ops[0]
            if first.row_labels != expect_rows or first.col_labels != expect_cols:
                raise ValueError(
                    f"error round {r} must map {expect_cols} -> {expect_rows}, "
                    f"got {first.col_labels} -> {first.row_labels}"
                )
            for op in ops[1:]:
                if (
                    op.row_subsystems != first.row_subsystems
                    or op.col_subsystems != first.col_subsystems
                ):
                    raise ValueError(f"error round {r} operators disagree on dims")
            if r > 0:
                prev_env = self.kraus_rounds[r - 1][0].row_dim_of(env_label(r - 1))
                if first.col_dim_of(env_label(r - 1)) != prev_env:
                    raise ValueError(
                        f"environment dim chain breaks between rounds {r - 1} and {r}"
                    )
            if self.require_trace_nonincreasing:
                # the PSD test fails closed on a non-finite entry
                stack = np.concatenate([op.data for op in ops])
                total = stack.conj().T @ stack
                gap = np.eye(first.col_dim) - total
                if psd_violation(gap, relative_threshold(PSD_RTOL, total)) is not None:
                    raise ValueError(
                        f"error round {r} is not trace non-increasing"
                    )
            else:
                for k, op in enumerate(ops):
                    if not np.isfinite(op.data).all():
                        raise ValueError(
                            f"error round {r} operator {k} has a non-finite entry"
                        )

    @property
    def rounds(self) -> int:
        """Number of check rounds the model interleaves with (= l)."""
        return len(self.kraus_rounds) - 1

    def round_ops(self, r: int) -> tuple[LabeledOperator, ...]:
        return self.kraus_rounds[r]

    def q_in_dim(self, r: int) -> int:
        return self.kraus_rounds[r][0].col_dim_of(q_label(r))

    def q_out_dim(self, r: int) -> int:
        return self.kraus_rounds[r][0].row_dim_of(qp_label(r))

    def env_dim(self, r: int) -> int:
        """Dimension of the environment leaving round r."""
        return self.kraus_rounds[r][0].row_dim_of(env_label(r))

    def sequences(self) -> Iterator[tuple[int, ...]]:
        """All error-sequence index tuples e = (e_0, ..., e_l), lexicographic."""
        return itertools.product(*(range(len(ops)) for ops in self.kraus_rounds))


@dataclass(frozen=True, eq=False)
class StrategicCode:
    """A codespace together with its interrogator."""

    codespace: CodeSpace
    interrogator: Interrogator

    def __post_init__(self) -> None:
        dims = self.interrogator.round_dims
        if dims and dims[0][0] != self.codespace.ambient_dim:
            raise ValueError(
                f"round-1 instrument input dim {dims[0][0]} does not match "
                f"the codespace ambient dim {self.codespace.ambient_dim}"
            )

    @property
    def rounds(self) -> int:
        return self.interrogator.rounds


def require_chained(interrogator: Interrogator, errors: ErrorModel) -> None:
    """Raise unless error round r-1 writes the system dim check round r
    reads, and check round r the one error round r reads, for every r."""
    if errors.rounds != interrogator.rounds:
        raise ValueError(
            f"error model spans {errors.rounds} rounds, "
            f"interrogator {interrogator.rounds}"
        )
    for r, (d_in, d_out) in enumerate(interrogator.round_dims, start=1):
        if d_in != errors.q_out_dim(r - 1):
            raise ValueError(
                f"dim mismatch feeding check round {r}: error round {r - 1} "
                f"emits {errors.q_out_dim(r - 1)}, instrument expects {d_in}"
            )
        if d_out != errors.q_in_dim(r):
            raise ValueError(
                f"dim mismatch feeding error round {r}: check round {r} "
                f"emits {d_out}, error expects {errors.q_in_dim(r)}"
            )


# ----------------------------------------------------------------------
# trajectory enumeration
# ----------------------------------------------------------------------


def count_trajectories(interrogator: Interrogator) -> int:
    """Number of outcome sequences without materializing them.

    A round-by-round frontier maps each reachable memory state to the
    number of outcome sequences that reach it.
    """
    frontier = {INITIAL_MEMORY: 1}
    for r in range(1, interrogator.rounds + 1):
        reached: dict[str, int] = {}
        for memory, count in frontier.items():
            for o in interrogator.instrument(r, memory).outcomes:
                nxt = interrogator.update.next_memory(r, o, memory)
                reached[nxt] = reached.get(nxt, 0) + count
        frontier = reached
    return sum(frontier.values())


def enumerate_trajectories(interrogator: Interrogator) -> dict[str, tuple[Trajectory, ...]]:
    """All outcome sequences grouped by final memory state.

    Outcomes are expanded in sorted order per round, so listings are
    deterministic: within a group, sequences run in lexicographic order of
    their outcomes.  Raises if the sequence count exceeds ``TRAJECTORY_CAP``.
    """
    total = count_trajectories(interrogator)
    if total > TRAJECTORY_CAP:
        raise ValueError(
            f"{total} outcome sequences exceed the enumeration cap {TRAJECTORY_CAP}"
        )
    frontier: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = [
        (INITIAL_MEMORY, (), ())
    ]
    for r in range(1, interrogator.rounds + 1):
        expanded = []
        for memory, outcomes, memories in frontier:
            for o in interrogator.instrument(r, memory).outcomes:
                nxt = interrogator.update.next_memory(r, o, memory)
                expanded.append((nxt, outcomes + (o,), memories + (nxt,)))
        frontier = expanded
    grouped: dict[str, list[Trajectory]] = {}
    for memory, outcomes, memories in frontier:
        grouped.setdefault(memory, []).append(Trajectory(outcomes, memories))
    return {m: tuple(v) for m, v in sorted(grouped.items())}


# ----------------------------------------------------------------------
# comb constructions
# ----------------------------------------------------------------------


def _resolve(interrogator: Interrogator, final_memory: str, outcomes: Sequence[str]) -> tuple[str, ...]:
    """Memory trajectory for ``outcomes``, checked against ``final_memory``."""
    memories = interrogator.update.fold(outcomes)
    final = memories[-1] if memories else INITIAL_MEMORY
    if final != final_memory:
        raise ValueError(
            f"outcome sequence {tuple(outcomes)!r} folds to memory {final!r}, "
            f"not {final_memory!r}"
        )
    return memories


def comb_vector(
    interrogator: Interrogator, final_memory: str, outcomes: Sequence[str]
) -> list[LabeledOperator]:
    """Kraus factors [C^(1), ..., C^(l)] selected by an outcome sequence.

    The vectorized tensor product of the returned factors, taken with the
    round-l factor first, is the interrogator comb vector.
    """
    memories = _resolve(interrogator, final_memory, outcomes)
    factors: list[LabeledOperator] = []
    memory = INITIAL_MEMORY
    for r, outcome in enumerate(outcomes, start=1):
        inst = interrogator.instrument(r, memory)
        try:
            factors.append(inst.kraus[outcome])
        except KeyError as exc:
            raise KeyError(
                f"round-{r} instrument for memory {memory!r} has no outcome {outcome!r}"
            ) from exc
        memory = memories[r - 1]
    return factors


def comb_vector_dense(
    interrogator: Interrogator, final_memory: str, outcomes: Sequence[str]
) -> LabeledOperator:
    """Dense comb vector: vectorized factors tensored round-l first.

    Each factor enters by one outer product with the vector so far, the
    same products as ``np.kron`` of vectors.
    """
    factors = comb_vector(interrogator, final_memory, outcomes)
    total = 1
    for f in factors:
        total *= f.row_dim * f.col_dim
    if total > dense_cap():
        raise ValueError(
            f"dense comb vector dim {total} exceeds the cap {dense_cap()}; "
            "use the factored comb_vector workflow"
        )
    vec = np.ones(1, dtype=np.complex128)
    subs: Subsystems = ()
    for f in reversed(factors):
        vec = np.multiply.outer(vec, f.data.reshape(-1)).reshape(-1)
        subs += f.row_subsystems + f.col_subsystems
    return _owned(subs, (), vec.reshape(-1, 1))


def interrogator_operator(interrogator: Interrogator, final_memory: str) -> ChoiOperator:
    """Dense interrogator operator: the PSD sum of comb-vector projectors."""
    trajectories = enumerate_trajectories(interrogator).get(final_memory)
    if trajectories is None:
        raise ValueError(f"no trajectory reaches memory state {final_memory!r}")
    first = comb_vector_dense(interrogator, final_memory, trajectories[0].outcomes)
    vectors = itertools.chain(
        [first.data],
        (comb_vector_dense(interrogator, final_memory, t.outcomes).data for t in trajectories[1:]),
    )
    total = _gram_sum(vectors, first.row_dim)
    inputs = tuple(qp_label(r) for r in range(interrogator.rounds))
    outputs = tuple(q_label(r) for r in range(1, interrogator.rounds + 1))
    op = _owned(first.row_subsystems, first.row_subsystems, total)
    return _psd_choi(op, input_labels=inputs, output_labels=outputs)


def compose_K(
    errors: ErrorModel,
    interrogator: Interrogator,
    error_seq: Sequence[int],
    final_memory: str,
    outcomes: Sequence[str],
) -> LabeledOperator:
    """Composed Kraus operator of one trajectory and one error sequence.

    Alternates error rounds with the outcome-selected check Kraus operators,
    as plain matrix products: E_{e_l} (C^(l) (x) I_E) ... (C^(1) (x) I_E) E_{e_0}.
    The result maps ``Q0 -> Q{l}p (x) E{l}``; the environment leg has
    dimension 1 for uncorrelated models.  Its sides are those of the last
    and the first error round's operators, so it needs no dense-cap check.
    """
    require_chained(interrogator, errors)
    l = interrogator.rounds
    if len(error_seq) != l + 1:
        raise ValueError(f"error sequence must have length {l + 1}")
    factors = comb_vector(interrogator, final_memory, outcomes)

    def error(r: int) -> np.ndarray:
        ops = errors.round_ops(r)
        if not 0 <= error_seq[r] < len(ops):
            raise ValueError(f"error index {error_seq[r]} out of range at round {r}")
        return ops[error_seq[r]].data

    current = error(0)
    for r in range(1, l + 1):
        check = factors[r - 1].data
        env = errors.env_dim(r - 1)
        lifted = check if env == 1 else np.kron(check, np.eye(env))
        current = error(r) @ (lifted @ current)
    rows = (
        (qp_label(l), errors.q_out_dim(l)),
        (env_label(l), errors.env_dim(l)),
    )
    cols = ((q_label(0), errors.q_in_dim(0)),)
    return _owned(rows, cols, current)


def error_comb_vector(errors: ErrorModel, error_seq: Sequence[int]) -> LabeledOperator:
    """Dense comb vector of one error sequence, environment chain contracted.

    Subsystem order is (Q0, Q0p, Q1, Q1p, ..., Ql, Qlp, El); the final
    environment stays open so correlated models keep their purification leg.
    The chain is kept as a matrix (earlier legs | open environment), and
    each round is one matrix product with the round's operator, transposed
    to (environment in | q_r, q_rp, e_r).
    """
    l = errors.rounds
    if len(error_seq) != l + 1:
        raise ValueError(f"error sequence must have length {l + 1}")
    _check_cap(_error_comb_dim(errors))
    ops = errors.round_ops(0)
    op0 = ops[error_seq[0]]
    dq, de = errors.q_out_dim(0), errors.env_dim(0)
    # rows (q0, q0p), columns e0
    cur = op0.data.reshape(dq, de, errors.q_in_dim(0)).transpose(2, 0, 1).reshape(-1, de)
    subs: list[tuple[str, int]] = [
        (q_label(0), errors.q_in_dim(0)),
        (qp_label(0), dq),
    ]
    for r in range(1, l + 1):
        op = errors.round_ops(r)[error_seq[r]]
        dq_in, de_in = errors.q_in_dim(r), errors.env_dim(r - 1)
        dq_out, de_out = errors.q_out_dim(r), errors.env_dim(r)
        # (e_{r-1} | q_r, q_rp, e_r): contract the shared environment
        step = op.data.reshape(dq_out, de_out, dq_in, de_in).transpose(3, 2, 0, 1)
        cur = (cur @ step.reshape(de_in, -1)).reshape(-1, de_out)
        subs.extend([(q_label(r), dq_in), (qp_label(r), dq_out)])
    subs.append((env_label(l), errors.env_dim(l)))
    return _owned(tuple(subs), (), cur.reshape(-1, 1))


def _error_comb_dim(errors: ErrorModel) -> int:
    return errors.env_dim(errors.rounds) * math.prod(
        errors.q_in_dim(r) * errors.q_out_dim(r) for r in range(errors.rounds + 1)
    )


def error_comb(errors: ErrorModel) -> ChoiOperator:
    """Dense error comb: the PSD sum over all error sequences."""
    total_dim = _error_comb_dim(errors)
    if total_dim > dense_cap():
        raise ValueError(
            f"dense error comb dim {total_dim} exceeds the cap {dense_cap()}"
        )
    sequences = errors.sequences()
    first = error_comb_vector(errors, next(sequences))
    vectors = itertools.chain(
        [first.data], (error_comb_vector(errors, seq).data for seq in sequences)
    )
    total = _gram_sum(vectors, total_dim)
    inputs = tuple(q_label(r) for r in range(errors.rounds + 1))
    outputs = tuple(qp_label(r) for r in range(errors.rounds + 1))
    outputs += (env_label(errors.rounds),)
    op = _owned(first.row_subsystems, first.row_subsystems, total)
    return _psd_choi(op, input_labels=inputs, output_labels=outputs)
