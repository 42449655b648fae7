"""Choi representations, the link product, and comb causality validation.

A quantum comb is a PSD operator over a sequence of input/output legs whose
partial traces satisfy a recursive causality chain: tracing the last output
leg must leave identity on the last input leg tensored with a valid shorter
comb.  The link product composes Choi representations by contracting shared
legs; with no shared legs it reduces to the tensor product, with full overlap
to the scalar Tr(A^T B).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from combsqec.tensor import (
    LabeledOperator,
    Subsystems,
    _check_cap,
    _owned,
    identity_operator,
    partial_trace,
    permute_subsystems,
    tensor_product,
)
from combsqec.tolerances import CAUSALITY_ATOL, PSD_RTOL, psd_violation, relative_threshold

__all__ = [
    "ChoiOperator",
    "CombSignature",
    "CombReport",
    "choi_from_kraus",
    "link_product",
    "validate_comb",
]

GRAM_ROWS = 256  # rows of a Gram sum accumulated at a time
GRAM_VECTORS = 64  # column vectors of a Gram sum multiplied at a time
LINK_BLOCK = 1 << 16  # entries of the larger link operand contracted at a time


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """PSD operator with its labels partitioned into input and output legs.

    The underlying matrix is square with identical subsystem lists on both
    sides; the leg partition must cover every label exactly once.

    Positivity is checked where an operator enters the library: this
    constructor runs the PSD test at ``PSD_RTOL``.  The library's own
    constructions are trusted and check the legs only, because their
    outputs are PSD by construction: ``choi_from_kraus`` and
    ``model.error_comb`` and ``model.interrogator_operator`` sum Gram terms
    v v^dag, ``link_product`` of PSD operators is PSD, and
    ``optimize.project_cptp`` returns an eigenvalue-clipped iterate.  At the
    4096 dense cap one spectral check costs far more than building the comb.

    Arrays follow the same rule: ``LabeledOperator(...)`` and this
    constructor validate and copy what a caller hands in, while library
    results wrap the arrays they just computed, read-only and uncopied.
    """

    op: LabeledOperator
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self._check_legs()
        min_eig = psd_violation(self.op.data, relative_threshold(PSD_RTOL, self.op.data))
        if min_eig is not None:
            raise ValueError(f"Choi operator is not PSD: min eigenvalue {min_eig:.3e}")

    def _check_legs(self) -> None:
        object.__setattr__(self, "input_labels", tuple(self.input_labels))
        object.__setattr__(self, "output_labels", tuple(self.output_labels))
        if self.op.row_subsystems != self.op.col_subsystems:
            raise ValueError(
                f"Choi operator must have identical subsystems on both sides, got "
                f"{self.op.row_subsystems} vs {self.op.col_subsystems}"
            )
        declared = set(self.input_labels) | set(self.output_labels)
        if set(self.input_labels) & set(self.output_labels):
            raise ValueError("a label cannot be both an input and an output leg")
        if declared != set(self.op.row_labels):
            raise ValueError(
                f"leg partition {sorted(declared)} must cover exactly the labels "
                f"{sorted(self.op.row_labels)}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return self.op.row_labels

    def dim_of(self, label: str) -> int:
        return self.op.row_dim_of(label)


@dataclass(frozen=True, eq=False)
class CombSignature:
    """Ordered (input-leg, output-leg) label pairs defining the round order."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple((str(a), str(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("comb signature needs at least one (input, output) pair")
        flat = [label for pair in pairs for label in pair]
        if len(set(flat)) != len(flat):
            raise ValueError(f"comb signature labels must be unique, got {flat}")


@dataclass(frozen=True, eq=False)
class CombReport:
    valid: bool
    level_residuals: tuple[float, ...]
    first_violation: int | None
    normalization: float
    tolerance: float


def _psd_choi(
    op: LabeledOperator,
    input_labels: Sequence[str],
    output_labels: Sequence[str],
) -> ChoiOperator:
    """ChoiOperator of an operator that is PSD by construction.

    Checks the leg partition but not the spectrum; callers are the
    trusted constructions named in the ChoiOperator docstring.
    """
    choi = object.__new__(ChoiOperator)
    object.__setattr__(choi, "op", op)
    object.__setattr__(choi, "input_labels", input_labels)
    object.__setattr__(choi, "output_labels", output_labels)
    choi._check_legs()
    return choi


def _gram_sum(vectors: Iterable[npt.NDArray[np.complex128]], dim: int) -> npt.NDArray[np.complex128]:
    """Sum of v v^dag over at least one column vector of length ``dim``.

    Formed as V V^dag, one GEMM per group of at most ``GRAM_VECTORS``
    vectors (the columns of V) and per slice of ``GRAM_ROWS`` rows, so
    neither a full outer product nor a full-size temporary is formed
    beside the sum; the first group's products are written straight into
    it.  A group of one vector is the single product v v^dag.
    """
    total = np.empty((dim, dim), dtype=np.complex128)
    first = True
    vectors = iter(vectors)
    while group := list(itertools.islice(vectors, GRAM_VECTORS)):
        v = np.hstack(group)
        vh = v.conj().T
        for start in range(0, dim, GRAM_ROWS):
            rows = slice(start, start + GRAM_ROWS)
            if first:
                np.matmul(v[rows], vh, out=total[rows])
            else:
                total[rows] += v[rows] @ vh
        first = False
    return total


def choi_from_kraus(kraus: Sequence[LabeledOperator]) -> ChoiOperator:
    """Choi operator sum_k |K_k>><<K_k| of a CP map given by Kraus operators.

    All operators must share the same row and column subsystem signatures;
    the output legs are the Kraus rows, the input legs the Kraus columns.
    """
    if not kraus:
        raise ValueError("choi_from_kraus needs at least one Kraus operator")
    first = kraus[0]
    for k in kraus[1:]:
        if k.row_subsystems != first.row_subsystems or k.col_subsystems != first.col_subsystems:
            raise ValueError(
                f"mixed Kraus signatures: {k.row_subsystems}/{k.col_subsystems} vs "
                f"{first.row_subsystems}/{first.col_subsystems}"
            )
    if set(first.row_labels) & set(first.col_labels):
        raise ValueError("Kraus row and column labels overlap; relabel before building a Choi")
    dim = first.row_dim * first.col_dim
    _check_cap(dim)
    acc = _gram_sum((k.data.reshape(-1, 1) for k in kraus), dim)
    subs = first.row_subsystems + first.col_subsystems
    return _psd_choi(
        _owned(subs, subs, acc),
        input_labels=first.col_labels,
        output_labels=first.row_labels,
    )


def _legs_matrix(
    op: LabeledOperator, left: Sequence[str], right: Sequence[str]
) -> np.ndarray:
    """A Choi operator's axes (identical sides) transposed once into
    (left rows, left cols | right rows, right cols) order, as a matrix."""
    dims = [dim for _, dim in op.row_subsystems]
    at = {label: i for i, label in enumerate(op.row_labels)}
    n = len(dims)
    perm = [at[l] for l in left] + [n + at[l] for l in left]
    perm += [at[l] for l in right] + [n + at[l] for l in right]
    n_left = math.prod(dims[at[l]] for l in left) ** 2
    return op.data.reshape(dims * 2).transpose(perm).reshape(n_left, -1)


def link_product(a: ChoiOperator, b: ChoiOperator) -> ChoiOperator:
    """Link product A * B = Tr_C((A^{T_C} (x) I)(I (x) B)) over shared legs C.

    The larger operand is read once, in its own memory order, and
    contracted block by block with one transposed copy of the smaller
    (``_stream_link``), so no copy of the larger is made.  The output is
    laid out as (A rows, B rows | A cols, B cols).  This equals the literal
    padded formula (used as a test oracle).
    """
    a_dims, b_dims = dict(a.op.row_subsystems), dict(b.op.row_subsystems)
    shared = a_dims.keys() & b_dims.keys()
    for label in sorted(shared):
        if a_dims[label] != b_dims[label]:
            raise ValueError(
                f"shared label {label!r} has dim {a_dims[label]} in A but "
                f"{b_dims[label]} in B"
            )
    a_kept = tuple(s for s in a.op.row_subsystems if s[0] not in shared)
    b_kept = tuple(s for s in b.op.row_subsystems if s[0] not in shared)
    dx = math.prod(dim for _, dim in a_kept)
    dy = math.prod(dim for _, dim in b_kept)
    _check_cap(dx * dy)
    out = np.zeros((dx, dy, dx, dy), dtype=np.complex128)
    if a.op.data.size >= b.op.data.size:
        _stream_link(a.op, b.op, shared, out.transpose(0, 2, 1, 3))
    else:
        _stream_link(b.op, a.op, shared, out.transpose(1, 3, 0, 2))
    subs: Subsystems = a_kept + b_kept
    inputs = tuple(l for l in a.input_labels + b.input_labels if l not in shared)
    outputs = tuple(l for l in a.output_labels + b.output_labels if l not in shared)
    return _psd_choi(
        _owned(subs, subs, out.reshape(dx * dy, dx * dy)),
        input_labels=inputs,
        output_labels=outputs,
    )


def _stream_link(
    big: LabeledOperator, small: LabeledOperator, shared: AbstractSet[str], dest: np.ndarray
) -> None:
    """Add the link product of two Choi matrices into ``dest``, whose axes
    are (big kept rows, big kept cols, small kept rows, small kept cols).

    ``small`` is transposed once into (shared rows, shared cols | kept
    rows, kept cols), its shared legs in ``big``'s order.  ``big`` is cut
    into blocks of whole rows by fixing its leading row legs until a block
    holds at most ``LINK_BLOCK`` entries (one block when it fits).  Each
    block's axes are permuted into (kept rows, kept cols | shared rows,
    shared cols) and multiplied by ``small``'s rows that the block's fixed
    shared legs select, into the ``dest`` rows its fixed kept legs select.
    """
    subs = big.row_subsystems
    dims = [dim for _, dim in subs]
    n, width = len(dims), big.row_dim
    lead, rows = 0, width
    while lead < n and rows * width > LINK_BLOCK:
        rows //= dims[lead]
        lead += 1
    is_shared = [label in shared for label, _ in subs]
    kept = [i for i in range(n) if not is_shared[i]]
    common = [i for i in range(n) if is_shared[i]]
    # a block's axes are big's rows lead..n-1, then all of its columns
    perm = [i - lead for i in kept if i >= lead] + [n - lead + i for i in kept]
    perm += [i - lead for i in common if i >= lead] + [n - lead + i for i in common]
    shape = dims[lead:] + dims
    small_mat = _legs_matrix(
        small, [subs[i][0] for i in common], [l for l, _ in small.row_subsystems if l not in shared]
    )
    small_rows = small_mat.reshape(
        math.prod(dims[i] for i in common if i < lead), -1, small_mat.shape[1]
    )
    kept_rows = math.prod(dims[i] for i in kept if i >= lead)
    blocks = big.data.reshape(-1, rows * width)
    for block, index in zip(blocks, itertools.product(*map(range, dims[:lead]))):
        at_dest = at_small = 0
        for i, j in enumerate(index):
            if is_shared[i]:
                at_small = at_small * dims[i] + j
            else:
                at_dest = at_dest * dims[i] + j
        mat = block.reshape(shape).transpose(perm).reshape(kept_rows * dest.shape[1], -1)
        slab = dest[at_dest * kept_rows:(at_dest + 1) * kept_rows]
        slab += (mat @ small_rows[at_small]).reshape(slab.shape)


def validate_comb(
    choi: ChoiOperator, sig: CombSignature, tol: float = CAUSALITY_ATOL
) -> CombReport:
    """Check the recursive causality chain of a comb against its signature.

    Processes rounds last to first: at each level the traced-out output leg
    must leave identity on that round's input leg tensored with a reduced
    comb.  Reports every level residual and the first violated level
    (numbered from 1 at the earliest round); the final scalar is the comb
    normalization.
    """
    labels = [label for pair in sig.pairs for label in pair]
    if sorted(labels) != sorted(choi.labels):
        raise ValueError(
            f"signature labels {sorted(labels)} do not match comb labels "
            f"{sorted(choi.labels)}"
        )
    current = choi.op
    residuals: dict[int, float] = {}
    first_violation: int | None = None
    for level in range(len(sig.pairs), 0, -1):
        in_label, out_label = sig.pairs[level - 1]
        traced = partial_trace(current, {out_label})
        d_in = traced.row_dim_of(in_label)
        reduced = partial_trace(traced, {in_label}).scaled(1.0 / d_in)
        candidate = tensor_product(identity_operator([(in_label, d_in)]), reduced)
        candidate = permute_subsystems(candidate, traced.row_labels)
        residual = float(np.linalg.norm(traced.data - candidate.data))
        residuals[level] = residual
        if not residual <= tol and first_violation is None:
            first_violation = level
        current = reduced
    normalization = float(current.data.reshape(-1)[0].real)
    ordered = tuple(residuals[level] for level in range(1, len(sig.pairs) + 1))
    return CombReport(
        valid=first_violation is None,
        level_residuals=ordered,
        first_violation=first_violation,
        normalization=normalization,
        tolerance=tol,
    )

