"""Dense linear algebra over labeled multipartite systems.

Every operator in the package is a :class:`LabeledOperator`: a dense complex
matrix whose row and column sides each carry an ordered list of named
subsystems with dimensions.  States, Kraus operators, Choi operators and
combs are all instances of the same carrier; the higher layers differ only
in which labels they declare and how they partition them.

The vectorization convention is fixed once here: ``|A>> = sum_j (A|j>) (x) |j>``,
output leg first.  Every Choi and comb index convention in the package
derives from this single choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from .tolerances import P_FLOOR

__all__ = [
    "LabeledOperator",
    "dense_cap",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "vectorize",
    "identity_operator",
]

DEFAULT_DENSE_CAP = 4096

Subsystems = tuple[tuple[str, int], ...]


def dense_cap() -> int:
    """Maximum allowed matrix-side dimension, overridable via COMBSQEC_DENSE_CAP."""
    raw = os.environ.get("COMBSQEC_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"COMBSQEC_DENSE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"COMBSQEC_DENSE_CAP must be positive, got {cap}")
    return cap


def _check_cap(dim: int) -> None:
    """Raise unless a matrix side of dimension ``dim`` fits the dense cap."""
    cap = dense_cap()
    if dim > cap:
        raise ValueError(
            f"dense dimension {dim} exceeds the cap {cap}; "
            "set COMBSQEC_DENSE_CAP to raise it"
        )


def _as_subsystems(subsystems: Iterable[tuple[str, int]], side: str) -> Subsystems:
    subs = tuple((str(label), int(dim)) for label, dim in subsystems)
    seen: set[str] = set()
    for label, dim in subs:
        if dim < 1:
            raise ValueError(f"{side} subsystem {label!r} has non-positive dim {dim}")
        if label in seen:
            raise ValueError(f"duplicate {side} subsystem label {label!r}")
        seen.add(label)
    return subs


def _dims_product(subs: Subsystems) -> int:
    return math.prod(dim for _, dim in subs)


@dataclass(frozen=True, eq=False)
class LabeledOperator:
    """Dense complex matrix with named subsystems on each side.

    The constructor is the trust boundary: it validates the labels, the
    shape and the dense cap, and keeps a read-only copy of ``data``, so
    the caller's array may change afterwards.  Library functions return
    results through :func:`_owned` instead, which wraps the array they
    just computed from validated operators, read-only and uncopied.

    Args:
        row_subsystems: ordered (label, dim) pairs for the row (output) side.
        col_subsystems: ordered (label, dim) pairs for the column (input) side.
            An empty tuple declares a column vector (column dimension 1).
        data: complex matrix of shape (prod of row dims, prod of col dims).
    """

    row_subsystems: Subsystems
    col_subsystems: Subsystems
    data: npt.NDArray[np.complex128] = field(repr=False)

    def __post_init__(self) -> None:
        rows = _as_subsystems(self.row_subsystems, "row")
        cols = _as_subsystems(self.col_subsystems, "column")
        object.__setattr__(self, "row_subsystems", rows)
        object.__setattr__(self, "col_subsystems", cols)
        mat = np.asarray(self.data, dtype=np.complex128)
        if mat.ndim == 1:
            mat = mat.reshape(-1, 1)
        if mat.ndim != 2:
            raise ValueError(f"data must be a matrix, got ndim={mat.ndim}")
        expected = (_dims_product(rows), _dims_product(cols))
        if mat.shape != expected:
            raise ValueError(
                f"data shape {mat.shape} does not match declared dims {expected} "
                f"(rows {rows}, cols {cols})"
            )
        _check_cap(max(expected))
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "data", mat)

    # ------------------------------------------------------------------
    # shape helpers
    # ------------------------------------------------------------------

    @property
    def row_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.row_subsystems)

    @property
    def col_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.col_subsystems)

    @property
    def row_dim(self) -> int:
        return self.data.shape[0]

    @property
    def col_dim(self) -> int:
        return self.data.shape[1]

    def row_dim_of(self, label: str) -> int:
        for name, dim in self.row_subsystems:
            if name == label:
                return dim
        raise ValueError(f"unknown row label {label!r}")

    def col_dim_of(self, label: str) -> int:
        for name, dim in self.col_subsystems:
            if name == label:
                return dim
        raise ValueError(f"unknown column label {label!r}")

    def scaled(self, factor: complex) -> "LabeledOperator":
        return _owned(self.row_subsystems, self.col_subsystems, factor * self.data)


def _owned(
    rows: Subsystems, cols: Subsystems, data: npt.NDArray[np.complex128]
) -> LabeledOperator:
    """LabeledOperator of an array a library function just computed.

    ``rows`` and ``cols`` are derived from validated operators and ``data``
    is a complex matrix of the matching shape, within the dense cap
    (callers whose result can outgrow their operands call
    :func:`_check_cap` first).  ``data`` is marked read-only in place, not
    copied, so it must be fresh or a view of read-only operator data.
    """
    data.flags.writeable = False
    op = object.__new__(LabeledOperator)
    object.__setattr__(op, "row_subsystems", rows)
    object.__setattr__(op, "col_subsystems", cols)
    object.__setattr__(op, "data", data)
    return op


def identity_operator(subsystems: Iterable[tuple[str, int]]) -> LabeledOperator:
    subs = _as_subsystems(subsystems, "row")
    d = _dims_product(subs)
    _check_cap(d)
    return _owned(subs, subs, np.eye(d, dtype=np.complex128))


def tensor_product(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Kronecker product with concatenated subsystem lists, A then B."""
    for side, al, bl in (("row", a.row_labels, b.row_labels), ("column", a.col_labels, b.col_labels)):
        clash = set(al) & set(bl)
        if clash:
            raise ValueError(f"{side} label(s) {sorted(clash)} appear in both operands")
    _check_cap(max(a.row_dim * b.row_dim, a.col_dim * b.col_dim))
    return _owned(
        a.row_subsystems + b.row_subsystems,
        a.col_subsystems + b.col_subsystems,
        np.kron(a.data, b.data),
    )


def _axes_view(op: LabeledOperator) -> npt.NDArray[np.complex128]:
    dims = [dim for _, dim in op.row_subsystems] + [dim for _, dim in op.col_subsystems]
    return op.data.reshape(dims or [1])


def partial_trace(op: LabeledOperator, labels: Iterable[str]) -> LabeledOperator:
    """Trace out the named subsystems.

    Each label must appear on both sides with equal dimension; the remaining
    subsystem order is preserved.
    """
    traced = set(labels)
    if not traced:
        return op
    row_names = op.row_labels
    col_names = op.col_labels
    for label in sorted(traced):
        if label not in row_names or label not in col_names:
            raise ValueError(f"label {label!r} not present on both sides")
        if op.row_dim_of(label) != op.col_dim_of(label):
            raise ValueError(
                f"label {label!r} has row dim {op.row_dim_of(label)} != "
                f"col dim {op.col_dim_of(label)}"
            )

    n_row = len(op.row_subsystems)
    arr = _axes_view(op)
    subscripts: list[int] = []
    next_free = 0
    pair_for: dict[str, int] = {}
    for label, _ in op.row_subsystems:
        if label in traced:
            pair_for[label] = next_free
            subscripts.append(next_free)
        else:
            subscripts.append(next_free)
        next_free += 1
    for label, _ in op.col_subsystems:
        if label in traced:
            subscripts.append(pair_for[label])
        else:
            subscripts.append(next_free)
            next_free += 1
    keep = [s for (label, _), s in zip(op.row_subsystems, subscripts[:n_row]) if label not in traced]
    keep += [
        s
        for (label, _), s in zip(op.col_subsystems, subscripts[n_row:])
        if label not in traced
    ]
    out = np.einsum(arr, subscripts, keep)
    rows = tuple(s for s in op.row_subsystems if s[0] not in traced)
    cols = tuple(s for s in op.col_subsystems if s[0] not in traced)
    return _owned(rows, cols, out.reshape(_dims_product(rows), _dims_product(cols)))


def partial_transpose(op: LabeledOperator, labels: Iterable[str]) -> LabeledOperator:
    """Transpose the named subsystems in place; applying twice restores the input."""
    chosen = set(labels)
    if not chosen:
        return op
    row_names = op.row_labels
    col_names = op.col_labels
    for label in sorted(chosen):
        if label not in row_names or label not in col_names:
            raise ValueError(f"label {label!r} not present on both sides")
        if op.row_dim_of(label) != op.col_dim_of(label):
            raise ValueError(f"label {label!r} is not square across sides")
    n_row = len(op.row_subsystems)
    arr = _axes_view(op)
    perm = list(range(arr.ndim))
    for i, (label, _) in enumerate(op.row_subsystems):
        if label in chosen:
            j = n_row + col_names.index(label)
            perm[i], perm[j] = perm[j], perm[i]
    out = arr.transpose(perm)
    return _owned(op.row_subsystems, op.col_subsystems, out.reshape(op.row_dim, op.col_dim))


def permute_subsystems(
    op: LabeledOperator,
    row_order: Sequence[str],
    col_order: Sequence[str] | None = None,
) -> LabeledOperator:
    """Reorder subsystems into the named label order on each side.

    ``col_order`` defaults to ``row_order`` (the square-operator case).
    """
    if col_order is None:
        col_order = row_order
    if not row_order and not col_order:
        return op
    if sorted(row_order) != sorted(op.row_labels) or sorted(col_order) != sorted(op.col_labels):
        raise ValueError(
            f"permutation {list(row_order)} / {list(col_order)} must cover exactly "
            f"{list(op.row_labels)} / {list(op.col_labels)}"
        )
    n_row = len(op.row_subsystems)
    arr = _axes_view(op)
    perm = [op.row_labels.index(label) for label in row_order]
    perm += [n_row + op.col_labels.index(label) for label in col_order]
    arr = arr.transpose(perm)
    rows = tuple((label, op.row_dim_of(label)) for label in row_order)
    cols = tuple((label, op.col_dim_of(label)) for label in col_order)
    return _owned(rows, cols, arr.reshape(op.row_dim, op.col_dim))


def vectorize(op: LabeledOperator) -> LabeledOperator:
    """Column vector |A>> = sum_j (A|j>) (x) |j>, output labels first.

    The output carries the row labels followed by the column labels, so the
    two sides must not share a label; relabel one side first if they do.
    """
    clash = set(op.row_labels) & set(op.col_labels)
    if clash:
        raise ValueError(
            f"label(s) {sorted(clash)} appear on both sides; relabel before vectorizing"
        )
    _check_cap(op.row_dim * op.col_dim)
    return _owned(op.row_subsystems + op.col_subsystems, (), op.data.reshape(-1, 1))


def _spectrum_bits(vals: npt.NDArray[np.float64]) -> float:
    """Entropy in bits of a normalized spectrum, read above ``P_FLOOR``."""
    vals = vals[vals > P_FLOOR]
    return float(-np.sum(vals * np.log2(vals))) if vals.size else 0.0
