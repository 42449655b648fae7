"""Choi representations, the link product, and comb causality validation.

A quantum comb is a PSD operator over a sequence of input/output legs whose
partial traces satisfy a recursive causality chain: tracing the last output
leg must leave identity on the last input leg tensored with a valid shorter
comb.  The link product composes Choi representations by contracting shared
legs; with no shared legs it reduces to the tensor product, with full overlap
to the scalar Tr(A^T B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
from combsqec.tolerances import (
    CAUSALITY_ATOL, COMPLETENESS_ATOL, PSD_RTOL,
    completeness_residual, completeness_violation, psd_violation, relative_threshold,
    smallest_eigenvalue,
)

__all__ = [
    "ChoiOperator",
    "CombSignature",
    "CptpReport",
    "CombReport",
    "choi_from_kraus",
    "link_product",
    "is_cptp",
    "validate_comb",
]

GRAM_ROWS = 256  # rows of a Gram sum accumulated at a time


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

    @property
    def input_dim(self) -> int:
        return math.prod(self.dim_of(l) for l in self.input_labels)

    @property
    def output_dim(self) -> int:
        return math.prod(self.dim_of(l) for l in self.output_labels)


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
class CptpReport:
    cp: bool
    tp: bool
    cp_residual: float
    tp_residual: float

    @property
    def residual(self) -> float:
        return max(self.cp_residual, self.tp_residual)


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
    """Sum of v v^dag over column vectors of length ``dim``.

    Each term is added ``GRAM_ROWS`` rows at a time, so no full outer
    product is formed beside the sum.
    """
    total = np.zeros((dim, dim), dtype=np.complex128)
    for v in vectors:
        vh = v.conj().T
        for start in range(0, dim, GRAM_ROWS):
            rows = slice(start, start + GRAM_ROWS)
            total[rows] += v[rows] @ vh
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

    Computed as one matrix product over the shared legs' row and column
    indices together: A's axes are transposed once, from its own layout,
    into (kept rows, kept cols | shared rows, shared cols), B's into
    (shared rows, shared cols | kept rows, kept cols), and the product's
    kept axes are regrouped into (A rows, B rows | A cols, B cols).  This
    equals the literal padded formula (used as a test oracle).
    """
    shared = sorted(set(a.labels) & set(b.labels))
    for label in shared:
        if a.dim_of(label) != b.dim_of(label):
            raise ValueError(
                f"shared label {label!r} has dim {a.dim_of(label)} in A but "
                f"{b.dim_of(label)} in B"
            )
    a_kept = tuple(s for s in a.op.row_subsystems if s[0] not in shared)
    b_kept = tuple(s for s in b.op.row_subsystems if s[0] not in shared)
    dx = math.prod(dim for _, dim in a_kept)
    dy = math.prod(dim for _, dim in b_kept)
    _check_cap(dx * dy)
    a_mat = _legs_matrix(a.op, [l for l, _ in a_kept], shared)
    b_mat = _legs_matrix(b.op, shared, [l for l, _ in b_kept])
    out = (a_mat @ b_mat).reshape(dx, dx, dy, dy).transpose(0, 2, 1, 3)
    subs: Subsystems = a_kept + b_kept
    inputs = tuple(l for l in a.input_labels + b.input_labels if l not in shared)
    outputs = tuple(l for l in a.output_labels + b.output_labels if l not in shared)
    return _psd_choi(
        _owned(subs, subs, out.reshape(dx * dy, dx * dy)),
        input_labels=inputs,
        output_labels=outputs,
    )


def is_cptp(choi: ChoiOperator) -> CptpReport:
    """CP and TP residuals of a Choi operator against its declared legs,
    decided by the PSD test and the completeness test of Tr_out X."""
    data = choi.op.data
    reduced = partial_trace(choi.op, choi.output_labels).data
    return CptpReport(
        cp=psd_violation(data, relative_threshold(PSD_RTOL, data)) is None,
        tp=completeness_violation(reduced, COMPLETENESS_ATOL) is None,
        # np.maximum keeps a nan eigenvalue; max(0.0, nan) would return 0.0
        cp_residual=float(np.maximum(0.0, -smallest_eigenvalue(data))),
        tp_residual=completeness_residual(reduced),
    )


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

