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
from typing import Sequence

import numpy as np

from combsqec.tensor import (
    LabeledOperator,
    Subsystems,
    identity_operator,
    partial_trace,
    permute_subsystems,
    tensor_product,
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

PSD_RTOL = 1e-9
TP_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """PSD operator with its labels partitioned into input and output legs.

    The underlying matrix is square with identical subsystem lists on both
    sides; the leg partition must cover every label exactly once.

    Positivity is checked where an operator enters the library: this
    constructor rejects an operator whose smallest eigenvalue is below
    ``-PSD_RTOL * max(1, ||X||_F)``, by a Cholesky factorization of the
    shifted Hermitian part.  The library's own constructions are trusted
    and check the legs only, because their outputs are PSD by construction:
    ``choi_from_kraus`` and ``model.error_comb`` and
    ``model.interrogator_operator`` sum Gram terms v v^dag, ``link_product``
    of PSD operators is PSD, and ``optimize.project_cptp`` returns an
    eigenvalue-clipped iterate.  At the 4096 dense cap one spectral check
    costs far more than building the comb.
    """

    op: LabeledOperator
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self._check_legs()
        _require_psd(self.op.data)

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


def _min_eigenvalue(mat: np.ndarray) -> float:
    herm = (mat + mat.conj().T) / 2
    return float(np.linalg.eigvalsh(herm)[0])


def _require_psd(mat: np.ndarray) -> None:
    """Raise unless the smallest eigenvalue of Herm(mat) is >= -tau.

    With tau = PSD_RTOL * max(1, ||mat||_F), Herm(mat) + tau I has a
    Cholesky factor exactly when that eigenvalue exceeds -tau; the
    eigenvalue itself is computed only when the factorization fails, to
    decide the boundary case and to name it in the error.
    """
    tau = PSD_RTOL * max(1.0, float(np.linalg.norm(mat)))
    shifted = mat.conj().T + mat
    shifted *= 0.5
    shifted[np.diag_indices_from(shifted)] += tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eig = _min_eigenvalue(mat)
        if min_eig < -tau:
            raise ValueError(
                f"Choi operator is not PSD: min eigenvalue {min_eig:.3e}"
            ) from None


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
    dim = first.row_dim * first.col_dim
    acc = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        v = k.data.reshape(-1)
        acc += np.outer(v, v.conj())
    subs = first.row_subsystems + first.col_subsystems
    if set(first.row_labels) & set(first.col_labels):
        raise ValueError("Kraus row and column labels overlap; relabel before building a Choi")
    return _psd_choi(
        LabeledOperator(subs, subs, acc),
        input_labels=first.col_labels,
        output_labels=first.row_labels,
    )


def link_product(a: ChoiOperator, b: ChoiOperator) -> ChoiOperator:
    """Link product A * B = Tr_C((A^{T_C} (x) I)(I (x) B)) over shared legs C.

    Implemented as an index contraction: the shared legs' row indices of A
    contract with the shared row indices of B, and likewise for columns,
    which equals the literal padded formula (used as a test oracle).
    """
    shared = sorted(set(a.labels) & set(b.labels))
    for label in shared:
        if a.dim_of(label) != b.dim_of(label):
            raise ValueError(
                f"shared label {label!r} has dim {a.dim_of(label)} in A but "
                f"{b.dim_of(label)} in B"
            )
    a_only = [l for l in a.labels if l not in shared]
    b_only = [l for l in b.labels if l not in shared]

    a_perm = permute_subsystems(a.op, a_only + shared)
    b_perm = permute_subsystems(b.op, shared + b_only)
    dx = int(np.prod([a.dim_of(l) for l in a_only], dtype=np.int64)) if a_only else 1
    ds = int(np.prod([a.dim_of(l) for l in shared], dtype=np.int64)) if shared else 1
    dy = int(np.prod([b.dim_of(l) for l in b_only], dtype=np.int64)) if b_only else 1

    a4 = a_perm.data.reshape(dx, ds, dx, ds)
    b4 = b_perm.data.reshape(ds, dy, ds, dy)
    out = np.einsum("xuXs,uysY->xyXY", a4, b4, optimize=True)

    subs: Subsystems = tuple((l, a.dim_of(l)) for l in a_only)
    subs += tuple((l, b.dim_of(l)) for l in b_only)
    result = LabeledOperator(subs, subs, out.reshape(dx * dy, dx * dy))
    inputs = tuple(l for l in a.input_labels + b.input_labels if l not in shared)
    outputs = tuple(l for l in a.output_labels + b.output_labels if l not in shared)
    return _psd_choi(result, input_labels=inputs, output_labels=outputs)


def is_cptp(choi: ChoiOperator) -> CptpReport:
    """CP and TP residuals of a Choi operator against its declared legs."""
    min_eig = _min_eigenvalue(choi.op.data)
    scale = max(1.0, float(np.linalg.norm(choi.op.data)))
    cp_residual = max(0.0, -min_eig)
    cp = min_eig >= -PSD_RTOL * scale

    reduced = partial_trace(choi.op, choi.output_labels)
    eye = identity_operator(reduced.row_subsystems)
    tp_residual = float(np.linalg.norm(reduced.data - eye.data))
    tp = tp_residual <= TP_ATOL
    return CptpReport(cp=cp, tp=tp, cp_residual=cp_residual, tp_residual=tp_residual)


def validate_comb(
    choi: ChoiOperator, sig: CombSignature, tol: float = 1e-8
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
        if residual > tol and first_violation is None:
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

