"""Instance file format: structured JSON with explicit complex encoding.

One document carries a strategic code (codespace basis, per-round
instruments, memory update tables), its error model, and an optional
optimization block.  In ``schema_version`` 4, the version written, every
matrix slot holds an integer index into the top-level ``matrices`` table,
which holds each distinct matrix once, in order of first use.  Each table
entry is flat: ``{"shape": [n, m], "data": [re_0, im_0, re_1, ...]}``
holds all n * m entries in row-major order, and a sparse entry adds
``"at": [k_0, k_1, ...]``, the strictly increasing row-major flat indices
of the entries ``data`` holds.  A matrix is written sparse iff
``2 * nnz < n * m``, where an entry is nonzero iff it ``!= 0`` (so -0.0 is
dropped).  Version 3, still read, has the same table with entries in the
version-2 form: dense, row-major nested lists of ``[re, im]`` cells, or
sparse, ``{"nz": [[i, j, re, im], ...], "shape": [n, m]}``.  Versions 1
(dense only) and 2 (dense or sparse) hold each matrix inline in its slot.
The canonical text is exactly ``json.dumps(doc, sort_keys=True)`` plus a
newline: json's default separators and no indentation.  The reader
ignores whitespace, so a file in another layout (such as the ``indent=2``
form earlier releases wrote) still loads, and re-exporting it changes its
digest.  On load, every slot goes through one resolver: an inline matrix
is decoded in place, a table entry once, at the shape its first reference
implies.  Each matrix is validated in bulk and converted by one numpy
call; only a rejected matrix is walked element by element, to name its
offending row, cell, entry, part or index.  Parse failures name the path
through the document (for a table entry, the referencing path, then
``matrices[k]``); model invariant violations surface the constructor's
residual message under that path.  The loaded operators own the arrays
decoded for them, read-only and uncopied.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Any

import numpy as np
import numpy.typing as npt

from .model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    _check_op_sides,
    _error_op_sides,
)
from .tensor import LabeledOperator, Subsystems, _checked, _owned

__all__ = [
    "SCHEMA_VERSION",
    "InstanceDocument",
    "ParseError",
    "encode_matrix",
    "decode_matrix",
    "export_instance",
    "instance_text",
    "load_instance",
]

SCHEMA_VERSION = 4


class ParseError(ValueError):
    """Malformed instance file; the message starts with the document path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def encode_matrix(mat: npt.NDArray[np.complex128]) -> list[list[list[float]]]:
    arr = np.ascontiguousarray(mat, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"matrices must be two-dimensional, got shape {arr.shape}")
    return arr.view(np.float64).reshape(*arr.shape, 2).tolist()


_NUMBER_TYPES = frozenset((float, int, bool))
_SPARSE_KEYS = frozenset(("nz", "shape"))
_FLAT_KEYS = frozenset(("shape", "data"))
_FLAT_SPARSE_KEYS = _FLAT_KEYS | {"at"}


Shape = tuple[int | None, int | None]


def decode_matrix(
    obj: Any, path: str, version: int = SCHEMA_VERSION, shape: Shape = (None, None)
) -> npt.NDArray[np.complex128]:
    """A matrix in its file form as a complex matrix.

    Dense rows of ``[re, im]`` number pairs are read in every version; from
    version 2 an object is read as a sparse ``{"nz", "shape"}`` matrix.
    The flat entries of a version-4 table are read by the loader only.
    Well-formed input (plain lists of equal-length rows of two-element
    lists of ints, floats and bools, or sparse entries of two int indices
    and two such parts) is checked in bulk and converted by one numpy
    call; anything else goes through the element loop, which names the
    first offending row, cell or entry in its :class:`ParseError`.
    ``shape`` is the (rows, columns) the document implies, None for a free
    side; a matrix of another shape is rejected, a sparse one before its
    array is allocated.
    """
    if version >= 2 and isinstance(obj, Mapping):
        return _decode_sparse(obj, path, shape)
    mat = _decode_dense(obj, path)
    _check_shape(mat.shape, path, shape)
    return mat


def _check_shape(got: Any, path: str, want: Shape) -> None:
    if any(w is not None and w != g for g, w in zip(got, want)):
        sides = ", ".join("any" if w is None else str(w) for w in want)
        raise ParseError(path, f"shape ({got[0]}, {got[1]}) does not match dims ({sides})")


def _decode_dense(obj: Any, path: str) -> npt.NDArray[np.complex128]:
    if type(obj) is list and obj and set(map(type, obj)) == {list}:
        cells = list(chain.from_iterable(obj))
        if (
            cells
            and len(set(map(len, obj))) == 1
            and set(map(type, cells)) == {list}
            and set(map(len, cells)) == {2}
        ):
            flat = list(chain.from_iterable(cells))
            if set(map(type, flat)) <= _NUMBER_TYPES:
                parts = np.array(flat)
                if parts.dtype.kind in "biuf":
                    # bitwise [re, im] -> complex: no arithmetic on the parts
                    parts = parts.astype(np.float64, copy=False)
                    return parts.view(np.complex128).reshape(len(obj), -1)
    return _decode_cells(obj, path)


def _decode_cells(obj: Any, path: str) -> npt.NDArray[np.complex128]:
    if not isinstance(obj, list) or not obj:
        raise ParseError(path, "expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{path}[{i}]", "expected a non-empty row list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}[{i}]", f"row length {len(row)} != {width}")
        out_row = []
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) for x in cell)
            ):
                raise ParseError(
                    f"{path}[{i}][{j}]", "complex entries are [re, im] number pairs"
                )
            try:
                out_row.append(complex(cell[0], cell[1]))
            except OverflowError:
                raise ParseError(
                    f"{path}[{i}][{j}]", "number beyond float range"
                ) from None
        rows.append(out_row)
    return np.array(rows, dtype=np.complex128)


def _decode_sparse(
    obj: Mapping[str, Any], path: str, want: Shape
) -> npt.NDArray[np.complex128]:
    shape, nz = obj.get("shape"), obj.get("nz")
    if (
        obj.keys() == _SPARSE_KEYS
        and type(shape) is list
        and len(shape) == 2
        and set(map(type, shape)) == {int}
        and min(shape) > 0
        and all(w in (None, g) for g, w in zip(shape, want))
        and type(nz) is list
        and set(map(type, nz)) <= {list}
        and set(map(len, nz)) <= {4}
    ):
        flat = list(chain.from_iterable(nz))
        if set(map(type, flat[0::4] + flat[1::4])) <= {int} and set(
            map(type, flat[2::4] + flat[3::4])
        ) <= _NUMBER_TYPES:
            try:
                table = np.fromiter(flat, np.float64, len(flat)).reshape(-1, 4)
            except OverflowError:  # a literal beyond float range
                return _decode_entries(obj, path, want)
            rows, cols = table[:, 0], table[:, 1]
            n, m = shape
            if ((rows >= 0) & (rows < n) & (cols >= 0) & (cols < m)).all():
                index = rows.astype(np.intp) * m + cols.astype(np.intp)
                ordered = (index[1:] > index[:-1]).all()
                if ordered or np.unique(index).size == index.size:
                    out = _zeros(shape, path)
                    # each row's (re, im) pair is one complex128: scattered
                    # bitwise in one call
                    out.reshape(-1)[index] = table.view(np.complex128)[:, 1]
                    return out
    return _decode_entries(obj, path, want)


def _decode_entries(
    obj: Mapping[str, Any], path: str, want: Shape
) -> npt.NDArray[np.complex128]:
    extra = sorted(map(repr, obj.keys() - _SPARSE_KEYS))
    if extra:
        raise ParseError(path, f"unexpected key {extra[0]} in a sparse matrix")
    shape = _entry_shape(obj, path, want)
    out = _zeros(shape, path)
    seen = set()
    for k, entry in enumerate(_get(obj, "nz", path, list, "a list of entries")):
        epath = f"{path}.nz[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(epath, "sparse entries are [i, j, re, im]")
        for axis, size, what in ((0, shape[0], "row"), (1, shape[1], "column")):
            index = entry[axis]
            if not isinstance(index, int) or isinstance(index, bool):
                raise ParseError(
                    f"{epath}[{axis}]", f"expected an integer {what} index"
                )
            if not 0 <= index < size:
                raise ParseError(
                    f"{epath}[{axis}]", f"{what} index {index} out of range {size}"
                )
        cell = (entry[0], entry[1])
        if cell in seen:
            raise ParseError(epath, f"duplicate entry {cell}")
        seen.add(cell)
        parts = []
        for p in (2, 3):
            if not isinstance(entry[p], (int, float)):
                raise ParseError(f"{epath}[{p}]", "expected a number")
            try:
                parts.append(float(entry[p]))
            except OverflowError:
                raise ParseError(f"{epath}[{p}]", "number beyond float range") from None
        out[cell] = complex(*parts)
    return out


def _decode_flat(obj: Any, path: str, want: Shape) -> npt.NDArray[np.complex128]:
    """A version-4 table entry as a complex matrix.

    A well-formed entry (a dict of ``shape`` and ``data``, plus ``at`` when
    sparse, whose shape and indices are plain ints and whose parts are
    ints, floats or bools) is checked by one type pass per list and
    converted by one ``np.fromiter``; a
    sparse one then passes one range-and-order test of ``at`` and is
    scattered into zeros by one call.  Anything else goes through
    :func:`_flat_entries`, which names the offending key, part or index.
    """
    shape, data = (obj.get("shape"), obj.get("data")) if type(obj) is dict else (None, None)
    if (
        type(shape) is list
        and len(shape) == 2
        and set(map(type, shape)) == {int}
        and min(shape) > 0
        and all(w in (None, g) for g, w in zip(shape, want))
        and type(data) is list
        and set(map(type, data)) <= _NUMBER_TYPES
    ):
        n, m = shape
        at = obj.get("at")
        try:
            if obj.keys() == _FLAT_KEYS and len(data) == 2 * n * m:
                parts = np.fromiter(data, np.float64, len(data))
                return parts.view(np.complex128).reshape(n, m)
            if (
                obj.keys() == _FLAT_SPARSE_KEYS
                and type(at) is list
                and set(map(type, at)) <= {int}
                and len(data) == 2 * len(at)
            ):
                index = np.fromiter(at, np.intp, len(at))
                if not at or (
                    index[0] >= 0
                    and int(index[-1]) < n * m
                    and (index[1:] > index[:-1]).all()
                ):
                    parts = np.fromiter(data, np.float64, len(data))
                    out = _zeros(shape, path)
                    out.reshape(-1)[index] = parts.view(np.complex128)
                    return out
        except OverflowError:  # a literal beyond float or index range
            pass
    return _flat_entries(obj, path, want)


def _flat_entries(obj: Any, path: str, want: Shape) -> npt.NDArray[np.complex128]:
    if not isinstance(obj, Mapping):
        raise ParseError(path, 'expected an object with "shape" and "data"')
    extra = sorted(map(repr, obj.keys() - _FLAT_SPARSE_KEYS))
    if extra:
        raise ParseError(path, f"unexpected key {extra[0]} in a version-4 matrix")
    shape = _entry_shape(obj, path, want)
    n, m = shape
    data = _get(obj, "data", path, list, "a list of numbers")
    if len(data) % 2:
        raise ParseError(f"{path}.data", f"odd length {len(data)}: parts are re, im pairs")
    if "at" not in obj:
        if len(data) != 2 * n * m:
            raise ParseError(f"{path}.data", f"length {len(data)} != 2 * {n} * {m}")
    else:
        at = _get(obj, "at", path, list, "a list of flat indices")
        if 2 * len(at) != len(data):
            raise ParseError(
                f"{path}.data", f"length {len(data)} != 2 * {len(at)} indices"
            )
        prev = -1
        for i, k in enumerate(at):
            ipath = f"{path}.at[{i}]"
            if not isinstance(k, int) or isinstance(k, bool):
                raise ParseError(ipath, "expected an integer flat index")
            if not 0 <= k < n * m:
                raise ParseError(ipath, f"flat index {k} out of range {n * m}")
            if k == prev:
                raise ParseError(ipath, f"repeated flat index {k}")
            if k < prev:
                raise ParseError(ipath, f"flat index {k} after {prev}: indices must increase")
            prev = k
    parts = []
    for i, x in enumerate(data):
        if not isinstance(x, (int, float)):
            raise ParseError(f"{path}.data[{i}]", "expected a number")
        try:
            parts.append(float(x))
        except OverflowError:
            raise ParseError(f"{path}.data[{i}]", "number beyond float range") from None
    values = np.array(parts, dtype=np.float64).view(np.complex128)
    if "at" not in obj:
        return values.reshape(n, m)
    out = _zeros(shape, path)
    out.reshape(-1)[np.array(at, dtype=np.intp)] = values
    return out


def _entry_shape(obj: Mapping[str, Any], path: str, want: Shape) -> list[int]:
    """A sparse or flat entry's ``shape``: two positive integers, of an
    array numpy can index, matching ``want``; checked before allocation."""
    shape = _get(obj, "shape", path, list, "two positive integers")
    if len(shape) != 2 or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in shape
    ):
        raise ParseError(f"{path}.shape", "expected two positive integers")
    if shape[0] * shape[1] > np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize:
        raise ParseError(f"{path}.shape", f"{shape} is too large")
    _check_shape(shape, path, want)
    return shape


def _zeros(shape: list[int], path: str) -> npt.NDArray[np.complex128]:
    try:
        return np.zeros(shape, dtype=np.complex128)
    except (ValueError, MemoryError):
        raise ParseError(f"{path}.shape", f"{shape} is too large") from None


def _get(
    obj: Mapping[str, Any],
    key: str,
    path: str,
    kind: type | tuple[type, ...],
    what: str,
) -> Any:
    if not isinstance(obj, Mapping):
        raise ParseError(path, "expected an object")
    if key not in obj:
        raise ParseError(f"{path}.{key}" if path else key, "missing")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool) and kind is int:
        raise ParseError(f"{path}.{key}" if path else key, f"expected {what}")
    return val


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def instance_text(
    code: StrategicCode,
    errors: ErrorModel,
    optimization: Mapping[str, Any] | None = None,
) -> str:
    """Canonical serialized form; identical models give identical bytes.

    The text is exactly ``json.dumps(doc, sort_keys=True) + "\\n"`` for
    the version-4 ``doc``.  Its ``matrices`` table holds each distinct
    matrix once, in order of first use along the walk below (codespace,
    check rounds by sorted memory and outcome, error rounds), and each
    matrix slot holds its entry's index.  Two matrices share an entry iff
    they read back bitwise equal: the same shape and bytes, with the zeros
    of a sparse entry read back as +0.  An entry is
    ``{"shape": [n, m], "data": [re_0, im_0, re_1, ...]}``, the parts of
    its entries in row-major order; with ``2 * nnz < n * m`` ``data``
    holds only the entries ``!= 0``, and ``"at"`` their row-major flat
    indices.  Both lists are one ``tolist()`` of the array's float64 view
    and of its support.  One array object filed in many
    slots (an instrument shared by several memories) is keyed once: its
    entry is remembered by identity for the rest of the call, while the
    models hold every array alive.
    """
    matrices: list[Any] = []
    index: dict[tuple[Any, ...], int] = {}
    seen: dict[int, int] = {}

    def slot(mat: npt.NDArray[np.complex128]) -> int:
        if id(mat) in seen:
            return seen[id(mat)]
        arr = np.ascontiguousarray(mat, dtype=np.complex128)
        flat = arr.reshape(-1)
        support = np.flatnonzero(flat)
        sparse = 2 * support.size < flat.size
        if sparse:
            flat = flat[support]
            key = (arr.shape, support.tobytes(), flat.tobytes())
        else:
            key = (arr.shape, flat.tobytes())
        if key not in index:
            index[key] = len(matrices)
            entry = {"shape": list(arr.shape), "data": flat.view(np.float64).tolist()}
            if sparse:
                entry["at"] = support.tolist()
            matrices.append(entry)
        seen[id(mat)] = index[key]
        return index[key]

    basis = slot(code.codespace.basis)
    rounds = []
    for r in range(1, code.interrogator.rounds + 1):
        by_memory: dict[str, Any] = {}
        for memory, inst in sorted(code.interrogator.instruments[r - 1].items()):
            by_memory[memory] = {
                o: slot(op.data) for o, op in sorted(inst.kraus.items())
            }
        update: dict[str, dict[str, str]] = {}
        for (outcome, memory), nxt in sorted(
            code.interrogator.update.tables[r - 1].items()
        ):
            update.setdefault(outcome, {})[memory] = nxt
        rounds.append({"instruments": by_memory, "update": update})
    err_rounds = []
    for r in range(errors.rounds + 1):
        err_rounds.append(
            {
                "kraus": [slot(op.data) for op in errors.round_ops(r)],
                "env_out": errors.env_dim(r),
            }
        )
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"ambient": code.codespace.ambient_dim, "code": code.codespace.dim},
        "codespace": {"basis": basis},
        "interrogator": {"rounds": rounds},
        "error_model": {
            "trace_nonincreasing": errors.require_trace_nonincreasing,
            "rounds": err_rounds,
        },
        "matrices": matrices,
    }
    if optimization is not None:
        doc["optimization"] = dict(optimization)
    return json.dumps(doc, sort_keys=True) + "\n"


def export_instance(
    code: StrategicCode,
    errors: ErrorModel,
    path: str,
    optimization: Mapping[str, Any] | None = None,
) -> str:
    """Write the canonical form to ``path``; returns the content digest."""
    text = instance_text(code, errors, optimization)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# parse
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceDocument:
    """Parsed instance: validated models plus the side-band file fields."""

    code: StrategicCode
    errors: ErrorModel
    optimization: dict[str, Any] | None
    digest: str


class _Slots:
    """The one resolver of a document's matrix slots.

    Versions 1 and 2 hold each matrix inline in its slot, and it is decoded
    there.  From version 3 a slot holds an integer index into the top-level
    ``matrices`` table: each entry is decoded once, in its version's form,
    at the shape implied by its first reference (so a sparse ``shape`` is
    still checked before allocation), and every later reference checks its
    own implied shape.
    Operators are not kept: a round's memories that list the same entries
    share one instrument (see :func:`_parse_interrogator`).
    """

    def __init__(self, doc: Mapping[str, Any], version: int):
        self.version = version
        self.table: list[Any] = []
        if version >= 3:
            self.table = _get(doc, "matrices", "", list, "a list of matrices")
        self.decoded: dict[int, npt.NDArray[np.complex128]] = {}

    def matrix(self, obj: Any, path: str, shape: Shape) -> npt.NDArray[np.complex128]:
        """The slot's matrix, checked at ``shape``."""
        if self.version < 3:
            return decode_matrix(obj, path, self.version, shape)
        if type(obj) is not int:
            raise ParseError(path, "expected an integer index into matrices")
        if not 0 <= obj < len(self.table):
            raise ParseError(
                path, f"matrix index {obj} out of range {len(self.table)}"
            )
        mat = self.decoded.get(obj)
        try:
            if mat is None:
                entry, where = self.table[obj], f"matrices[{obj}]"
                mat = self.decoded[obj] = (
                    _decode_flat(entry, where, shape)
                    if self.version >= 4
                    else decode_matrix(entry, where, self.version, shape)
                )
            else:
                _check_shape(mat.shape, f"matrices[{obj}]", shape)
        except ParseError as exc:
            raise ParseError(path, str(exc)) from exc
        return mat

    def require_referenced(self) -> None:
        """Reject a table entry that no slot references: it was never
        validated."""
        for k in range(len(self.table)):
            if k not in self.decoded:
                raise ParseError(f"matrices[{k}]", "not referenced by any slot")


def _operator(
    path: str,
    sides: Callable[..., tuple[Subsystems, Subsystems]],
    r: int,
    mat: npt.NDArray[np.complex128],
    *dims: int,
) -> LabeledOperator:
    """The operator on ``sides(r, mat.shape, *dims)`` after the public
    constructor's tests, owning the freshly decoded ``mat`` uncopied (so
    operators of one table entry share it, read-only); a rejection
    (indivisible dims, the dense cap) is a :class:`ParseError` at
    ``path``."""
    try:
        return _owned(*_checked(*sides(r, mat.shape, *dims), mat))
    except ValueError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_codespace(doc: Mapping[str, Any], slots: _Slots) -> CodeSpace:
    dims = _get(doc, "dims", "", Mapping, "an object")
    ambient = _get(dims, "ambient", "dims", int, "an integer")
    code_dim = _get(dims, "code", "dims", int, "an integer")
    cs = _get(doc, "codespace", "", Mapping, "an object")
    basis_obj = _get(cs, "basis", "codespace", object, "a matrix")
    basis = slots.matrix(basis_obj, "codespace.basis", (ambient, code_dim))
    try:
        return CodeSpace(ambient, basis)
    except ValueError as exc:
        raise ParseError("codespace.basis", str(exc)) from exc


def _parse_interrogator(
    doc: Mapping[str, Any], slots: _Slots, ambient: int
) -> Interrogator:
    """The interrogator; round 1 reads the ambient space, and every matrix
    of a round has the shape of the round's first.  Memories of a round
    whose outcomes reference the same table entries, in the same order,
    share one instrument, built and validated at the first of them; every
    slot is still resolved, and so checked, at its own path."""
    inter = _get(doc, "interrogator", "", Mapping, "an object")
    rounds_obj = _get(inter, "rounds", "interrogator", list, "a list")
    instruments = []
    tables = []
    for idx, round_obj in enumerate(rounds_obj):
        r = idx + 1
        path = f"interrogator.rounds[{idx}]"
        insts_obj = _get(round_obj, "instruments", path, Mapping, "an object")
        if not insts_obj:
            raise ParseError(f"{path}.instruments", "needs at least one memory state")
        by_memory = {}
        shared: dict[tuple[tuple[str, int], ...], CheckInstrument] = {}
        shape: Shape = (None, ambient) if r == 1 else (None, None)
        for memory, outcomes_obj in insts_obj.items():
            mpath = f"{path}.instruments[{memory!r}]"
            if not isinstance(outcomes_obj, Mapping) or not outcomes_obj:
                raise ParseError(mpath, "expected outcome -> matrix entries")
            mats = {}
            for outcome, mat_obj in outcomes_obj.items():
                mats[outcome] = slots.matrix(mat_obj, f"{mpath}[{outcome!r}]", shape)
                shape = mats[outcome].shape
            # table indices (version 3), each one :meth:`_Slots.matrix` took
            # as an int, so True cannot stand for 1; inline matrices get an
            # instrument of their own
            key = tuple(outcomes_obj.items()) if slots.version >= 3 else None
            if key in shared:
                by_memory[memory] = shared[key]
                continue
            kraus = {
                outcome: _operator(f"{mpath}[{outcome!r}]", _check_op_sides, r, mat)
                for outcome, mat in mats.items()
            }
            try:
                by_memory[memory] = CheckInstrument(kraus)
            except ValueError as exc:
                raise ParseError(mpath, str(exc)) from exc
            if key is not None:
                shared[key] = by_memory[memory]
        update_obj = _get(round_obj, "update", path, Mapping, "an object")
        table = {}
        for outcome, per_memory in update_obj.items():
            upath = f"{path}.update[{outcome!r}]"
            if not isinstance(per_memory, Mapping):
                raise ParseError(upath, "expected memory -> next-memory entries")
            for memory, nxt in per_memory.items():
                if not isinstance(nxt, str):
                    raise ParseError(f"{upath}[{memory!r}]", "expected a string")
                table[(outcome, memory)] = nxt
        instruments.append(by_memory)
        tables.append(table)
    try:
        return Interrogator(tuple(instruments), MemoryUpdate(tuple(tables)))
    except (ValueError, KeyError) as exc:
        raise ParseError("interrogator", str(exc)) from exc


def _parse_errors(
    doc: Mapping[str, Any], slots: _Slots, ambient: int, interrogator: Interrogator
) -> ErrorModel:
    """The error model; round r reads what check round r writes (the
    ambient space at r = 0) and writes what check round r + 1 reads, each
    with its environment, and every matrix of a round has the shape of the
    round's first."""
    em = _get(doc, "error_model", "", Mapping, "an object")
    rounds_obj = _get(em, "rounds", "error_model", list, "a list")
    if not rounds_obj:
        raise ParseError("error_model.rounds", "needs at least round 0")
    tni = em.get("trace_nonincreasing", True)
    if not isinstance(tni, bool):
        raise ParseError("error_model.trace_nonincreasing", "expected a boolean")
    dims = interrogator.round_dims
    kraus_rounds = []
    env_in = 1
    for r, round_obj in enumerate(rounds_obj):
        path = f"error_model.rounds[{r}]"
        kraus_obj = _get(round_obj, "kraus", path, list, "a list of matrices")
        if not kraus_obj:
            raise ParseError(f"{path}.kraus", "needs at least one operator")
        env_out = round_obj.get("env_out", 1)
        if not isinstance(env_out, int) or isinstance(env_out, bool) or env_out < 1:
            raise ParseError(f"{path}.env_out", "expected a positive integer")
        n_rows = dims[r][0] * env_out if r < len(dims) else None
        n_cols = None
        if r == 0:
            n_cols = ambient
        elif r <= len(dims):
            n_cols = dims[r - 1][1] * env_in
        shape: Shape = (n_rows, n_cols)
        ops = []
        for k, mat_obj in enumerate(kraus_obj):
            kpath = f"{path}.kraus[{k}]"
            mat = slots.matrix(mat_obj, kpath, shape)
            ops.append(_operator(kpath, _error_op_sides, r, mat, env_in, env_out))
            shape = mat.shape
        kraus_rounds.append(tuple(ops))
        env_in = env_out
    try:
        return ErrorModel(tuple(kraus_rounds), require_trace_nonincreasing=tni)
    except ValueError as exc:
        raise ParseError("error_model", str(exc)) from exc


def load_instance(path: str) -> InstanceDocument:
    """Parse and validate an instance file, keeping the side-band fields."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also non-Unicode bytes, huge integers, deep nesting
        raise ParseError("(document)", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ParseError("(document)", "top level must be an object")
    version = _get(doc, "schema_version", "", int, "an integer")
    if version not in (1, 2, 3, 4):
        raise ParseError(
            "schema_version",
            f"unknown version {version}; this tool reads versions 1 to 4",
        )
    slots = _Slots(doc, version)
    codespace = _parse_codespace(doc, slots)
    interrogator = _parse_interrogator(doc, slots, codespace.ambient_dim)
    errors = _parse_errors(doc, slots, codespace.ambient_dim, interrogator)
    slots.require_referenced()
    try:
        code = StrategicCode(codespace, interrogator)
    except ValueError as exc:
        raise ParseError("interrogator", str(exc)) from exc
    opt = doc.get("optimization")
    if opt is not None and not isinstance(opt, Mapping):
        raise ParseError("optimization", "expected an object")
    return InstanceDocument(
        code=code,
        errors=errors,
        optimization=dict(opt) if opt is not None else None,
        digest=digest,
    )
