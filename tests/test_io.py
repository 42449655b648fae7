"""Instance file round-trips and parse diagnostics."""

import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import combsqec.io as combsqec_io
from combsqec.io import (
    ParseError,
    decode_matrix,
    encode_matrix,
    export_instance,
    instance_text,
    load_instance,
)
from combsqec.library import build_instance, instance_names, random_instance
from combsqec.model import CheckInstrument, ErrorModel, check_op, error_op
from combsqec.tensor import LabeledOperator

from conftest import unchecked_errors


@pytest.fixture(scope="module", params=tuple(instance_names()))
def named(request):
    return build_instance(request.param)


@pytest.fixture(scope="module")
def exported(named, tmp_path_factory):
    """One export of ``named``: its path, returned digest and loaded document."""
    path = str(tmp_path_factory.mktemp("export") / "inst.json")
    digest = export_instance(named.code, named.errors, path)
    return path, digest, load_instance(path)


def write_doc(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def bitflip_doc():
    """bitflip as a version-2 document: every matrix inline."""
    inst = build_instance("bitflip")
    return json.loads(reference_text(inst.code, inst.errors, version=2))


@pytest.fixture()
def bitflip_v3():
    inst = build_instance("bitflip")
    return json.loads(reference_text(inst.code, inst.errors, version=3))


@pytest.fixture()
def bitflip_v4():
    inst = build_instance("bitflip")
    return json.loads(instance_text(inst.code, inst.errors))


@pytest.fixture()
def bitflip_v1():
    inst = build_instance("bitflip")
    return json.loads(reference_text(inst.code, inst.errors, version=1))


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = decode_matrix(encode_matrix(mat), "x")
        assert np.array_equal(back, mat)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParseError, match=r"x\[1\]: row length"):
            decode_matrix([[[1, 0], [0, 0]], [[1, 0]]], "x")

    def test_bad_cell_named(self):
        with pytest.raises(ParseError, match=r"x\[0\]\[1\]"):
            decode_matrix([[[1, 0], [1]]], "x")
        with pytest.raises(ParseError, match=r"x\[0\]\[0\]"):
            decode_matrix([[["a", 0]]], "x")

    def test_non_list_rejected(self):
        with pytest.raises(ParseError, match="non-empty list"):
            decode_matrix({"rows": 1}, "x", version=1)
        with pytest.raises(ParseError, match="non-empty list"):
            decode_matrix("rows", "x")

    def test_sparse_round_trip(self):
        obj = {"nz": [[0, 1, -2.5, 0.0], [2, 0, 0.0, 1.0]], "shape": [3, 2]}
        want = np.zeros((3, 2), dtype=complex)
        want[0, 1], want[2, 0] = -2.5, 1j
        assert np.array_equal(decode_matrix(obj, "x"), want)


# ----------------------------------------------------------------------
# references: the per-cell codecs of both versions and the whole-document
# json.dumps
# ----------------------------------------------------------------------


def reference_encode(mat):
    """Version 1: every matrix dense."""
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[v.real, v.imag] for v in row] for row in arr.tolist()]


def reference_encode_v2(mat):
    """Version 2: sparse iff fewer than half the cells are != 0."""
    arr = np.asarray(mat, dtype=np.complex128)
    n, m = arr.shape
    nz = [
        [i, j, v.real, v.imag]
        for i, row in enumerate(arr.tolist())
        for j, v in enumerate(row)
        if v != 0
    ]
    if 2 * len(nz) < n * m:
        return {"nz": nz, "shape": [n, m]}
    return reference_encode(arr)


def reference_encode_v4(mat):
    """Version 4: the flat parts of every cell, or, when fewer than half
    the cells are != 0, of those cells, after their flat indices."""
    arr = np.asarray(mat, dtype=np.complex128)
    n, m = arr.shape
    cells = [v for row in arr.tolist() for v in row]
    at = [k for k, v in enumerate(cells) if v != 0]
    if 2 * len(at) < n * m:
        parts = [p for k in at for p in (cells[k].real, cells[k].imag)]
        return {"at": at, "data": parts, "shape": [n, m]}
    return {"data": [p for v in cells for p in (v.real, v.imag)], "shape": [n, m]}


ENCODERS = {1: reference_encode, 2: reference_encode_v2, 3: reference_encode_v2,
            4: reference_encode_v4}


def reference_text(code, errors, optimization=None, version=4, indent=None):
    """Versions 1 and 2 write each matrix in its slot; versions 3 and 4
    write the index of its entry in a table of the distinct written forms,
    in order of first use.  ``indent=2`` gives the layout earlier releases
    wrote."""
    encode = ENCODERS[version]
    table, index = [], {}

    def slot(mat):
        obj = encode(mat)
        if version < 3:
            return obj
        key = json.dumps(obj)
        if key not in index:
            index[key] = len(table)
            table.append(obj)
        return index[key]

    basis = slot(code.codespace.basis)
    rounds = []
    for r in range(1, code.interrogator.rounds + 1):
        by_memory = {}
        for memory, inst in sorted(code.interrogator.instruments[r - 1].items()):
            by_memory[memory] = {
                o: slot(op.data) for o, op in sorted(inst.kraus.items())
            }
        update = {}
        for (outcome, memory), nxt in sorted(
            code.interrogator.update.tables[r - 1].items()
        ):
            update.setdefault(outcome, {})[memory] = nxt
        rounds.append({"instruments": by_memory, "update": update})
    err_rounds = [
        {
            "kraus": [slot(op.data) for op in errors.round_ops(r)],
            "env_out": errors.env_dim(r),
        }
        for r in range(errors.rounds + 1)
    ]
    doc = {
        "schema_version": version,
        "dims": {"ambient": code.codespace.ambient_dim, "code": code.codespace.dim},
        "codespace": {"basis": basis},
        "interrogator": {"rounds": rounds},
        "error_model": {
            "trace_nonincreasing": errors.require_trace_nonincreasing,
            "rounds": err_rounds,
        },
    }
    if version >= 3:
        doc["matrices"] = table
    if optimization is not None:
        doc["optimization"] = dict(optimization)
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def instance_arrays(code, errors):
    """Every matrix of an instance, in document order."""
    arrays = [code.codespace.basis]
    for by_memory in code.interrogator.instruments:
        for _, inst in sorted(by_memory.items()):
            arrays += [op.data for _, op in sorted(inst.kraus.items())]
    for r in range(errors.rounds + 1):
        arrays += [op.data for op in errors.round_ops(r)]
    return arrays


def reference_decode(obj, path):
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


def reference_decode_v2(obj, path):
    if isinstance(obj, dict):
        return reference_decode_sparse(obj, path)
    return reference_decode(obj, path)


def reference_decode_sparse(obj, path):
    extra = sorted(map(repr, set(obj) - {"nz", "shape"}))
    if extra:
        raise ParseError(path, f"unexpected key {extra[0]} in a sparse matrix")
    if "shape" not in obj:
        raise ParseError(f"{path}.shape", "missing")
    shape = obj["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(type(x) is int and x > 0 for x in shape)
    ):
        raise ParseError(f"{path}.shape", "expected two positive integers")
    n, m = shape
    try:
        out = np.zeros((n, m), dtype=np.complex128)
    except (ValueError, MemoryError):
        raise ParseError(f"{path}.shape", f"{shape} is too large") from None
    if "nz" not in obj:
        raise ParseError(f"{path}.nz", "missing")
    if not isinstance(obj["nz"], list):
        raise ParseError(f"{path}.nz", "expected a list of entries")
    seen = set()
    for k, entry in enumerate(obj["nz"]):
        epath = f"{path}.nz[{k}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError(epath, "sparse entries are [i, j, re, im]")
        i, j, re, im = entry
        for axis, index, size, what in ((0, i, n, "row"), (1, j, m, "column")):
            if type(index) is not int:
                raise ParseError(
                    f"{epath}[{axis}]", f"expected an integer {what} index"
                )
            if not 0 <= index < size:
                raise ParseError(
                    f"{epath}[{axis}]", f"{what} index {index} out of range {size}"
                )
        if (i, j) in seen:
            raise ParseError(epath, f"duplicate entry {(i, j)}")
        seen.add((i, j))
        for p, part in ((2, re), (3, im)):
            if not isinstance(part, (int, float)):
                raise ParseError(f"{epath}[{p}]", "expected a number")
            try:
                float(part)
            except OverflowError:
                raise ParseError(f"{epath}[{p}]", "number beyond float range") from None
        out[i, j] = complex(float(re), float(im))
    return out


def relabeled_spacetime(tmp_path, memory, outcome):
    """spacetime with memory 'u' and round-2 outcome '0' renamed."""
    inst = build_instance("spacetime")
    doc = json.loads(instance_text(inst.code, inst.errors))
    first, second = doc["interrogator"]["rounds"]
    first["update"]["u"][""] = memory
    ops = second["instruments"].pop("u")
    ops[outcome] = ops.pop("0")
    second["instruments"][memory] = ops
    second["update"][outcome] = second["update"].pop("0")
    for per_memory in second["update"].values():
        per_memory[memory] = per_memory.pop("u")
    return load_instance(write_doc(tmp_path, doc))


class TestCanonicalText:
    """``instance_text`` writes exactly what json.dumps writes."""

    def test_library_instances(self, named):
        assert instance_text(named.code, named.errors) == reference_text(
            named.code, named.errors
        )

    def test_random_instances(self):
        for seed in range(48):
            inst = random_instance(seed, qubits=1 + seed % 2)
            assert instance_text(inst.code, inst.errors) == reference_text(
                inst.code, inst.errors
            ), seed

    def test_optimization_block(self):
        inst = build_instance("spacetime")
        block = {"logical_dim": 2, "memory_structure": [1, 2],
                 "config": {"seed": 7, "tol": 1e-9, "note": "combsqec-matrix-0-1"},
                 "combsqec-matrix-1-0": [1.5, -0.0, float("inf")]}
        assert instance_text(inst.code, inst.errors, block) == reference_text(
            inst.code, inst.errors, block
        )

    @pytest.mark.parametrize("memory,outcome", [
        ("combsqec-matrix-0-0", "0"),
        ("u", "combsqec-matrix-0-3"),
        ("combsqec-matrix-0-2", "combsqec-matrix-1-4"),
    ])
    def test_placeholder_shaped_labels(self, tmp_path, memory, outcome):
        doc = relabeled_spacetime(tmp_path, memory, outcome)
        assert memory in doc.code.interrogator.instruments[1]
        text = instance_text(doc.code, doc.errors)
        assert text == reference_text(doc.code, doc.errors)
        slot = json.loads(text)["interrogator"]["rounds"][1]["instruments"][memory]
        assert type(slot[outcome]) is int  # an index, not a placeholder

    def test_non_finite_entries(self):
        # json spells these NaN, Infinity and -Infinity
        inst = build_instance("bitflip")
        first, *rest = inst.errors.kraus_rounds[0]
        data = first.data.copy()
        data[0, 0] = complex(math.inf, -0.0)
        data[1, 1] = complex(math.nan, -math.inf)
        data[2, 2] = complex(-0.0, 5e-324)
        odd = LabeledOperator(first.row_subsystems, first.col_subsystems, data)
        errors = unchecked_errors(((odd, *rest),))
        text = instance_text(inst.code, errors)
        assert text == reference_text(inst.code, errors)
        assert all(word in text for word in ("NaN", "Infinity", "-Infinity"))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matrices_of_any_sparsity(self, data):
        # bitflip's first error Kraus operator (8 x 8): k cells with parts
        # drawn from signed zeros, non-finite values and floats, the other
        # cells complex zeros with parts of drawn signs
        inst = build_instance("bitflip")
        first, *rest = inst.errors.kraus_rounds[0]
        k = data.draw(st.integers(0, 64))
        cells = data.draw(st.permutations(range(64)))[:k]
        signs = data.draw(st.integers(0, 2**128 - 1))
        parts = np.array([-0.0 if signs >> b & 1 else 0.0 for b in range(128)])
        # json has one NaN, so drawn NaNs would lose their payloads
        part = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
        for c in cells:
            parts[2 * c : 2 * c + 2] = data.draw(part), data.draw(part)
        odd = LabeledOperator(
            first.row_subsystems, first.col_subsystems,
            parts.view(np.complex128).reshape(8, 8),
        )
        errors = unchecked_errors(((odd, *rest),))
        text = instance_text(inst.code, errors)
        assert text == reference_text(inst.code, errors)
        doc = json.loads(text)
        k = doc["error_model"]["rounds"][0]["kraus"][0]
        got = combsqec_io._Slots(doc, 4).matrix(k, "m", (8, 8))
        sparse = 2 * np.count_nonzero(odd.data) < 64
        assert ("at" in doc["matrices"][k]) == sparse
        want = np.where(odd.data != 0, odd.data, 0) if sparse else odd.data
        assert got.tobytes() == want.tobytes()

    def test_unserializable_block_rejected(self):
        inst = build_instance("bitflip")
        with pytest.raises(TypeError, match="not JSON serializable"):
            instance_text(inst.code, inst.errors, {"x": object()})

    def test_encode_matrix_matches_reference(self):
        special = [0.0, -0.0, 1.0, -1e-300, 5e-324, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(3)
        cases = [
            np.array([[complex(a, b) for b in special] for a in special]),
            rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
            np.asfortranarray(rng.standard_normal((4, 3))),
            np.arange(6).reshape(2, 3),
            np.zeros((2, 0)),
        ]
        for mat in cases:
            got = encode_matrix(mat)
            want = reference_encode(mat)
            assert repr(got) == repr(want)
            assert {type(x) for row in got for cell in row for x in cell} <= {float}


class TestRoundTrip:
    def test_reexport_is_byte_identical(self, named, exported):
        _, _, doc = exported
        assert instance_text(doc.code, doc.errors) == instance_text(
            named.code, named.errors
        )

    def test_digest_is_of_the_written_bytes(self, exported):
        path, digest, doc = exported
        assert doc.digest == digest
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_optimization_block_preserved(self, tmp_path):
        inst = build_instance("spacetime")
        block = {"logical_dim": 2, "memory_structure": [1, 2],
                 "config": {"seed": 7}}
        path = str(tmp_path / "opt.json")
        export_instance(inst.code, inst.errors, path, optimization=block)
        doc = load_instance(path)
        assert doc.optimization == block

    def test_no_block_loads_as_none(self, tmp_path):
        inst = build_instance("bitflip")
        path = str(tmp_path / "plain.json")
        export_instance(inst.code, inst.errors, path)
        assert load_instance(path).optimization is None


def load_text(tmp_path, text, name):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    doc = load_instance(str(path))
    assert doc.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    return doc


def as_written(mat):
    """``mat`` as its sparse or dense form reads back: a sparse form drops
    its zeros, so they read back as +0."""
    arr = np.ascontiguousarray(mat, dtype=np.complex128)
    return np.where(arr != 0, arr, 0) if 2 * np.count_nonzero(arr) < arr.size else arr


def assert_same_arrays(first, second, bitwise=False):
    """``second`` holds ``first``'s arrays; with ``bitwise``, exactly the
    arrays ``first``'s matrices read back as."""
    want = instance_arrays(first.code, first.errors)
    got = instance_arrays(second.code, second.errors)
    assert len(got) == len(want)
    if bitwise:
        assert [a.tobytes() for a in got] == [as_written(b).tobytes() for b in want]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestSchemaVersions:
    """Version-1 and version-2 files, and version-3 files in the indented
    layout earlier releases wrote, still load, to the arrays of their
    canonical version-3 load.

    The v1 and v2 texts are written without indentation: the reader
    ignores whitespace, and json's pure-Python indenting encoder takes
    seconds on hexagon's 311,424 dense cells.
    """

    def test_indented_v3_library_files_load_to_bitwise_equal_arrays(
        self, tmp_path, named
    ):
        text = reference_text(named.code, named.errors, version=3, indent=2)
        loaded = load_text(tmp_path, text, "indented.json")
        assert_same_arrays(named, loaded, bitwise=True)
        assert instance_text(loaded.code, loaded.errors) == instance_text(
            named.code, named.errors
        )

    def test_indented_v3_random_files_load_to_bitwise_equal_arrays(self, tmp_path):
        for seed in range(20):
            inst = random_instance(seed, qubits=1 + seed % 2)
            text = reference_text(inst.code, inst.errors, version=3, indent=2)
            loaded = load_text(tmp_path, text, "indented.json")
            assert_same_arrays(inst, loaded, bitwise=True)
            reexported = instance_text(loaded.code, loaded.errors)
            assert reexported == reference_text(inst.code, inst.errors), seed
            assert reexported != text, seed

    def test_v1_library_files_load_to_equal_arrays(self, tmp_path, named, exported):
        v1 = reference_text(named.code, named.errors, version=1)
        assert json.loads(v1)["schema_version"] == 1
        assert_same_arrays(load_text(tmp_path, v1, "v1.json"), exported[2])

    def test_v2_library_files_load_to_bitwise_equal_arrays(
        self, tmp_path, named, exported
    ):
        v2 = reference_text(named.code, named.errors, version=2)
        assert json.loads(v2)["schema_version"] == 2
        loaded = load_text(tmp_path, v2, "v2.json")
        assert_same_arrays(loaded, exported[2], bitwise=True)

    def test_v1_random_files_load_to_equal_arrays(self, tmp_path):
        for seed in range(48):
            inst = random_instance(seed, qubits=1 + seed % 2)
            docs = [
                load_text(tmp_path, text, f"v{version}.json")
                for version, text in (
                    (1, reference_text(inst.code, inst.errors, version=1)),
                    (2, reference_text(inst.code, inst.errors, version=2)),
                    (3, reference_text(inst.code, inst.errors, version=3)),
                    (4, instance_text(inst.code, inst.errors)),
                )
            ]
            assert_same_arrays(docs[0], docs[3])
            assert_same_arrays(docs[1], docs[3], bitwise=True)
            assert_same_arrays(docs[2], docs[3], bitwise=True)

    def test_v1_document_with_sparse_matrix_rejected(self, tmp_path, bitflip_doc):
        bitflip_doc["schema_version"] = 1
        with pytest.raises(
            ParseError, match=r"codespace.basis: expected a non-empty list of rows"
        ):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_v2_reads_dense_matrices(self, tmp_path, bitflip_v1):
        bitflip_v1["schema_version"] = 2
        inst = build_instance("bitflip")
        assert_same_arrays(load_instance(write_doc(tmp_path, bitflip_v1)), inst)


def distinct_matrices(code, errors):
    """The number of bitwise-distinct matrices, as they read back."""
    arrays = map(as_written, instance_arrays(code, errors))
    return len({(a.shape, a.tobytes()) for a in arrays})


class TestMatrixTable:
    """Version 3 writes each bitwise-distinct matrix once and reads it back
    bitwise."""

    @pytest.mark.parametrize("name, entries, slots", [
        ("hexagon", 20, 77), ("window-full", 10, 98),
    ])
    def test_table_sizes(self, name, entries, slots):
        inst = build_instance(name)
        doc = json.loads(instance_text(inst.code, inst.errors))
        assert len(doc["matrices"]) == entries
        assert len(instance_arrays(inst.code, inst.errors)) == slots

    def test_library_instances(self, named, exported):
        path, _, loaded = exported
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)["matrices"]
        assert len(table) == distinct_matrices(named.code, named.errors)
        assert_same_arrays(named, loaded, bitwise=True)

    def test_random_instances(self, tmp_path):
        for seed in range(48):
            inst = random_instance(seed, qubits=1 + seed % 2)
            text = instance_text(inst.code, inst.errors)
            table = json.loads(text)["matrices"]
            assert len(table) == distinct_matrices(inst.code, inst.errors), seed
            doc = load_text(tmp_path, text, "v4.json")
            assert instance_text(doc.code, doc.errors) == text, seed
            assert_same_arrays(inst, doc, bitwise=True)

    def test_hexagon_file_is_under_256_kb(self, tmp_path):
        # 158,151 B; in version 3 191,290 B, indented as
        # json.dumps(doc, indent=2) 683,106 B, and with every slot written in
        # full (version 2) 4.77 MB
        inst = build_instance("hexagon")
        path = tmp_path / "hexagon.json"
        export_instance(inst.code, inst.errors, str(path))
        assert path.stat().st_size < 256_000

    def test_operators_built_once_per_round_and_entry(self, exported, monkeypatch):
        with open(exported[0], encoding="utf-8") as fh:
            doc = json.load(fh)
        want = {
            ("_check_op_sides", r, k)
            for r, rnd in enumerate(doc["interrogator"]["rounds"], start=1)
            for outcomes in rnd["instruments"].values()
            for k in outcomes.values()
        } | {
            ("_error_op_sides", r, k)
            for r, rnd in enumerate(doc["error_model"]["rounds"])
            for k in rnd["kraus"]
        }
        built = []
        for name in ("_check_op_sides", "_error_op_sides"):
            def counted(r, shape, *dims, name=name, sides=getattr(combsqec_io, name)):
                built.append((name, r))
                return sides(r, shape, *dims)
            monkeypatch.setattr(combsqec_io, name, counted)
        load_instance(exported[0])
        assert sorted(built) == sorted((name, r) for name, r, _ in want)

    def test_instruments_validated_once_per_round_and_entries(self, exported, monkeypatch):
        with open(exported[0], encoding="utf-8") as fh:
            doc = json.load(fh)
        want = {
            (r, tuple(outcomes.items()))
            for r, rnd in enumerate(doc["interrogator"]["rounds"], start=1)
            for outcomes in rnd["instruments"].values()
        }
        validated = []
        post_init = CheckInstrument.__post_init__

        def counted(inst):
            validated.append(inst)
            post_init(inst)
        monkeypatch.setattr(CheckInstrument, "__post_init__", counted)
        loaded = load_instance(exported[0])
        assert len(validated) == len(want)
        # memories whose outcomes reference the same entries hold one object
        rounds = zip(doc["interrogator"]["rounds"], loaded.code.interrogator.instruments)
        for rnd, per_memory in rounds:
            by_entries = {}
            for memory, outcomes in rnd["instruments"].items():
                inst = by_entries.setdefault(tuple(outcomes.items()), per_memory[memory])
                assert per_memory[memory] is inst
            assert len({id(i) for i in per_memory.values()}) == len(by_entries)

    @pytest.mark.parametrize("which", [0, 1])
    def test_incomplete_instrument_named_at_its_first_memory(self, tmp_path, which):
        # hexagon's eight round-2 memories reference the same eight entries;
        # scale one of them (0), or a copy that only the second memory references (1)
        inst = build_instance("hexagon")
        doc = json.loads(instance_text(inst.code, inst.errors))
        instruments = doc["interrogator"]["rounds"][1]["instruments"]
        assert len({tuple(o.items()) for o in instruments.values()}) == 1 < len(instruments)
        memory = list(instruments)[which]
        outcome, k = next(iter(instruments[memory].items()))
        entry = doc["matrices"][k]
        if which:
            entry = json.loads(json.dumps(entry))
            doc["matrices"].append(entry)
            instruments[memory][outcome] = len(doc["matrices"]) - 1
        entry["data"][:] = [2.0 * x for x in entry["data"]]
        with pytest.raises(ParseError) as info:
            load_instance(write_doc(tmp_path, doc))
        assert str(info.value) == (
            f"interrogator.rounds[1].instruments[{memory!r}]: "
            "instrument is not complete: sum of C^dag C != I"
        )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "expected an integer index into matrices"),
            (1.0, "expected an integer index into matrices"),
            (7, "matrix index 7 out of range 4"),
        ],
    )
    def test_shared_entries_resolved_at_each_memory(self, tmp_path, bad, message):
        # memory 'y' lists memory 'x''s entries but for one index; True == 1.0
        # == 1 as a dict key, so only resolving the slot itself rejects them
        doc = {
            "schema_version": 3,
            "dims": {"ambient": 2, "code": 1},
            "codespace": {"basis": 0},
            "interrogator": {"rounds": [
                {"instruments": {"": {"a": 2, "b": 3}},
                 "update": {"a": {"": "x"}, "b": {"": "y"}}},
                {"instruments": {"x": {"c": 1}, "y": {"c": 1}},
                 "update": {"c": {"x": "z", "y": "z"}}},
            ]},
            "error_model": {"rounds": [{"kraus": [1]}] * 3},
            "matrices": [
                encode_matrix(np.eye(2)[:, :1]), encode_matrix(np.eye(2)),
                encode_matrix(np.diag([1.0, 0.0])), encode_matrix(np.diag([0.0, 1.0])),
            ],
        }
        load_instance(write_doc(tmp_path, doc))
        doc["interrogator"]["rounds"][1]["instruments"]["y"]["c"] = bad
        with pytest.raises(ParseError) as info:
            load_instance(write_doc(tmp_path, doc))
        assert str(info.value) == f"interrogator.rounds[1].instruments['y']['c']: {message}"


class TestDiagnostics:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match=r"\(document\): invalid JSON"):
            load_instance(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(ParseError, match=r"\(document\)"):
            load_instance(write_doc(tmp_path, []))

    def test_unknown_schema_version(self, tmp_path, bitflip_doc):
        bitflip_doc["schema_version"] = 99
        with pytest.raises(ParseError, match="schema_version: unknown version 99"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_bool_is_not_an_integer(self, tmp_path, bitflip_doc):
        bitflip_doc["schema_version"] = True
        with pytest.raises(ParseError, match="schema_version: expected an integer"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_missing_dims_named(self, tmp_path, bitflip_doc):
        del bitflip_doc["dims"]
        with pytest.raises(ParseError, match="dims: missing"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_non_orthonormal_basis_named(
        self, tmp_path, bitflip_v1, bitflip_doc, bitflip_v3, bitflip_v4
    ):
        bitflip_v1["codespace"]["basis"][0][0] = [0.7, 0.0]
        bitflip_doc["codespace"]["basis"]["nz"][0][2] = 0.7
        bitflip_v3["matrices"][bitflip_v3["codespace"]["basis"]]["nz"][0][2] = 0.7
        bitflip_v4["matrices"][bitflip_v4["codespace"]["basis"]]["data"][0] = 0.7
        for doc in (bitflip_v1, bitflip_doc, bitflip_v3, bitflip_v4):
            with pytest.raises(ParseError, match="codespace.basis.*not orthonormal"):
                load_instance(write_doc(tmp_path, doc))

    def test_basis_shape_mismatch_named(self, tmp_path, bitflip_doc):
        bitflip_doc["dims"]["code"] = 3
        with pytest.raises(ParseError, match="codespace.basis: shape"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_bad_kraus_cell_named(self, tmp_path, bitflip_v1):
        bitflip_v1["error_model"]["rounds"][0]["kraus"][0][0][0] = [1.0]
        with pytest.raises(
            ParseError, match=r"error_model.rounds\[0\].kraus\[0\]\[0\]\[0\]"
        ):
            load_instance(write_doc(tmp_path, bitflip_v1))

    def test_bad_env_out_named(self, tmp_path, bitflip_doc):
        bitflip_doc["error_model"]["rounds"][0]["env_out"] = 0
        with pytest.raises(
            ParseError, match=r"error_model.rounds\[0\].env_out"
        ):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_env_divisibility_named(self, tmp_path, bitflip_doc):
        bitflip_doc["error_model"]["rounds"][0]["env_out"] = 3
        with pytest.raises(ParseError, match="not divisible by env_out 3"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_overweight_error_model_rejected(self, tmp_path, bitflip_doc):
        kraus = bitflip_doc["error_model"]["rounds"][0]["kraus"]
        kraus.append(kraus[0])
        with pytest.raises(ParseError, match="error_model"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_optimization_must_be_object(self, tmp_path, bitflip_doc):
        bitflip_doc["optimization"] = [1, 2]
        with pytest.raises(ParseError, match="optimization: expected an object"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    # sparse matrices: bitflip's first error Kraus operator is 0.5 I on 8
    # levels, {"nz": [[k, k, 0.5, 0.0] for k in range(8)], "shape": [8, 8]}
    KRAUS = r"error_model\.rounds\[0\]\.kraus\[0\]"

    def sparse_error(self, tmp_path, doc, edit, match):
        edit(doc["error_model"]["rounds"][0]["kraus"][0])
        with pytest.raises(ParseError, match=self.KRAUS + match):
            load_instance(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("shape", [
        [8], [8, 8, 1], [8, 0], [-8, 8], [8, True], [8, 8.0], "8x8", None,
    ])
    def test_sparse_shape_must_be_two_positive_ints(
        self, tmp_path, bitflip_doc, shape
    ):
        self.sparse_error(tmp_path, bitflip_doc, lambda m: m.update(shape=shape),
                          r"\.shape: expected two positive integers")

    def test_sparse_shape_too_large(self, tmp_path, bitflip_doc):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m.update(shape=[2**62, 2**62]),
                          r"\.shape: .* is too large")

    @pytest.mark.parametrize("key", ["nz", "shape"])
    def test_sparse_key_missing(self, tmp_path, bitflip_doc, key):
        self.sparse_error(tmp_path, bitflip_doc, lambda m: m.pop(key),
                          rf"\.{key}: missing")

    def test_sparse_unexpected_key(self, tmp_path, bitflip_doc):
        self.sparse_error(tmp_path, bitflip_doc, lambda m: m.update(rows=8),
                          r": unexpected key 'rows'")

    @pytest.mark.parametrize("entry", [[0, 0, 1.0], [0, 0, 1.0, 0.0, 0.0], "x"])
    def test_sparse_entry_needs_four_items(self, tmp_path, bitflip_doc, entry):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m["nz"].__setitem__(3, entry),
                          r"\.nz\[3\]: sparse entries are \[i, j, re, im\]")

    @pytest.mark.parametrize("item,value,message", [
        (0, 1.0, "expected an integer row index"),
        (1, True, "expected an integer column index"),
        (1, "3", "expected an integer column index"),
        (0, 8, "row index 8 out of range 8"),
        (1, -1, "column index -1 out of range 8"),
        (0, 2**70, "row index .* out of range 8"),
    ])
    def test_sparse_bad_index(self, tmp_path, bitflip_doc, item, value, message):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m["nz"][3].__setitem__(item, value),
                          rf"\.nz\[3\]\[{item}\]: {message}")

    def test_sparse_duplicate_entry(self, tmp_path, bitflip_doc):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m["nz"].append([2, 2, 0.5, 0.0]),
                          r"\.nz\[8\]: duplicate entry \(2, 2\)")

    @pytest.mark.parametrize("value", ["1", None, [1.0]])
    def test_sparse_part_must_be_a_number(self, tmp_path, bitflip_doc, value):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m["nz"][3].__setitem__(3, value),
                          r"\.nz\[3\]\[3\]: expected a number")

    def test_sparse_part_beyond_float_range(self, tmp_path, bitflip_doc):
        self.sparse_error(tmp_path, bitflip_doc,
                          lambda m: m["nz"][3].__setitem__(2, 10**400),
                          r"\.nz\[3\]\[2\]: number beyond float range")

    def test_sparse_shape_must_match_dims(self, tmp_path, bitflip_doc):
        bitflip_doc["codespace"]["basis"]["shape"] = [8, 3]
        with pytest.raises(ParseError, match="codespace.basis: shape"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_all_zero_sparse_matrix_is_valid(self, tmp_path, bitflip_doc):
        kraus = bitflip_doc["error_model"]["rounds"][0]["kraus"]
        kraus.append({"nz": [], "shape": [8, 8]})
        errors = load_instance(write_doc(tmp_path, bitflip_doc)).errors
        last = errors.round_ops(0)[-1].data
        assert last.shape == (8, 8) and not last.any()


class TestTableDiagnostics:
    """Version-3 slots and table entries; bitflip's table holds its basis
    (8 x 2), then its four error Kraus operators (8 x 8) as entries 1-4."""

    @pytest.mark.parametrize("index", [True, 0.0, "0", None, [[[1.0, 0.0]]]])
    def test_index_must_be_an_integer(self, tmp_path, bitflip_v3, index):
        bitflip_v3["codespace"]["basis"] = index
        with pytest.raises(
            ParseError, match="codespace.basis: expected an integer index into matrices"
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))

    @pytest.mark.parametrize("index", [-1, 5, 2**70])
    def test_index_out_of_range(self, tmp_path, bitflip_v3, index):
        bitflip_v3["error_model"]["rounds"][0]["kraus"][1] = index
        with pytest.raises(
            ParseError,
            match=rf"error_model.rounds\[0\].kraus\[1\]: matrix index {index} "
            r"out of range 5",
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))

    def test_table_must_be_a_list(self, tmp_path, bitflip_v3):
        bitflip_v3["matrices"] = {"0": bitflip_v3["matrices"][0]}
        with pytest.raises(ParseError, match="matrices: expected a list of matrices"):
            load_instance(write_doc(tmp_path, bitflip_v3))
        del bitflip_v3["matrices"]
        with pytest.raises(ParseError, match="matrices: missing"):
            load_instance(write_doc(tmp_path, bitflip_v3))

    def test_unreferenced_entry(self, tmp_path, bitflip_v3):
        # an entry no slot references is never decoded, so never validated
        bitflip_v3["matrices"].append("not a matrix")
        with pytest.raises(ParseError, match=r"matrices\[5\]: not referenced by any slot"):
            load_instance(write_doc(tmp_path, bitflip_v3))

    def test_references_imply_different_shapes(self, tmp_path, bitflip_v3):
        bitflip_v3["error_model"]["rounds"][0]["kraus"][1] = 0
        with pytest.raises(
            ParseError,
            match=r"error_model.rounds\[0\].kraus\[1\]: matrices\[0\]: "
            r"shape \(8, 2\) does not match dims \(8, 8\)",
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))

    def test_oversized_shape_rejected_at_its_reference(
        self, tmp_path, bitflip_v3, monkeypatch
    ):
        # checked against the dims its first reference implies, before its
        # 244 MiB array is allocated
        bitflip_v3["matrices"][0] = {"nz": [[3999, 3999, 1.0, 0.0]], "shape": [4000, 4000]}
        allocated = []
        zeros = combsqec_io._zeros
        monkeypatch.setattr(
            combsqec_io, "_zeros",
            lambda shape, path: allocated.append(shape) or zeros(shape, path),
        )
        with pytest.raises(
            ParseError,
            match=r"codespace.basis: matrices\[0\]: shape \(4000, 4000\) does not "
            r"match dims \(8, 2\)",
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))
        assert [4000, 4000] not in allocated

    def test_bad_entry_named_at_its_first_reference(self, tmp_path, bitflip_v3):
        kraus = bitflip_v3["error_model"]["rounds"][0]["kraus"]
        bitflip_v3["matrices"][kraus[0]]["nz"][3][3] = "x"
        with pytest.raises(
            ParseError,
            match=rf"error_model.rounds\[0\].kraus\[0\]: matrices\[{kraus[0]}\]"
            r".nz\[3\]\[3\]: expected a number",
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))

    def test_version_2_slots_are_not_indices(self, tmp_path, bitflip_v3):
        bitflip_v3["schema_version"] = 2
        with pytest.raises(
            ParseError, match="codespace.basis: expected a non-empty list of rows"
        ):
            load_instance(write_doc(tmp_path, bitflip_v3))


@pytest.fixture()
def spacetime_doc():
    """spacetime as a version-2 document: every matrix inline."""
    inst = build_instance("spacetime")
    return json.loads(reference_text(inst.code, inst.errors, version=2))


class TestInterrogatorDiagnostics:
    def test_round_shapes_follow_their_first_matrix(self, tmp_path, spacetime_doc):
        # the second instrument of a round takes the first's shape, and an
        # error round before a check round writes what that round reads
        rounds = spacetime_doc["interrogator"]["rounds"]
        rounds[1]["instruments"]["u"]["1"] = [[[0.0, 0.0]] * 4] * 3
        with pytest.raises(
            ParseError,
            match=r"interrogator.rounds\[1\].instruments\['u'\]\['1'\]: "
            r"shape \(3, 4\) does not match dims \(4, 4\)",
        ):
            load_instance(write_doc(tmp_path, spacetime_doc))
        inst = build_instance("spacetime")
        doc = json.loads(reference_text(inst.code, inst.errors, version=2))
        doc["error_model"]["rounds"][0]["kraus"][0]["shape"] = [5, 4]
        with pytest.raises(
            ParseError,
            match=r"error_model.rounds\[0\].kraus\[0\]: "
            r"shape \(5, 4\) does not match dims \(4, 4\)",
        ):
            load_instance(write_doc(tmp_path, doc))

    def test_incomplete_instrument_named(self, tmp_path, spacetime_doc):
        rounds = spacetime_doc["interrogator"]["rounds"]
        memory = next(iter(rounds[0]["instruments"]))
        outcome = next(iter(rounds[0]["instruments"][memory]))
        mat = rounds[0]["instruments"][memory][outcome]
        mat["nz"][0][2] = 0.5
        with pytest.raises(
            ParseError, match=r"interrogator.rounds\[0\].instruments.*not complete"
        ):
            load_instance(write_doc(tmp_path, spacetime_doc))

    def test_update_entry_must_be_string(self, tmp_path, spacetime_doc):
        rounds = spacetime_doc["interrogator"]["rounds"]
        outcome = next(iter(rounds[0]["update"]))
        memory = next(iter(rounds[0]["update"][outcome]))
        rounds[0]["update"][outcome][memory] = 3
        with pytest.raises(
            ParseError, match=r"interrogator.rounds\[0\].update.*expected a string"
        ):
            load_instance(write_doc(tmp_path, spacetime_doc))

    def test_missing_update_entry_caught(self, tmp_path, spacetime_doc):
        rounds = spacetime_doc["interrogator"]["rounds"]
        outcome = next(iter(rounds[0]["update"]))
        del rounds[0]["update"][outcome]
        with pytest.raises(ParseError, match="interrogator"):
            load_instance(write_doc(tmp_path, spacetime_doc))

    def test_empty_instruments_rejected(self, tmp_path, spacetime_doc):
        spacetime_doc["interrogator"]["rounds"][0]["instruments"] = {}
        with pytest.raises(
            ParseError, match=r"interrogator.rounds\[0\].instruments"
        ):
            load_instance(write_doc(tmp_path, spacetime_doc))


# ----------------------------------------------------------------------
# decode_matrix against the per-cell reference
# ----------------------------------------------------------------------

PLAIN = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
NUMBERS = st.one_of(
    PLAIN,
    st.integers(2**62, 2**65),
    st.integers(-(2**64), -(2**62)),
    st.just(10**400),
)
JUNK = st.one_of(
    st.text(max_size=2),
    st.none(),
    # numpy scalars: only float64 is a float (or int) subclass
    st.sampled_from([np.float32(1.5), np.int64(2), np.float64(-0.0)]),
    st.tuples(NUMBERS, NUMBERS),
    st.lists(NUMBERS, max_size=3),
    st.lists(st.lists(NUMBERS, max_size=2), max_size=2),
)
MUTATIONS = ("leaf", "cell", "tuple_cell", "row", "tuple_row", "empty_row",
             "ragged", "tuple_matrix", "deeper", "shallower", "empty")
SPECIAL = [0.0, -0.0, 1.0, -1e-300, 5e-324, math.inf, -math.inf, math.nan]
ZERO = st.sampled_from([0.0, -0.0])
INDEX_JUNK = st.one_of(
    st.sampled_from([-1, 4, 2**63, 2**70, True, 1.0, "0", None, np.int64(0)]),
    JUNK,
)
SHAPE_JUNK = st.one_of(
    st.lists(st.sampled_from([1, 2, 0, -1, True, 2.0, 10**30, 2**62]), max_size=3),
    JUNK,
)
SPARSE_MUTATIONS = ("shape", "drop_key", "extra_key", "nz", "entry",
                    "tuple_entry", "short", "long", "index", "part", "duplicate")


@st.composite
def sparse_matrices(draw):
    """Mostly well-formed sparse objects, in any entry order and with any
    parts, then zero to two defects."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          unique=True, max_size=n * m))
    numbers = draw(st.sampled_from([PLAIN, PLAIN, NUMBERS]))
    nz = [[i, j, draw(numbers), draw(numbers)] for i, j in cells]
    obj = {"nz": nz, "shape": [n, m]}
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(SPARSE_MUTATIONS))
        k = draw(st.integers(0, len(nz) - 1)) if nz else 0
        entry = nz[k] if k < len(nz) and isinstance(nz[k], list) else None
        if kind == "shape":
            obj["shape"] = draw(SHAPE_JUNK)
        elif kind == "drop_key":
            obj.pop(draw(st.sampled_from(["nz", "shape"])), None)
        elif kind == "extra_key":
            obj[draw(st.sampled_from(["rows", "nz ", ""]))] = draw(JUNK)
        elif kind == "nz":
            obj["nz"] = draw(JUNK | st.just(tuple(nz)))
        elif entry is None:
            continue
        elif kind == "entry":
            nz[k] = draw(JUNK)
        elif kind == "tuple_entry":
            nz[k] = tuple(entry)
        elif kind == "short" and entry:
            entry.pop()
        elif kind == "long":
            entry.append(draw(NUMBERS))
        elif kind == "index" and len(entry) > 1:
            entry[draw(st.integers(0, 1))] = draw(INDEX_JUNK)
        elif kind == "part" and len(entry) == 4:
            entry[draw(st.integers(2, 3))] = draw(JUNK)
        elif kind == "duplicate":
            nz.append(list(entry[:2]) + [draw(NUMBERS), draw(NUMBERS)])
    return obj


@st.composite
def nested_matrices(draw):
    """Mostly well-formed matrices, then zero to two structural defects."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = draw(st.sampled_from([PLAIN, PLAIN, NUMBERS]))
    mat = [[[draw(numbers), draw(numbers)] for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(mat) - 1)) if mat else 0
        if kind == "empty":
            mat = []
        elif not mat or not isinstance(mat, list):
            continue
        elif kind == "tuple_matrix":
            mat = tuple(mat)
        elif kind == "shallower":
            mat = mat[i] if isinstance(mat[i], list) else mat
        elif kind == "deeper":
            mat = [mat]
        elif kind == "row":
            mat[i] = draw(JUNK)
        elif kind == "tuple_row" and isinstance(mat[i], list):
            mat[i] = tuple(mat[i])
        elif kind == "empty_row":
            mat[i] = []
        elif kind == "ragged" and isinstance(mat[i], list):
            mat[i] = mat[i] + [[draw(NUMBERS), draw(NUMBERS)]]
        elif isinstance(mat[i], list) and mat[i]:
            j = draw(st.integers(0, len(mat[i]) - 1))
            if kind == "cell":
                mat[i][j] = draw(JUNK)
            elif kind == "tuple_cell" and isinstance(mat[i][j], list):
                mat[i][j] = tuple(mat[i][j])
            elif kind == "leaf" and isinstance(mat[i][j], list) and mat[i][j]:
                mat[i][j][draw(st.integers(0, len(mat[i][j]) - 1))] = draw(JUNK)
    return mat


def decode_outcome(fn, obj):
    try:
        arr = fn(obj, "m")
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    return ("decoded", arr.dtype, arr.shape, arr.tobytes())


class TestDecodeMatchesReference:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(obj=st.one_of(
        nested_matrices(),
        st.recursive(NUMBERS | JUNK, lambda c: st.lists(c, max_size=3)
                     | st.tuples(c, c), max_leaves=10),
    ))
    def test_same_array_or_same_error(self, obj):
        assert decode_outcome(decode_matrix, obj) == decode_outcome(
            reference_decode, obj
        )

    def test_bitwise_parts(self):
        # -0.0 real parts and 0 * inf products survive: no re + 1j * im
        obj = [[[-0.0, 0.0], [0.0, -0.0]], [[math.inf, 0.0], [-0.0, math.inf]]]
        got = decode_matrix(obj, "m")
        assert got.tobytes() == reference_decode(obj, "m").tobytes()
        assert math.copysign(1.0, got[0, 0].real) == -1.0
        assert got[1, 0] == complex(math.inf, 0.0)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(obj=sparse_matrices())
    def test_sparse_same_array_or_same_error(self, obj):
        assert decode_outcome(decode_matrix, obj) == decode_outcome(
            reference_decode_v2, obj
        )

    def test_library_matrices(self, named):
        doc = json.loads(reference_text(named.code, named.errors, version=3))
        for obj in doc["matrices"]:
            assert decode_outcome(decode_matrix, obj) == decode_outcome(
                reference_decode_v2, obj
            )


# ----------------------------------------------------------------------
# the version-3 table resolver against per-entry decode and the reference
# ----------------------------------------------------------------------

# well-typed numbers, ints among them, that a double holds
WELL_TYPED = st.one_of(PLAIN, st.integers(2**62, 2**65), st.integers(-(2**64), -(2**62)))
SLOT_SHAPES = st.one_of(
    st.just((None, None)),
    st.tuples(st.none() | st.integers(1, 4), st.none() | st.integers(1, 4)),
)


@st.composite
def well_formed_tables(draw):
    """Sparse entries in any entry order and dense entries, mixed, each
    with well-typed numbers."""
    table = []
    for _ in range(draw(st.integers(1, 5))):
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        if draw(st.booleans()):
            table.append([[[draw(WELL_TYPED), draw(WELL_TYPED)] for _ in range(m)]
                          for _ in range(n)])
            continue
        cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                              unique=True, max_size=n * m))
        table.append({"nz": [[i, j, draw(WELL_TYPED), draw(WELL_TYPED)] for i, j in cells],
                      "shape": [n, m]})
    return table


def slot_outcome(slots, k, shape):
    return decode_outcome(lambda _, path: slots.matrix(k, path, shape), None)


def per_entry_slot(table, k, shape):
    """One table entry through decode_matrix, its error under the slot."""

    def decode(_, path):
        try:
            return decode_matrix(table[k], f"matrices[{k}]", 3, shape)
        except ParseError as exc:
            raise ParseError(path, str(exc)) from exc

    return decode_outcome(decode, None)


class TestTableSlots:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(table=well_formed_tables())
    def test_well_formed_table_decodes_bitwise(self, table):
        # the one-call conversion against the element-by-element reference
        slots = combsqec_io._Slots({"matrices": table}, 3)
        for k in range(len(table)):
            got = slot_outcome(slots, k, (None, None))
            assert got[0] == "decoded"
            assert got == decode_outcome(reference_decode_v2, table[k])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_table_gives_the_per_entry_array_or_error(self, data):
        # defects of sparse_matrices and nested_matrices: unsorted, repeated
        # and out-of-range indices, bool, float and str indices, ints, -0.0
        # and overflowing literals in value slots
        table = data.draw(st.lists(st.one_of(sparse_matrices(), nested_matrices(),
                                             well_formed_tables().map(lambda t: t[0])),
                                   min_size=1, max_size=5))
        shapes = data.draw(st.lists(SLOT_SHAPES, min_size=len(table), max_size=len(table)))
        slots = combsqec_io._Slots({"matrices": table}, 3)
        for k, shape in enumerate(shapes):
            assert slot_outcome(slots, k, shape) == per_entry_slot(table, k, shape)

    def test_bad_entry_beside_a_good_one(self):
        good = {"nz": [[0, 0, 1.0, 0.0]], "shape": [1, 1]}
        bad = {"nz": [[0, 0, "1", 0.0]], "shape": [1, 1]}
        slots = combsqec_io._Slots({"matrices": [good, bad]}, 3)
        assert slots.matrix(0, "slot", (1, 1)).tobytes() == np.ones((1, 1), complex).tobytes()
        want = r"^slot: matrices\[1\]\.nz\[0\]\[2\]: expected a number$"
        with pytest.raises(ParseError, match=want):
            slots.matrix(1, "slot", (1, 1))

    def test_shape_checked_before_allocation(self, monkeypatch):
        # a well-formed entry is allocated only after its slot's shape test
        slots = combsqec_io._Slots({"matrices": [{"nz": [], "shape": [2**20, 2**20]}]}, 3)
        monkeypatch.setattr(combsqec_io, "_zeros", lambda *a: pytest.fail("allocated"))
        want = r"shape \(1048576, 1048576\) does not match dims \(2, any\)"
        with pytest.raises(ParseError, match=want):
            slots.matrix(0, "slot", (2, None))

    def test_library_files(self, named):
        table = json.loads(reference_text(named.code, named.errors, version=3))["matrices"]
        slots = combsqec_io._Slots({"matrices": table}, 3)
        for k in range(len(table)):
            got = slot_outcome(slots, k, (None, None))
            assert got == decode_outcome(reference_decode_v2, table[k])


# ----------------------------------------------------------------------
# version 4: flat table entries
# ----------------------------------------------------------------------

# signed zeros, the least subnormal, a subnormal of 17 significant digits,
# values that need 17 digits, and the extremes of the finite doubles
FLAT_SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, 0.1 + 0.2, 1 / 3,
                -1.7976931348623157e308, 2.2250738585072014e-308]
FLAT_PARTS = st.one_of(st.sampled_from(FLAT_SPECIAL), st.floats(allow_nan=False))


def flat_slot(entry, shape=(None, None)):
    """A version-4 table entry through the resolver, as its first slot."""
    return combsqec_io._Slots({"matrices": [entry]}, 4).matrix(0, "slot", shape)


@st.composite
def drawn_matrices(draw, parts=FLAT_PARTS, n=None, m=None):
    """An n x m matrix whose drawn cells hold drawn parts; the other cells
    are complex zeros with parts of drawn signs."""
    n = n or draw(st.integers(1, 5))
    m = m or draw(st.integers(1, 5))
    k = draw(st.integers(0, n * m))
    cells = draw(st.permutations(range(n * m)))[:k]
    flat = np.array([draw(st.sampled_from([0.0, -0.0])) for _ in range(2 * n * m)])
    for c in cells:
        flat[2 * c : 2 * c + 2] = draw(parts), draw(parts)
    return flat.view(np.complex128).reshape(n, m)


class TestVersion4:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mat=drawn_matrices())
    def test_entries_read_back_bitwise_and_as_their_v3_form(self, mat):
        entry = json.loads(json.dumps(reference_encode_v4(mat)))
        assert ("at" in entry) == (2 * np.count_nonzero(mat) < mat.size)
        got = flat_slot(entry)
        assert got.tobytes() == as_written(mat).tobytes()
        v3 = json.loads(json.dumps(reference_encode_v2(mat)))
        assert got.tobytes() == decode_matrix(v3, "m", 3).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mat=drawn_matrices(st.one_of(
        st.sampled_from(FLAT_SPECIAL[:6]), st.floats(-1e100, 1e100)), 8, 8))
    def test_documents_round_trip(self, tmp_path_factory, mat):
        # bitflip with its first error Kraus operator drawn; no trace check,
        # so any finite operator loads
        inst = build_instance("bitflip")
        first, *rest = inst.errors.kraus_rounds[0]
        odd = LabeledOperator(first.row_subsystems, first.col_subsystems, mat)
        errors = ErrorModel(((odd, *rest),), require_trace_nonincreasing=False)
        text = instance_text(inst.code, errors)
        assert text == reference_text(inst.code, errors)
        tmp_path = tmp_path_factory.mktemp("v4")
        loaded = load_text(tmp_path, text, "v4.json")
        assert instance_text(loaded.code, loaded.errors) == text
        assert_same_arrays(ParsedPair(inst.code, errors), loaded, bitwise=True)
        v3 = load_text(tmp_path, reference_text(inst.code, errors, version=3), "v3.json")
        assert_same_arrays(v3, loaded, bitwise=True)

    def test_all_zero_sparse_entry(self):
        entry = reference_encode_v4(np.zeros((8, 8)))
        assert entry == {"at": [], "data": [], "shape": [8, 8]}
        got = flat_slot(entry, (None, 8))
        assert got.shape == (8, 8) and got.tobytes() == bytes(8 * 8 * 16)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_value_types_accepted_as_in_version_3(self, data):
        # ints, bools, floats and float subclasses are numbers in both
        # versions, anything else in neither; decoded, they agree bitwise
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        values = data.draw(st.lists(NUMBERS, min_size=2 * n * m, max_size=2 * n * m))
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, 2 * n * m - 1))] = data.draw(JUNK)
        cells = [values[2 * c : 2 * c + 2] for c in range(n * m)]
        v3 = [cells[i * m : i * m + m] for i in range(n)]
        v4 = {"data": values, "shape": [n, m]}
        want = decode_outcome(decode_matrix, v3)
        got = decode_outcome(lambda obj, _: flat_slot(obj), v4)
        assert got[0] == want[0]
        assert got[0] == "raised" or got == want
        # the same parts, all cells listed in a sparse entry
        v4["at"] = list(range(n * m))
        assert decode_outcome(lambda obj, _: flat_slot(obj), v4) == got

    def test_library_files(self, named, exported):
        # every entry of the written table decodes in bulk: the element walk
        # never runs
        with open(exported[0], encoding="utf-8") as fh:
            table = json.load(fh)["matrices"]
        slots = combsqec_io._Slots({"matrices": table}, 4)
        v3 = json.loads(reference_text(named.code, named.errors, version=3))["matrices"]
        for k in range(len(table)):
            got = slot_outcome(slots, k, (None, None))
            assert got == decode_outcome(reference_decode_v2, v3[k])


class ParsedPair:
    """A code and error model where an InstanceDocument is expected."""

    def __init__(self, code, errors):
        self.code, self.errors = code, errors


class TestFlatDiagnostics:
    """Version-4 entries; bitflip's entry 1 is its first error Kraus
    operator, 0.5 I on 8 levels: ``{"at": [0, 9, ..., 63], "data": [0.5,
    0.0] * 8, "shape": [8, 8]}``, and its slot implies the shape (any, 8)."""

    SLOT = r"^error_model\.rounds\[0\]\.kraus\[0\]: matrices\[1\]"
    DENSE = {"data": list(chain.from_iterable(
        ([0.5, 0.0] if i == j else [0.0, 0.0]) for i in range(8) for j in range(8))),
        "shape": [8, 8]}

    @pytest.mark.parametrize("edit, where, message", [
        (lambda e: e["data"].append(0.0), ".data", "odd length 17: parts are re, im pairs"),
        ("dense", None, None),
        (lambda e: e["at"].pop(), ".data", r"length 16 != 2 \* 7 indices"),
        (lambda e: e["at"].__setitem__(3, 18), r".at\[3\]", "repeated flat index 18"),
        (lambda e: e.update(at=[0, 9, 27, 18, 36, 45, 54, 63]), r".at\[3\]",
         "flat index 18 after 27: indices must increase"),
        (lambda e: e["at"].__setitem__(7, 64), r".at\[7\]", "flat index 64 out of range 64"),
        (lambda e: e["at"].__setitem__(0, -1), r".at\[0\]", "flat index -1 out of range 64"),
        (lambda e: e["at"].__setitem__(0, 2**70), r".at\[0\]", "flat index .* out of range 64"),
        (lambda e: e["at"].__setitem__(0, False), r".at\[0\]", "expected an integer flat index"),
        (lambda e: e["at"].__setitem__(0, 0.0), r".at\[0\]", "expected an integer flat index"),
        (lambda e: e.update(at="0"), ".at", "expected a list of flat indices"),
        (lambda e: e["data"].__setitem__(3, "0"), r".data\[3\]", "expected a number"),
        (lambda e: e["data"].__setitem__(3, None), r".data\[3\]", "expected a number"),
        (lambda e: e["data"].__setitem__(3, [0.0]), r".data\[3\]", "expected a number"),
        (lambda e: e["data"].__setitem__(2, 10**400), r".data\[2\]",
         "number beyond float range"),
        (lambda e: e.update(data=None), ".data", "expected a list of numbers"),
        (lambda e: e.pop("data"), ".data", "missing"),
        (lambda e: e.pop("shape"), ".shape", "missing"),
        (lambda e: e.update(rows=8), "", "unexpected key 'rows' in a version-4 matrix"),
        (lambda e: e.update(shape=[8, True]), ".shape", "expected two positive integers"),
        (lambda e: e.update(shape=[8, 0]), ".shape", "expected two positive integers"),
        (lambda e: e.update(shape=[8, 8.0]), ".shape", "expected two positive integers"),
        (lambda e: e.update(shape=[2**62, 8]), ".shape", r"\[4611686018427387904, 8\] is too large"),
        (lambda e: e.update(shape=[8, 4]), "", r"shape \(8, 4\) does not match dims \(any, 8\)"),
    ])
    def test_named_under_the_slot(self, tmp_path, bitflip_v4, edit, where, message):
        entry = bitflip_v4["matrices"][1]
        if edit == "dense":  # a dense entry one cell short
            entry = bitflip_v4["matrices"][1] = json.loads(json.dumps(self.DENSE))
            entry["data"][-2:] = []
            where, message = ".data", r"length 126 != 2 \* 8 \* 8"
        else:
            edit(entry)
        with pytest.raises(ParseError, match=self.SLOT + where + ": " + message + "$"):
            load_instance(write_doc(tmp_path, bitflip_v4))

    def test_dense_entry_loads(self, tmp_path, bitflip_v4):
        bitflip_v4["matrices"][1] = self.DENSE
        loaded = load_instance(write_doc(tmp_path, bitflip_v4))
        assert loaded.errors.round_ops(0)[0].data.tobytes() == (0.5 * np.eye(8, dtype=complex)).tobytes()

    def test_digit_string_beyond_float_range(self):
        # json.loads refuses a 5,000-digit literal (the int digit limit), so
        # a document never holds one; a table built in memory may
        entry = {"data": [10**5000, 0.0], "shape": [1, 1]}
        with pytest.raises(ParseError, match=r"^slot: matrices\[0\]\.data\[0\]: "
                                             r"number beyond float range$"):
            flat_slot(entry)

    @pytest.mark.parametrize("form, message", [
        ("dense", 'expected an object with "shape" and "data"'),
        ("sparse", "unexpected key 'nz' in a version-4 matrix"),
    ])
    def test_version_3_entry_rejected(self, tmp_path, bitflip_v4, form, message):
        mat = 0.5 * np.eye(8)
        bitflip_v4["matrices"][1] = (
            encode_matrix(mat) if form == "dense" else reference_encode_v2(mat)
        )
        with pytest.raises(ParseError, match=self.SLOT + ": " + message + "$"):
            load_instance(write_doc(tmp_path, bitflip_v4))

    def test_version_4_entry_rejected_in_version_3(self, tmp_path, bitflip_v4):
        bitflip_v4["schema_version"] = 3
        # the basis, entry 0, is resolved first
        with pytest.raises(ParseError, match=r"^codespace\.basis: matrices\[0\]: "
                                             "unexpected key 'at' in a sparse matrix$"):
            load_instance(write_doc(tmp_path, bitflip_v4))

    @pytest.mark.parametrize("shape, message", [
        ([4000, 4000], r": shape \(4000, 4000\) does not match dims \(8, 2\)"),
        ([2**62, 2], r"\.shape: \[4611686018427387904, 2\] is too large"),
    ])
    def test_oversized_shape_rejected_before_allocation(
        self, tmp_path, bitflip_v4, monkeypatch, shape, message
    ):
        bitflip_v4["matrices"][0] = {"at": [shape[0] * shape[1] - 1], "data": [1.0, 0.0],
                                     "shape": shape}
        allocated = []
        zeros = combsqec_io._zeros
        monkeypatch.setattr(
            combsqec_io, "_zeros",
            lambda shape, path: allocated.append(shape) or zeros(shape, path),
        )
        with pytest.raises(ParseError, match=r"^codespace\.basis: matrices\[0\]" + message):
            load_instance(write_doc(tmp_path, bitflip_v4))
        assert allocated == []


class TestLoadCopies:
    def test_hexagon_load_copies_no_operator(self, tmp_path, monkeypatch):
        # the loader hands each decoded array to its operator; through the
        # public constructor it would copy all 20 (1,310,720 B)
        inst = build_instance("hexagon")
        path = tmp_path / "hexagon.json"
        export_instance(inst.code, inst.errors, str(path))
        copied = []
        post_init = LabeledOperator.__post_init__

        def counted(op):
            post_init(op)
            copied.append(op.data.nbytes)
        monkeypatch.setattr(LabeledOperator, "__post_init__", counted)
        loaded = load_instance(str(path))
        assert copied == []
        arrays = instance_arrays(loaded.code, loaded.errors)
        assert not any(a.flags.writeable for a in arrays)
        # all 20 table entries are owned by the operators, one array each
        assert len({id(a) for a in arrays[1:]}) == 19

    def test_public_constructors_still_copy(self):
        mat = np.eye(2, dtype=complex)
        for op in (check_op(1, mat), error_op(0, mat), LabeledOperator(
                (("a", 2),), (("b", 2),), mat)):
            assert op.data is not mat and not np.shares_memory(op.data, mat)
            assert not op.data.flags.writeable
        assert mat.flags.writeable


def readme_sizes(column):
    """One size column of README's instance-file table, by instance name."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[0].startswith("`") and cells[-1].endswith(" B"):
            rows[cells[0].strip("`")] = int(cells[column][:-2].replace(",", ""))
    assert sorted(rows) == ["hexagon", "spacetime", "window-full", "window-last"]
    return rows


class TestReadmeTable:
    def test_version_3_sizes_are_the_written_sizes(self):
        # the compact "version 3" column, the one before the last
        for name, size in readme_sizes(-2).items():
            inst = build_instance(name)
            text = reference_text(inst.code, inst.errors, version=3)
            assert len(text.encode()) == size, name

    def test_version_4_sizes_are_the_written_sizes(self):
        # the "version 4" column, the last
        for name, size in readme_sizes(-1).items():
            inst = build_instance(name)
            assert len(instance_text(inst.code, inst.errors).encode()) == size, name
