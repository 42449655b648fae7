"""Instance file round-trips and parse diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combsqec.io import (
    ParseError,
    decode_matrix,
    encode_matrix,
    export_instance,
    instance_text,
    load_instance,
    parse_instance,
)
from combsqec.library import build_instance, instance_names, random_instance
from combsqec.model import ErrorModel
from combsqec.tensor import LabeledOperator


@pytest.fixture(params=tuple(instance_names()))
def named(request):
    return build_instance(request.param)


def write_doc(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def bitflip_doc(tmp_path):
    inst = build_instance("bitflip")
    return json.loads(instance_text(inst.code, inst.errors))


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
            decode_matrix({"rows": 1}, "x")


# ----------------------------------------------------------------------
# references: the per-cell codec and the whole-document json.dumps
# ----------------------------------------------------------------------


def reference_encode(mat):
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def reference_text(code, errors, optimization=None):
    rounds = []
    for r in range(1, code.interrogator.rounds + 1):
        by_memory = {}
        for memory, inst in sorted(code.interrogator.instruments[r - 1].items()):
            by_memory[memory] = {
                o: reference_encode(op.data) for o, op in sorted(inst.kraus.items())
            }
        update = {}
        for (outcome, memory), nxt in sorted(
            code.interrogator.update.tables[r - 1].items()
        ):
            update.setdefault(outcome, {})[memory] = nxt
        rounds.append({"instruments": by_memory, "update": update})
    err_rounds = [
        {
            "kraus": [reference_encode(op.data) for op in errors.round_ops(r)],
            "env_out": errors.env_dim(r),
        }
        for r in range(errors.rounds + 1)
    ]
    doc = {
        "schema_version": 1,
        "dims": {"ambient": code.codespace.ambient_dim, "code": code.codespace.dim},
        "codespace": {"basis": reference_encode(code.codespace.basis)},
        "interrogator": {"rounds": rounds},
        "error_model": {
            "trace_nonincreasing": errors.require_trace_nonincreasing,
            "rounds": err_rounds,
        },
    }
    if optimization is not None:
        doc["optimization"] = dict(optimization)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
        assert f'"{outcome}": [' in text

    def test_non_finite_entries(self):
        # json spells these NaN, Infinity and -Infinity
        inst = build_instance("bitflip")
        first, *rest = inst.errors.kraus_rounds[0]
        data = first.data.copy()
        data[0, 0] = complex(math.inf, -0.0)
        data[1, 1] = complex(math.nan, -math.inf)
        data[2, 2] = complex(-0.0, 5e-324)
        odd = LabeledOperator(first.row_subsystems, first.col_subsystems, data)
        errors = ErrorModel(((odd, *rest),), require_trace_nonincreasing=False)
        text = instance_text(inst.code, errors)
        assert text == reference_text(inst.code, errors)
        assert all(word in text for word in ("NaN", "Infinity", "-Infinity"))

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
    def test_reexport_is_byte_identical(self, tmp_path, named):
        path = str(tmp_path / "inst.json")
        export_instance(named.code, named.errors, path)
        doc = load_instance(path)
        assert instance_text(doc.code, doc.errors) == instance_text(
            named.code, named.errors
        )

    def test_digest_is_of_the_written_bytes(self, tmp_path, named):
        path = str(tmp_path / "inst.json")
        digest = export_instance(named.code, named.errors, path)
        assert load_instance(path).digest == digest

    def test_parse_instance_returns_model_pair(self, tmp_path, named):
        path = str(tmp_path / "inst.json")
        export_instance(named.code, named.errors, path)
        code, errors = parse_instance(path)
        assert code.codespace.ambient_dim == named.code.codespace.ambient_dim
        assert errors.rounds == named.errors.rounds
        assert np.allclose(
            code.codespace.basis, named.code.codespace.basis, atol=0
        )

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

    def test_non_orthonormal_basis_named(self, tmp_path, bitflip_doc):
        bitflip_doc["codespace"]["basis"][0][0] = [0.7, 0.0]
        with pytest.raises(ParseError, match="codespace.basis.*not orthonormal"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_basis_shape_mismatch_named(self, tmp_path, bitflip_doc):
        bitflip_doc["dims"]["code"] = 3
        with pytest.raises(ParseError, match="codespace.basis: shape"):
            load_instance(write_doc(tmp_path, bitflip_doc))

    def test_bad_kraus_cell_named(self, tmp_path, bitflip_doc):
        bitflip_doc["error_model"]["rounds"][0]["kraus"][0][0][0] = [1.0]
        with pytest.raises(
            ParseError, match=r"error_model.rounds\[0\].kraus\[0\]\[0\]\[0\]"
        ):
            load_instance(write_doc(tmp_path, bitflip_doc))

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


@pytest.fixture()
def spacetime_doc(tmp_path):
    inst = build_instance("spacetime")
    return json.loads(instance_text(inst.code, inst.errors))


class TestInterrogatorDiagnostics:
    def test_incomplete_instrument_named(self, tmp_path, spacetime_doc):
        rounds = spacetime_doc["interrogator"]["rounds"]
        memory = next(iter(rounds[0]["instruments"]))
        outcome = next(iter(rounds[0]["instruments"][memory]))
        mat = rounds[0]["instruments"][memory][outcome]
        mat[0][0] = [0.5, 0.0]
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

    def test_library_matrices(self, named):
        doc = json.loads(instance_text(named.code, named.errors))
        kraus = [k for r in doc["error_model"]["rounds"] for k in r["kraus"]]
        for obj in [doc["codespace"]["basis"], *kraus]:
            assert decode_outcome(decode_matrix, obj) == decode_outcome(
                reference_decode, obj
            )
