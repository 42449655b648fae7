"""Labeled-operator algebra: products, traces, vectorization, spectra."""

import itertools

import numpy as np
import pytest

from combsqec.tensor import (
    LabeledOperator,
    _spectrum_bits,
    dense_cap,
    identity_operator,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor_product,
    vectorize,
)
from conftest import PAULI, op, random_density, random_matrix, random_unitary, rng_for


class TestLabeledOperator:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            op(np.zeros((2, 3)), [("a", 2)], [("b", 2)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            op(np.zeros((4, 4)), [("a", 2), ("a", 2)], [("b", 2), ("c", 2)])

    def test_vector_has_unit_column(self):
        v = op(np.zeros((4, 1)), [("a", 2), ("b", 2)], [])
        assert v.col_subsystems == () and v.col_dim == 1

    def test_data_is_immutable(self):
        a = op(np.eye(2), [("a", 2)], [("a", 2)])
        with pytest.raises(ValueError):
            a.data[0, 0] = 5.0

    def test_dense_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "8")
        assert dense_cap() == 8
        with pytest.raises(ValueError, match="exceeds the cap"):
            op(np.zeros((16, 16)), [("a", 16)], [("b", 16)])

    def test_constructor_copies_the_callers_array(self):
        mat = np.eye(2, dtype=complex)
        a = op(mat, [("a", 2)], [("a", 2)])
        mat[0, 0] = 5.0
        assert a.data[0, 0] == 1.0
        assert mat.flags.writeable


@pytest.mark.parametrize("path", ["constructor", "owned"])
def test_labels_are_derived_once_per_operator(path):
    rows, cols = (("a", 2), ("b", 3)), (("c", 3),)
    a = (
        op(np.zeros((6, 3)), rows, cols)
        if path == "constructor"
        else tensor_product(op(np.zeros((2, 3)), rows[:1], cols), op(np.ones(3), rows[1:], ()))
    )
    assert a.row_subsystems == rows
    assert a.row_labels == ("a", "b") and a.col_labels == ("c",)
    assert a.row_labels is a.row_labels
    assert a.col_labels is a.col_labels


def _results():
    """One result of every tensor function, from validated operators."""
    rng = rng_for(16)
    a = op(random_matrix(rng, 6, 6), [("a", 2), ("b", 3)], [("a", 2), ("b", 3)])
    k = op(random_matrix(rng, 2, 3), [("o", 2)], [("i", 3)])
    return {
        "tensor_product": tensor_product(a, k),
        "partial_trace": partial_trace(a, {"b"}),
        "partial_transpose": partial_transpose(a, {"a"}),
        "permute_subsystems": permute_subsystems(a, ["b", "a"]),
        "vectorize": vectorize(k),
        "scaled": a.scaled(2.0),
        "identity_operator": identity_operator([("a", 2)]),
    }


@pytest.mark.parametrize("name", sorted(_results()))
def test_library_results_are_read_only(name):
    result = _results()[name]
    assert result.data.flags.writeable is False
    with pytest.raises(ValueError):
        result.data[0, 0] = 1.0


@pytest.mark.parametrize("build", [
    lambda: tensor_product(op(np.eye(4), [("a", 4)], [("b", 4)]),
                           op(np.eye(4), [("c", 4)], [("d", 4)])),
    lambda: vectorize(op(np.eye(4), [("a", 4)], [("b", 4)])),
], ids=["tensor_product", "vectorize"])
def test_results_beyond_the_cap_are_rejected(monkeypatch, build):
    monkeypatch.setenv("COMBSQEC_DENSE_CAP", "8")
    with pytest.raises(ValueError, match="exceeds the cap 8"):
        build()


class TestTensorProduct:
    def test_x_tensor_identity_blocks(self):
        a = op(PAULI["X"], [("a", 2)], [("a2", 2)])
        b = op(np.eye(2), [("b", 2)], [("b2", 2)])
        out = tensor_product(a, b)
        expected = np.kron(PAULI["X"], np.eye(2))
        np.testing.assert_allclose(out.data, expected)
        assert out.row_labels == ("a", "b")

    def test_scalar_factor(self):
        two = op(np.array([[2.0]]), [], [])
        b = op(random_matrix(rng_for(1), 2, 2), [("b", 2)], [("b2", 2)])
        np.testing.assert_allclose(tensor_product(two, b).data, 2 * b.data)

    def test_entry_formula_against_loop_oracle(self):
        rng = rng_for(2)
        a_mat = random_matrix(rng, 2, 2)
        b_mat = random_matrix(rng, 3, 3)
        out = tensor_product(
            op(a_mat, [("a", 2)], [("a2", 2)]), op(b_mat, [("b", 3)], [("b2", 3)])
        )
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for m in range(3):
                        assert out.data[i * 3 + k, j * 3 + m] == pytest.approx(
                            a_mat[i, j] * b_mat[k, m], rel=1e-12
                        )

    def test_duplicate_label_rejected(self):
        a = op(np.eye(2), [("a", 2)], [("a", 2)])
        with pytest.raises(ValueError, match="'a'"):
            tensor_product(a, a)


class TestPartialTrace:
    def test_product_case(self):
        rng = rng_for(3)
        a_mat = random_matrix(rng, 2, 2)
        b_mat = random_matrix(rng, 3, 3)
        full = tensor_product(
            op(a_mat, [("a", 2)], [("a", 2)]), op(b_mat, [("b", 3)], [("b", 3)])
        )
        reduced = partial_trace(full, {"b"})
        np.testing.assert_allclose(reduced.data, a_mat * np.trace(b_mat))
        assert reduced.row_labels == ("a",)

    def test_bell_state_marginal(self):
        bell = np.zeros((4, 1), dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = op(bell @ bell.conj().T, [("a", 2), ("b", 2)], [("a", 2), ("b", 2)])
        np.testing.assert_allclose(partial_trace(rho, {"b"}).data, np.eye(2) / 2, atol=1e-15)

    def test_against_double_loop_oracle(self):
        rho_mat = random_density(rng_for(4), 6)
        rho = op(rho_mat, [("a", 2), ("b", 3)], [("a", 2), ("b", 3)])
        got = partial_trace(rho, {"b"})
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += rho_mat[i * 3 + k, j * 3 + k]
        np.testing.assert_allclose(got.data, expected, atol=1e-14)

    def test_trace_preserved_for_any_subset(self):
        rho_mat = random_density(rng_for(5), 8)
        labels = [("a", 2), ("b", 2), ("c", 2)]
        rho = op(rho_mat, labels, labels)
        for subset in ({"a"}, {"b"}, {"a", "c"}, {"a", "b", "c"}):
            assert np.trace(partial_trace(rho, subset).data) == pytest.approx(
                np.trace(rho.data), abs=1e-12
            )

    def test_one_sided_label_rejected(self):
        a = op(np.zeros((2, 3)), [("a", 2)], [("b", 3)])
        with pytest.raises(ValueError, match="both sides"):
            partial_trace(a, {"a"})


def _flat(index, subsystems):
    """Row-major position of a {label: value} index on one side."""
    pos = 0
    for label, dim in subsystems:
        pos = pos * dim + index[label]
    return pos


def _side_indices(subsystems):
    labels = [label for label, _ in subsystems]
    for values in itertools.product(*(range(dim) for _, dim in subsystems)):
        yield dict(zip(labels, values))


def loop_partial_trace(a, traced):
    """Index-loop reference: every entry whose traced row and column
    values agree lands on its kept position."""
    rows = [s for s in a.row_subsystems if s[0] not in traced]
    cols = [s for s in a.col_subsystems if s[0] not in traced]
    out = np.zeros((int(np.prod([d for _, d in rows])), int(np.prod([d for _, d in cols]))),
                   dtype=complex)
    for ri in _side_indices(a.row_subsystems):
        for ci in _side_indices(a.col_subsystems):
            if all(ri[label] == ci[label] for label in traced):
                out[_flat(ri, rows), _flat(ci, cols)] += a.data[
                    _flat(ri, a.row_subsystems), _flat(ci, a.col_subsystems)
                ]
    return rows, cols, out


def loop_partial_transpose(a, chosen):
    """Index-loop reference: each chosen label's row and column values swap."""
    out = np.zeros_like(a.data)
    for ri in _side_indices(a.row_subsystems):
        for ci in _side_indices(a.col_subsystems):
            rt = {**ri, **{label: ci[label] for label in chosen}}
            ct = {**ci, **{label: ri[label] for label in chosen}}
            out[_flat(rt, a.row_subsystems), _flat(ct, a.col_subsystems)] = a.data[
                _flat(ri, a.row_subsystems), _flat(ci, a.col_subsystems)
            ]
    return out


def paired_case(name):
    """A random operator of case ``name`` and every nonempty subset of its paired labels."""
    rows, cols, paired = {
        # the columns list the same subsystems in another order
        "permuted-columns": ([("a", 2), ("b", 3), ("c", 2)], [("c", 2), ("a", 2), ("b", 3)], "abc"),
        # r is on the rows only and s on the columns only: both are kept
        "one-sided": ([("a", 2), ("r", 3), ("b", 2)], [("b", 2), ("s", 2), ("a", 2)], "ab"),
    }[name]
    shape = [int(np.prod([dim for _, dim in side])) for side in (rows, cols)]
    a = op(random_matrix(rng_for(30), *shape), rows, cols)
    return a, [set(c) for n in range(1, len(paired) + 1) for c in itertools.combinations(paired, n)]


class TestPairedSubsystems:
    """Both sides' orders and one-sided labels, against index loops."""

    @pytest.mark.parametrize("case", ["permuted-columns", "one-sided"])
    def test_partial_trace_matches_index_loops(self, case):
        a, subsets = paired_case(case)
        for traced in subsets:
            got = partial_trace(a, traced)
            rows, cols, want = loop_partial_trace(a, traced)
            assert (got.row_subsystems, got.col_subsystems) == (tuple(rows), tuple(cols)), traced
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("case", ["permuted-columns", "one-sided"])
    def test_partial_transpose_matches_index_loops(self, case):
        a, subsets = paired_case(case)
        for chosen in subsets:
            got = partial_transpose(a, chosen)
            assert (got.row_subsystems, got.col_subsystems) == (a.row_subsystems, a.col_subsystems)
            assert (got.data == loop_partial_transpose(a, chosen)).all(), chosen

    @pytest.mark.parametrize("fn", [partial_trace, partial_transpose])
    def test_label_of_two_dims_rejected(self, fn):
        a = op(random_matrix(rng_for(32), 6, 6), [("a", 2), ("b", 3)], [("a", 3), ("b", 2)])
        with pytest.raises(ValueError, match="label 'a'"):
            fn(a, {"a"})


class TestPartialTranspose:
    def test_full_transpose(self):
        mat = random_matrix(rng_for(6), 4, 4)
        a = op(mat, [("a", 2), ("b", 2)], [("a", 2), ("b", 2)])
        np.testing.assert_allclose(partial_transpose(a, {"a", "b"}).data, mat.T)

    def test_product_case(self):
        rng = rng_for(7)
        a_mat = random_matrix(rng, 2, 2)
        b_mat = random_matrix(rng, 3, 3)
        full = tensor_product(
            op(a_mat, [("a", 2)], [("a", 2)]), op(b_mat, [("b", 3)], [("b", 3)])
        )
        got = partial_transpose(full, {"b"})
        np.testing.assert_allclose(got.data, np.kron(a_mat, b_mat.T))

    def test_bell_projector_spectrum(self):
        bell = np.zeros((4, 1), dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = op(bell @ bell.conj().T, [("a", 2), ("b", 2)], [("a", 2), ("b", 2)])
        pt = partial_transpose(rho, {"b"})
        vals = np.linalg.eigvalsh(pt.data)[::-1]
        np.testing.assert_allclose(vals, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_involution(self):
        mat = random_matrix(rng_for(8), 6, 6)
        a = op(mat, [("a", 2), ("b", 3)], [("a", 2), ("b", 3)])
        back = partial_transpose(partial_transpose(a, {"b"}), {"b"})
        np.testing.assert_allclose(back.data, mat)

    def test_unknown_label_rejected(self):
        a = op(np.eye(2), [("a", 2)], [("a", 2)])
        with pytest.raises(ValueError):
            partial_transpose(a, {"zz"})


class TestVectorize:
    def test_identity_gives_unnormalized_bell(self):
        v = vectorize(op(np.eye(2), [("out", 2)], [("in", 2)]))
        np.testing.assert_allclose(v.data.ravel(), [1, 0, 0, 1])
        assert v.row_labels == ("out", "in")

    def test_pauli_x(self):
        v = vectorize(op(PAULI["X"], [("out", 2)], [("in", 2)]))
        np.testing.assert_allclose(v.data.ravel(), [0, 1, 1, 0])

    def test_overlap_equals_trace_inner_product(self):
        rng = rng_for(9)
        for _ in range(100):
            a_mat = random_matrix(rng, 3, 2)
            b_mat = random_matrix(rng, 3, 2)
            va = vectorize(op(a_mat, [("o", 3)], [("i", 2)]))
            vb = vectorize(op(b_mat, [("o", 3)], [("i", 2)]))
            lhs = (va.data.conj().T @ vb.data).item()
            rhs = np.trace(a_mat.conj().T @ b_mat)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_shared_label_rejected(self):
        with pytest.raises(ValueError, match="relabel"):
            vectorize(op(np.eye(2), [("a", 2)], [("a", 2)]))



class TestEntropy:
    """Entropy in bits of a normalized spectrum, as the entropic checker reads it."""

    def test_pure_state_zero(self):
        v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        vals = np.linalg.eigvalsh(np.outer(v, v.conj()))
        assert _spectrum_bits(vals) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_one_bit(self):
        assert _spectrum_bits(np.linalg.eigvalsh(np.eye(2) / 2)) == pytest.approx(1.0)

    def test_three_quarters_split(self):
        # frozen from -(3/4 log2(3/4) + 1/4 log2(1/4)) evaluated independently
        assert _spectrum_bits(np.array([0.75, 0.25])) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_unitary_invariance(self):
        rng = rng_for(15)
        for _ in range(10):
            rho_mat = random_density(rng, 4)
            u = random_unitary(rng, 4)
            s1 = _spectrum_bits(np.linalg.eigvalsh(rho_mat))
            s2 = _spectrum_bits(np.linalg.eigvalsh(u @ rho_mat @ u.conj().T))
            assert s1 == pytest.approx(s2, abs=1e-9)


def test_identity_operator():
    eye = identity_operator([("a", 2), ("b", 3)])
    np.testing.assert_allclose(eye.data, np.eye(6))
    assert eye.row_labels == ("a", "b") == eye.col_labels
