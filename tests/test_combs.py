"""Choi/link-product algebra and comb causality validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import combsqec.combs as combs
from combsqec.combs import (
    ChoiOperator,
    CombSignature,
    choi_from_kraus,
    is_cptp,
    link_product,
    validate_comb,
)
from combsqec.library import build_instance, instance_names, random_instance
from combsqec.model import (
    CheckInstrument,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    check_op,
    comb_vector_dense,
    compose_K,
    error_comb,
    error_comb_vector,
    error_op,
    interrogator_operator,
)
from combsqec.optimize import project_cptp
from combsqec.tensor import (
    LabeledOperator,
    dense_cap,
    identity_operator,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor_product,
)
from combsqec.tolerances import PSD_RTOL
from conftest import (
    PAULI,
    op,
    random_kraus_set,
    random_matrix,
    random_unitary,
    rng_for,
)


def kraus_op(mat, out_label, in_label, d_out=None, d_in=None):
    mat = np.asarray(mat, dtype=complex)
    d_out = d_out or mat.shape[0]
    d_in = d_in or mat.shape[1]
    return op(mat, [(out_label, d_out)], [(in_label, d_in)])


def literal_link(a: ChoiOperator, b: ChoiOperator) -> LabeledOperator:
    """The padded formula Tr_C((A^{T_C} (x) I_B)(I_A (x) B)), built literally."""
    shared = sorted(set(a.labels) & set(b.labels))
    a_only = [l for l in a.labels if l not in shared]
    b_only = [l for l in b.labels if l not in shared]
    order = a_only + shared + b_only

    a_t = partial_transpose(a.op, shared) if shared else a.op
    pad_b = [(l, b.dim_of(l)) for l in b_only]
    pad_a = [(l, a.dim_of(l)) for l in a_only]
    left = a_t if not pad_b else tensor_product(a_t, identity_operator(pad_b))
    right = b.op if not pad_a else tensor_product(identity_operator(pad_a), b.op)
    left = permute_subsystems(left, order)
    right = permute_subsystems(right, order)
    product = LabeledOperator(left.row_subsystems, right.col_subsystems, left.data @ right.data)
    return partial_trace(product, shared) if shared else product


class TestChoiFromKraus:
    def test_identity_kraus(self):
        choi = choi_from_kraus([kraus_op(np.eye(2), "out", "in")])
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 1
        np.testing.assert_allclose(choi.op.data, expected)
        assert choi.output_labels == ("out",) and choi.input_labels == ("in",)

    def test_depolarizing_is_maximally_mixed(self):
        kraus = [kraus_op(PAULI[s] / 2, "out", "in") for s in "IXYZ"]
        choi = choi_from_kraus(kraus)
        np.testing.assert_allclose(choi.op.data, np.eye(4) / 2, atol=1e-14)

    def test_trace_equals_sum_of_kraus_norms(self):
        p = 0.3
        kraus = [
            kraus_op(np.sqrt(1 - p) * np.eye(2), "out", "in"),
            kraus_op(np.sqrt(p) * PAULI["X"], "out", "in"),
        ]
        choi = choi_from_kraus(kraus)
        assert np.trace(choi.op.data).real == pytest.approx(2.0, abs=1e-12)

    def test_mixed_signatures_rejected(self):
        with pytest.raises(ValueError, match="mixed Kraus signatures"):
            choi_from_kraus(
                [kraus_op(np.eye(2), "out", "in"), kraus_op(np.eye(2), "o2", "in")]
            )


class TestLinkProduct:
    def test_disjoint_labels_is_tensor_product(self):
        rng = rng_for(22)
        a = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "a_out", "a_in")])
        b = choi_from_kraus([kraus_op(random_matrix(rng, 3, 3), "b_out", "b_in")])
        linked = link_product(a, b)
        direct = tensor_product(a.op, b.op)
        aligned = permute_subsystems(direct, linked.op.row_labels)
        np.testing.assert_allclose(linked.op.data, aligned.data, atol=1e-12)

    def test_full_overlap_is_trace_inner_product(self):
        rng = rng_for(23)
        a = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "x", "y")])
        b = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "x", "y")])
        linked = link_product(a, b)
        assert linked.op.data.shape == (1, 1)
        expected = np.trace(a.op.data.T @ b.op.data)
        assert linked.op.data[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_channel_composition_100_random_pairs(self):
        rng = rng_for(24)
        for _ in range(100):
            k1 = [kraus_op(m, "b", "a") for m in random_kraus_set(rng, 2, 2, 2)]
            k2 = [kraus_op(m, "c", "b") for m in random_kraus_set(rng, 2, 2, 2)]
            composed = [
                kraus_op(m2.data @ m1.data, "c", "a") for m2 in k2 for m1 in k1
            ]
            lhs = link_product(choi_from_kraus(k2), choi_from_kraus(k1))
            rhs = choi_from_kraus(composed)
            aligned = permute_subsystems(rhs.op, lhs.op.row_labels)
            assert np.linalg.norm(lhs.op.data - aligned.data) <= 1e-9

    def test_matches_literal_padded_formula_partial_overlap(self):
        rng = rng_for(25)
        for _ in range(20):
            a = choi_from_kraus(
                [
                    LabeledOperator(
                        (("p", 2), ("q", 2)), (("r", 2),), random_matrix(rng, 4, 2)
                    )
                ]
            )
            b = choi_from_kraus(
                [
                    LabeledOperator(
                        (("s", 3),), (("q", 2),), random_matrix(rng, 3, 2)
                    )
                ]
            )
            linked = link_product(a, b)
            literal = literal_link(a, b)
            aligned = permute_subsystems(literal, linked.op.row_labels)
            np.testing.assert_allclose(linked.op.data, aligned.data, atol=1e-10)

    def test_commutes_up_to_permutation(self):
        rng = rng_for(26)
        a = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "u", "v")])
        b = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "w", "v")])
        ab = link_product(a, b)
        ba = link_product(b, a)
        aligned = permute_subsystems(ba.op, ab.op.row_labels)
        np.testing.assert_allclose(ab.op.data, aligned.data, atol=1e-10)

    def test_associative_on_chain(self):
        rng = rng_for(27)
        a = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "b", "a")])
        bc = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "c", "b")])
        c = choi_from_kraus([kraus_op(random_matrix(rng, 2, 2), "d", "c")])
        left = link_product(link_product(c, bc), a)
        right = link_product(c, link_product(bc, a))
        aligned = permute_subsystems(right.op, left.op.row_labels)
        assert np.linalg.norm(left.op.data - aligned.data) <= 1e-9

    def test_dim_mismatch_rejected(self):
        a = choi_from_kraus([kraus_op(np.eye(2), "x", "y")])
        b = choi_from_kraus([kraus_op(np.zeros((3, 3)), "x", "z", 3, 3)])
        with pytest.raises(ValueError, match="shared label 'x'"):
            link_product(a, b)


def random_choi(rng, subs, inputs):
    """PSD Choi over ``subs`` in a random label order; ``inputs`` are its input legs."""
    subs = tuple(subs[i] for i in rng.permutation(len(subs)))
    dim = int(np.prod([d for _, d in subs]))
    g = random_matrix(rng, dim, 2)
    labels = [l for l, _ in subs]
    return ChoiOperator(
        LabeledOperator(subs, subs, g @ g.conj().T),
        tuple(l for l in labels if l in inputs),
        tuple(l for l in labels if l not in inputs),
    )


# (A's legs, A's inputs, B's legs, B's inputs)
LINK_CASES = {
    # the error comb against an interrogator: shared legs between kept ones
    "interleaved": (
        [("q0", 2), ("q0p", 2), ("q1", 2), ("q1p", 2), ("q2", 2), ("q2p", 2), ("e", 2)],
        {"q0", "q1", "q2"},
        [("q0p", 2), ("q1", 2), ("q1p", 2), ("q2", 2)],
        {"q0p", "q1p"},
    ),
    "shared-inputs-and-outputs": (
        [("x", 2), ("s", 2), ("t", 3)], {"x", "s"},
        [("s", 2), ("t", 3), ("y", 2)], {"t"},
    ),
    "no-overlap": ([("x", 2), ("u", 3)], {"u"}, [("y", 3), ("v", 2)], {"v"}),
    "full-overlap": ([("x", 2), ("y", 3)], {"x"}, [("y", 3), ("x", 2)], {"y"}),
    "unequal-dims": (
        [("a", 3), ("s", 2), ("b", 2), ("t", 3)], {"a", "t"},
        [("t", 3), ("c", 3), ("s", 2)], {"s"},
    ),
}


@pytest.mark.parametrize("case", sorted(LINK_CASES))
def test_link_product_matches_literal_formula_in_any_label_order(case):
    a_subs, a_in, b_subs, b_in = LINK_CASES[case]
    rng = rng_for(29)
    for _ in range(10):
        a = random_choi(rng, a_subs, a_in)
        b = random_choi(rng, b_subs, b_in)
        linked = link_product(a, b)
        literal = literal_link(a, b)
        aligned = permute_subsystems(literal, linked.op.row_labels)
        scale = np.max(np.abs(aligned.data))
        np.testing.assert_allclose(linked.op.data, aligned.data, atol=1e-12 * scale)
        shared = set(a.labels) & set(b.labels)
        assert set(linked.input_labels) == (a_in | b_in) - shared
        assert set(linked.output_labels) == set(linked.labels) - set(linked.input_labels)


def one_qubit_chain(rounds):
    """Bit-flip errors around ``rounds`` identity check rounds, one memory."""
    flip = [np.sqrt(0.9) * np.eye(2), np.sqrt(0.1) * PAULI["X"]]
    errors = ErrorModel(tuple(tuple(error_op(r, m) for m in flip) for r in range(rounds + 1)))
    interro = Interrogator(
        tuple({"": CheckInstrument(r, "", {"o": check_op(r, np.eye(2))})}
              for r in range(1, rounds + 1)),
        MemoryUpdate(tuple({("o", ""): ""} for _ in range(rounds))),
    )
    return errors, interro


class TestOwnedResults:
    def test_library_results_are_read_only(self):
        errors, interro = one_qubit_chain(1)
        big = error_comb(errors)
        choi = interrogator_operator(interro, "")
        results = {
            "choi_from_kraus": choi_from_kraus(errors.round_ops(0)).op,
            "link_product": link_product(big, choi).op,
            "compose_K": compose_K(errors, interro, (1, 0), "", ("o",)),
            "error_comb_vector": error_comb_vector(errors, (1, 1)),
            "comb_vector_dense": comb_vector_dense(interro, "", ("o",)),
            "interrogator_operator": choi.op,
            "error_comb": big.op,
        }
        for name, result in results.items():
            assert result.data.flags.writeable is False, name

    def test_link_product_beyond_the_cap_is_rejected(self, monkeypatch):
        rng = rng_for(30)
        a = random_choi(rng, [("x", 3), ("s", 2)], {"s"})
        b = random_choi(rng, [("s", 2), ("y", 3)], {"y"})
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "8")
        with pytest.raises(ValueError, match="exceeds the cap 8"):
            link_product(a, b)

    def test_sliced_gram_sum_equals_the_outer_products(self, monkeypatch):
        # a 3-dim final environment: the comb dim 2^4 * 3 = 48 is no multiple of 5
        rng = rng_for(31)
        round0 = [error_op(0, m) for m in random_kraus_set(rng, 2, 2, 2)]
        round1 = [error_op(1, m, env_out=3) for m in random_kraus_set(rng, 6, 2, 2)]
        errors = ErrorModel((tuple(round0), tuple(round1)))
        monkeypatch.setattr(combs, "GRAM_ROWS", 5)
        big = error_comb(errors)
        assert big.op.row_dim == 48
        expected = sum(
            np.outer(v, v.conj())
            for v in (error_comb_vector(errors, e).data.ravel() for e in errors.sequences())
        )
        np.testing.assert_allclose(big.op.data, expected, rtol=0, atol=1e-14)


class TestPeakMemory:
    """Traced allocations at a 1024-dim error comb (16 MiB) and a 256-dim
    interrogator comb.

    Measured with tracemalloc: ``error_comb`` peaked at 2.00 outputs when
    it formed each v v^dag in full and at 1.25 with 256-row slices.
    ``link_product``'s new allocations peaked at 2.13 error combs with a
    permuted copy of it and then einsum's regrouped one, and at 1.06 with
    one transposed copy (plus the interrogator's, 1 MiB, and the output).
    """

    @pytest.fixture(scope="class")
    def chain(self):
        return one_qubit_chain(4)

    def test_error_comb_holds_one_output(self, chain):
        errors, _ = chain
        tracemalloc.start()
        try:
            big = error_comb(errors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert big.op.row_dim == 1024
        assert peak < 1.5 * big.op.data.nbytes

    def test_link_product_copies_one_operand(self, chain):
        errors, interro = chain
        big = error_comb(errors)
        choi = interrogator_operator(interro, "")
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            link_product(big, choi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * big.op.data.nbytes


class TestIsCptp:
    def test_identity_choi(self):
        report = is_cptp(choi_from_kraus([kraus_op(np.eye(2), "out", "in")]))
        assert report.cp and report.tp

    def test_scaled_choi_not_tp(self):
        choi = choi_from_kraus([kraus_op(np.sqrt(2) * np.eye(2), "out", "in")])
        report = is_cptp(choi)
        assert report.cp and not report.tp
        assert report.tp_residual > 1

    def test_dephasing_channel(self):
        kraus = [
            kraus_op(np.sqrt(0.7) * np.eye(2), "out", "in"),
            kraus_op(np.sqrt(0.3) * PAULI["Z"], "out", "in"),
        ]
        report = is_cptp(choi_from_kraus(kraus))
        assert report.cp and report.tp
        assert report.residual <= 1e-12

    def test_nan_entry_gives_a_nan_residual(self):
        # the public constructor rejects it, so it comes the trusted way
        good = choi_from_kraus([kraus_op(np.eye(2), "out", "in")])
        data = good.op.data.copy()
        data[1, 2] = np.nan
        op = LabeledOperator(good.op.row_subsystems, good.op.col_subsystems, data)
        report = is_cptp(combs._psd_choi(op, good.input_labels, good.output_labels))
        assert data.shape == (4, 4)
        assert not report.cp
        assert np.isnan(report.cp_residual) and np.isnan(report.residual)


class TestValidateComb:
    def _chain(self, kraus_by_round):
        factors = [
            choi_from_kraus([kraus_op(m, f"o{r}", f"i{r}") for m in mats])
            for r, mats in enumerate(kraus_by_round, start=1)
        ]
        total = factors[0]
        for f in factors[1:]:
            total = link_product(total, f)
        sig = CombSignature(
            tuple((f"i{r}", f"o{r}") for r in range(1, len(kraus_by_round) + 1))
        )
        return total, sig

    def test_identity_chain_valid(self):
        total, sig = self._chain([[np.eye(2)], [np.eye(2)], [np.eye(2)]])
        report = validate_comb(total, sig)
        assert report.valid and report.first_violation is None
        assert all(r <= 1e-12 for r in report.level_residuals)
        assert report.normalization == pytest.approx(1.0)

    def test_random_cptp_chain_valid(self):
        rng = rng_for(28)
        total, sig = self._chain(
            [random_kraus_set(rng, 2, 2, 3), random_kraus_set(rng, 2, 2, 2)]
        )
        report = validate_comb(total, sig)
        assert report.valid
        assert max(report.level_residuals) <= 1e-8
        assert report.normalization == pytest.approx(1.0, abs=1e-10)

    def test_non_tp_round_flagged(self):
        gamma = 0.4
        damp_incomplete = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)]
        total, sig = self._chain([[np.eye(2)], damp_incomplete, [np.eye(2)]])
        report = validate_comb(total, sig)
        assert not report.valid
        assert report.first_violation == 2
        assert report.level_residuals[0] <= 1e-10
        assert report.level_residuals[2] <= 1e-10

    def test_nan_tolerance_validates_nothing(self):
        total, sig = self._chain([[np.eye(2)], [np.eye(2)]])
        report = validate_comb(total, sig, tol=float("nan"))
        assert not report.valid and report.first_violation is not None

    def test_signature_label_mismatch_rejected(self):
        total, sig = self._chain([[np.eye(2)]])
        bad = CombSignature((("i1", "nope"),))
        with pytest.raises(ValueError, match="do not match"):
            validate_comb(total, bad)


class TestChoiValidation:
    def test_partition_must_cover_labels(self):
        subs = (("a", 2), ("b", 2))
        mat = np.eye(4)
        with pytest.raises(ValueError, match="partition"):
            ChoiOperator(LabeledOperator(subs, subs, mat), ("a",), ())

    def test_overlapping_partition_rejected(self):
        subs = (("a", 2),)
        with pytest.raises(ValueError, match="both an input and an output"):
            ChoiOperator(LabeledOperator(subs, subs, np.eye(2)), ("a",), ("a",))

    def test_negative_operator_rejected(self):
        subs = (("a", 2),)
        with pytest.raises(ValueError, match="not PSD"):
            ChoiOperator(LabeledOperator(subs, subs, -np.eye(2)), ("a",), ())

    def test_threshold_at_minus_tau(self, spectral_calls):
        # tau = PSD_RTOL * max(1, ||X||_F); an eigenvalue is computed only
        # to reject
        u = random_unitary(rng_for(41), 4)
        subs = (("a", 2), ("b", 2))

        def with_lowest(low):
            vals = np.array([3.0, 2.0, 1.0, low])
            return LabeledOperator(subs, subs, (u * vals) @ u.conj().T)

        tau = PSD_RTOL * np.sqrt(14.0)
        ChoiOperator(with_lowest(-tau / 2), ("a",), ("b",))
        assert spectral_calls["eigvalsh"] == 0
        with pytest.raises(
            ValueError, match=r"^Choi operator is not PSD: min eigenvalue -7\.48"
        ):
            ChoiOperator(with_lowest(-2 * tau), ("a",), ("b",))
        assert spectral_calls["eigvalsh"] == 1

    def test_signature_unique_labels(self):
        with pytest.raises(ValueError, match="unique"):
            CombSignature((("a", "b"), ("b", "c")))


SPECTRAL = ("eigh", "eigvalsh", "cholesky")


@pytest.fixture
def spectral_calls(monkeypatch):
    calls = dict.fromkeys(SPECTRAL, 0)
    for name in SPECTRAL:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _within_cap(build):
    try:
        return build()
    except ValueError as exc:
        if "exceeds the cap" not in str(exc):
            raise
        return None


def _trusted_builds(inst):
    """The library's Choi operators of an instance that fit the dense cap.

    Error rounds and one instrument per round by ``choi_from_kraus``, and
    the error comb, interrogator operators and their link products.
    """
    interro, errors = inst.code.interrogator, inst.errors
    builds = [choi_from_kraus(errors.round_ops(r)) for r in range(errors.rounds + 1)]
    builds += [
        choi_from_kraus(list(next(iter(per_round.values())).kraus.values()))
        for per_round in interro.instruments
    ]
    big = _within_cap(lambda: error_comb(errors))
    for memory in interro.final_memories:
        choi = _within_cap(lambda: interrogator_operator(interro, memory))
        if choi is not None:
            builds.append(choi)
            if big is not None:
                builds.append(link_product(big, choi))
    if big is not None:
        builds.append(big)
    return builds


@pytest.fixture(scope="module")
def spacetime():
    return build_instance("spacetime")


class TestTrustedConstructions:
    def test_no_spectral_call_at_the_cap(self, spacetime, spectral_calls):
        interro, errors = spacetime.code.interrogator, spacetime.errors
        big = error_comb(errors)
        assert big.op.row_dim == dense_cap() == 4096
        for memory in interro.final_memories:
            link_product(big, interrogator_operator(interro, memory))
        choi_from_kraus(errors.round_ops(1))
        assert spectral_calls == dict.fromkeys(SPECTRAL, 0)

    # hexagon's combs exceed the cap and its Kraus-set Chois sit at it:
    # five 4096-dim Cholesky factorizations of Gram sums, which spacetime's
    # error comb already covers
    @pytest.mark.parametrize(
        "name", [n for n in instance_names() if n != "hexagon"]
    )
    def test_library_builds_pass_the_public_check(self, name):
        builds = _trusted_builds(build_instance(name))
        assert builds
        for choi in builds:
            ChoiOperator(choi.op, choi.input_labels, choi.output_labels)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_builds_pass_the_public_check(self, seed):
        builds = _trusted_builds(random_instance(seed))
        rng = rng_for(seed)
        subs = (("out", 2), ("in", 3))
        h = random_matrix(rng, 6, 6)
        builds.append(project_cptp(LabeledOperator(subs, subs, h + h.conj().T), ("out",)))
        for choi in builds:
            ChoiOperator(choi.op, choi.input_labels, choi.output_labels)
