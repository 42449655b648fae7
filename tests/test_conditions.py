"""Correctability checkers, decoder synthesis, and end-to-end recovery."""

import math

import numpy as np
import pytest

from combsqec import conditions
from combsqec.conditions import (
    MI_TOL_BITS,
    ConditionReport,
    Decoder,
    check_algebraic,
    check_corollary_all_outcomes,
    check_info,
    check_static_kl,
    joint_state,
    synth_decoder_algebraic,
    synth_decoder_schmidt,
    verify_recovery,
)
from combsqec.library import bitflip_code, hexagon_honeycomb, random_instance
from combsqec.model import (
    INITIAL_MEMORY,
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    compose_K,
    enumerate_trajectories,
    env_label,
    q_label,
    qp_label,
)
from combsqec.tensor import LabeledOperator

from conftest import pauli_string, random_kraus_set, rng_for

CORPUS_SEEDS = tuple(range(100))


@pytest.fixture(scope="module")
def corpus():
    return [random_instance(seed) for seed in CORPUS_SEEDS]


def check_op(r, mat):
    mat = np.asarray(mat, dtype=complex)
    return LabeledOperator(
        ((q_label(r), mat.shape[0]),), ((qp_label(r - 1), mat.shape[1]),), mat
    )


def err_round(r, mat, env_in=1, env_out=1):
    mat = np.asarray(mat, dtype=complex)
    d_out = mat.shape[0] // env_out
    d_in = mat.shape[1] // env_in
    rows = ((qp_label(r), d_out), (env_label(r), env_out))
    cols = ((q_label(r), d_in),)
    if r > 0:
        cols = cols + ((env_label(r - 1), env_in),)
    return LabeledOperator(rows, cols, mat)


def codestates(code, count, seed):
    rng = rng_for(seed)
    k = code.codespace.dim
    out = []
    for _ in range(count):
        c = rng.normal(size=k) + 1j * rng.normal(size=k)
        out.append(code.codespace.basis @ (c / np.linalg.norm(c)))
    return out


def entropy_bits(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


# ----------------------------------------------------------------------
# static checker
# ----------------------------------------------------------------------


class TestStaticKL:
    def test_single_identity_is_trivially_correctable(self):
        inst = bitflip_code()
        report = check_static_kl(inst.code.codespace, [np.eye(8)])
        assert report.correctable
        assert report.worst_residual == 0.0
        assert np.allclose(report.detail["lambda"], [[1.0]])

    def test_unit_pauli_flips_brute_force(self):
        # oracle: recompute every T element as an inner product of
        # explicitly transformed codewords, no matrix-product shortcut
        inst = bitflip_code()
        basis = inst.code.codespace.basis
        ops = [pauli_string(s) for s in ("III", "XII", "IXI", "IIX")]
        expected = np.empty((4, 4, 2, 2), dtype=complex)
        for a, ea in enumerate(ops):
            for b, eb in enumerate(ops):
                for i in range(2):
                    for j in range(2):
                        left = ea @ basis[:, i]
                        right = eb @ basis[:, j]
                        expected[a, b, i, j] = left.conj() @ right
        for a in range(4):
            for b in range(4):
                want = np.eye(2) if a == b else np.zeros((2, 2))
                assert np.allclose(expected[a, b], want, atol=1e-12)
        report = check_static_kl(inst.code.codespace, ops)
        assert report.correctable
        assert report.worst_residual <= 1e-12
        assert np.allclose(report.detail["lambda"], np.eye(4), atol=1e-12)

    def test_logical_phase_flip_witness(self):
        # Z1 maps |000> -> |000> and |111> -> -|111>: the pair matrix
        # T_{I,Z1} = diag(1, -1) has zero scalar part and residual sqrt(2)
        inst = bitflip_code()
        ops = [pauli_string("III"), pauli_string("ZII")]
        report = check_static_kl(inst.code.codespace, ops)
        assert not report.correctable
        assert report.worst_residual == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert report.witness == (0, 0, 0, 1)
        # the scalar table alone looks innocent; the residuals carry the verdict
        assert np.allclose(report.detail["lambda"], np.eye(2), atol=1e-12)

    def test_accepts_labeled_operators(self):
        inst = bitflip_code()
        raw = [pauli_string("III"), pauli_string("ZII")]
        wrapped = [
            LabeledOperator((("Q0", 8),), (("Q0", 8),), m) for m in raw
        ]
        a = check_static_kl(inst.code.codespace, raw)
        b = check_static_kl(inst.code.codespace, wrapped)
        assert a.correctable == b.correctable
        assert a.worst_residual == pytest.approx(b.worst_residual, abs=1e-15)

    def test_input_validation(self):
        inst = bitflip_code()
        with pytest.raises(ValueError, match="at least one"):
            check_static_kl(inst.code.codespace, [])
        with pytest.raises(ValueError, match="square on the ambient"):
            check_static_kl(inst.code.codespace, [np.eye(4)])

    def test_tolerance_override_flips_verdict(self):
        inst = bitflip_code()
        ops = [pauli_string("III"), pauli_string("ZII")]
        report = check_static_kl(inst.code.codespace, ops, tol=2.0)
        assert report.correctable
        assert report.worst_residual == pytest.approx(math.sqrt(2.0), abs=1e-12)


# ----------------------------------------------------------------------
# lambda tensor: the per-memory matrices of the algebraic report
# ----------------------------------------------------------------------


def raw_lambda(code, errors, memory):
    """Unsymmetrized Lambda_m rebuilt from compose_K: entry (e', e) is
    Tr(B^dag K_{e',m}^dag K_{e,m} B) / code_dim, summed branch by branch."""
    basis = code.codespace.basis
    k = code.codespace.dim
    seqs = list(errors.sequences())
    outcomes = [
        t.outcomes for t in enumerate_trajectories(code.interrogator)[memory]
    ]
    branch = {
        (e, o): compose_K(errors, code.interrogator, e, memory, o).data @ basis
        for e in seqs
        for o in outcomes
    }
    raw = np.zeros((len(seqs), len(seqs)), dtype=complex)
    for a, ep in enumerate(seqs):
        left = sum(branch[(ep, o)] for o in outcomes).conj().T
        for b, e in enumerate(seqs):
            for o in outcomes:
                raw[a, b] += np.trace(left @ branch[(e, o)]) / k
    return raw


class TestLambdaTensor:
    def test_hexagon_cross_terms_vanish(self):
        inst = hexagon_honeycomb()
        report = check_algebraic(inst.code, inst.errors)
        assert len(report.detail["error_sequences"]) == 2
        cross = max(
            abs(lam[0, 1]) for lam in report.detail["lambda"].values()
        )
        assert cross <= 1e-9
        assert report.worst_residual <= 1e-9

    def test_hexagon_diagonal_sums_to_error_weight(self):
        # trace preservation: summing the diagonal scalar over all
        # branches recovers each error operator's squared weight (1/2)
        inst = hexagon_honeycomb()
        report = check_algebraic(inst.code, inst.errors)
        lambdas = report.detail["lambda"]
        for a in range(len(report.detail["error_sequences"])):
            total = sum(lambdas[m][a, a] for m in report.detail["memories"])
            assert total == pytest.approx(0.5, abs=1e-10)

    def test_zero_kraus_branch_is_flagged_degenerate(self):
        inst = CheckInstrument(
            1,
            INITIAL_MEMORY,
            {"a": check_op(1, np.eye(2)), "b": check_op(1, np.zeros((2, 2)))},
        )
        update = MemoryUpdate(
            ({("a", INITIAL_MEMORY): "a", ("b", INITIAL_MEMORY): "b"},)
        )
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator(({INITIAL_MEMORY: inst},), update)
        )
        errors = ErrorModel(
            ((err_round(0, np.eye(2)),), (err_round(1, np.eye(2)),))
        )
        report = check_algebraic(code, errors)
        assert report.correctable
        assert report.detail["degenerate_branches"] == (("b", ("b",)),)

    def test_trace_sum_is_one_for_trace_preserving_models(self, corpus):
        for inst in corpus:
            lambdas = check_algebraic(inst.code, inst.errors).detail["lambda"]
            total = sum(np.trace(lam).real for lam in lambdas.values())
            assert total == pytest.approx(1.0, abs=1e-8), inst.name

    def test_aggregate_is_hermitian_psd_when_correctable(self, corpus):
        for inst in corpus:
            if not inst.expected_correctable:
                continue
            report = check_algebraic(inst.code, inst.errors)
            for m, lam in report.detail["lambda"].items():
                raw = raw_lambda(inst.code, inst.errors, m)
                assert np.max(np.abs(raw - raw.conj().T)) <= 1e-9
                assert np.max(np.abs(lam - (raw + raw.conj().T) / 2)) <= 1e-12
                assert np.min(np.linalg.eigvalsh(lam)) >= -1e-9


# ----------------------------------------------------------------------
# algebraic checker
# ----------------------------------------------------------------------


class TestCheckAlgebraic:
    def test_bitflip_correctable_quarter_weights(self):
        inst = bitflip_code()
        report = check_algebraic(inst.code, inst.errors)
        assert report.correctable
        assert np.allclose(
            report.detail["lambda"][INITIAL_MEMORY], np.eye(4) / 4.0, atol=1e-12
        )

    def test_bitflip_z_witness(self):
        inst = bitflip_code("z")
        report = check_algebraic(inst.code, inst.errors)
        assert not report.correctable
        assert report.worst_residual == pytest.approx(1 / math.sqrt(2.0), abs=1e-12)
        assert report.witness == (0, 0, (1,), (0,), INITIAL_MEMORY, ())
        assert np.allclose(
            report.detail["lambda"][INITIAL_MEMORY], np.eye(2) / 2.0, atol=1e-12
        )

    def test_round_count_mismatch_rejected(self):
        inst = bitflip_code()
        bad = ErrorModel(
            (
                (err_round(0, np.eye(8)),),
                (err_round(1, np.eye(8)),),
            )
        )
        with pytest.raises(ValueError, match="rounds"):
            check_algebraic(inst.code, bad)

    def test_matches_static_checker_on_zero_round_instances(self, corpus):
        cases = [bitflip_code(), bitflip_code("z")]
        cases += [inst for inst in corpus if inst.code.rounds == 0]
        assert len(cases) > 10
        for inst in cases:
            full = check_algebraic(inst.code, inst.errors)
            static = check_static_kl(
                inst.code.codespace,
                [op.data for op in inst.errors.round_ops(0)],
            )
            assert full.correctable == static.correctable, inst.name
            assert np.allclose(
                full.detail["lambda"][INITIAL_MEMORY],
                static.detail["lambda"],
                atol=1e-10,
            ), inst.name

    def test_corollary_agrees_on_outcome_storing_memories(self, corpus):
        for inst in corpus[:30]:
            full = check_algebraic(inst.code, inst.errors)
            per_outcome = check_corollary_all_outcomes(inst.code, inst.errors)
            assert full.correctable == per_outcome.correctable, inst.name

    def test_corollary_rejects_merged_memories(self):
        rng = rng_for(11)
        mats = random_kraus_set(rng, 2, 2, 2)
        inst = CheckInstrument(
            1,
            INITIAL_MEMORY,
            {"a": check_op(1, mats[0]), "b": check_op(1, mats[1])},
        )
        update = MemoryUpdate(
            ({("a", INITIAL_MEMORY): "m", ("b", INITIAL_MEMORY): "m"},)
        )
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator(({INITIAL_MEMORY: inst},), update)
        )
        errors = ErrorModel(
            ((err_round(0, np.eye(2)),), (err_round(1, np.eye(2)),))
        )
        with pytest.raises(ValueError, match="not injective"):
            check_corollary_all_outcomes(code, errors)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError, match="verdict"):
            ConditionReport(
                correctable=True, worst_residual=2.0, tolerance=1.0, witness=None
            )


# ----------------------------------------------------------------------
# joint states and the entropic checker
# ----------------------------------------------------------------------


def merged_instance(seed):
    """All outcomes of each round funnel into a single memory state."""
    rng = np.random.default_rng(seed)
    d = 2
    n_rounds = int(rng.integers(1, 3))
    k = int(rng.integers(1, 3))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    codespace = CodeSpace(d, q[:, :k])
    instruments = []
    tables = []
    memory = INITIAL_MEMORY
    for r in range(1, n_rounds + 1):
        nxt = f"m{r}"
        tables.append({("a", memory): nxt, ("b", memory): nxt})
        mats = random_kraus_set(rng, d, d, 2)
        instruments.append(
            {
                memory: CheckInstrument(
                    r, memory, {"a": check_op(r, mats[0]), "b": check_op(r, mats[1])}
                )
            }
        )
        memory = nxt
    rounds = []
    for r in range(n_rounds + 1):
        count = int(rng.integers(1, 3))
        ops = random_kraus_set(rng, d, d, count)
        rounds.append(tuple(err_round(r, op) for op in ops))
    return (
        StrategicCode(
            codespace, Interrogator(tuple(instruments), MemoryUpdate(tuple(tables)))
        ),
        ErrorModel(tuple(rounds)),
    )


class TestJointState:
    def test_identity_channel_maximally_mixed_reference(self):
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator((), MemoryUpdate(()))
        )
        errors = ErrorModel(((err_round(0, np.eye(2)),),))
        js = joint_state(code, errors)
        assert js.memories == (INITIAL_MEMORY,)
        assert np.allclose(js.rho_rme[INITIAL_MEMORY], np.eye(2) / 2.0, atol=1e-12)
        assert js.weight(INITIAL_MEMORY) == pytest.approx(1.0, abs=1e-12)

    def test_bitflip_joint_state_is_maximally_mixed(self):
        # orthogonal error branches on orthogonal codewords: the joint
        # reference-register state is exactly I/8
        inst = bitflip_code()
        js = joint_state(inst.code, inst.errors)
        assert np.allclose(js.rho_rme[INITIAL_MEMORY], np.eye(8) / 8.0, atol=1e-12)

    def test_assembly_matches_elementwise_oracle(self):
        # oracle: rebuild each matrix element from individually composed
        # branch vectors with explicit row-major index arithmetic
        inst = random_instance(3, rounds=2, adaptive=True)
        js = joint_state(inst.code, inst.errors)
        basis = inst.code.codespace.basis
        k = js.code_dim
        for m in js.memories:
            outs = js.outcome_sequences[m]
            seqs = js.error_sequences
            n_o, n_e = len(outs), len(seqs)
            vecs = {}
            for io, o in enumerate(outs):
                for ie, e in enumerate(seqs):
                    kb = (
                        compose_K(inst.errors, inst.code.interrogator, e, m, o).data
                        @ basis
                    )
                    for i in range(k):
                        vecs[(i, io, ie)] = kb[:, i]

            def flat(i, io, ie):
                return (i * n_o + io) * n_e + ie

            dim = k * n_o * n_e
            expected = np.zeros((dim, dim), dtype=complex)
            for (i, io, ie), v in vecs.items():
                for (j, jo, je), w in vecs.items():
                    expected[flat(i, io, ie), flat(j, jo, je)] = (w.conj() @ v) / k
            assert np.allclose(js.rho_rme[m], expected, atol=1e-12)

    def test_blocks_are_psd_and_weights_total_one(self):
        for inst in (bitflip_code(), hexagon_honeycomb()):
            js = joint_state(inst.code, inst.errors)
            for m in js.memories:
                assert np.min(np.linalg.eigvalsh(js.rho_rme[m])) >= -1e-12
            assert sum(js.weights().values()) == pytest.approx(1.0, abs=1e-10)


class TestCheckInfo:
    def test_bitflip_variants(self):
        good = bitflip_code()
        report = check_info(good.code, good.errors)
        assert report.correctable
        assert report.worst_residual <= 1e-9
        bad = bitflip_code("z")
        report = check_info(bad.code, bad.errors)
        assert not report.correctable
        assert report.worst_residual == pytest.approx(1.0, abs=1e-9)
        assert report.witness == (INITIAL_MEMORY,)

    def test_codespace_filtering_instrument_is_caught(self):
        # measuring the codespace in its own basis destroys superpositions
        # but leaves each sector's reference marginal pure, so the plain
        # per-sector mutual information is blind to it; the reported
        # deficit is not
        inst = CheckInstrument(
            1,
            INITIAL_MEMORY,
            {
                "0": check_op(1, np.diag([1.0, 0.0])),
                "1": check_op(1, np.diag([0.0, 1.0])),
            },
        )
        update = MemoryUpdate(
            ({("0", INITIAL_MEMORY): "0", ("1", INITIAL_MEMORY): "1"},)
        )
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator(({INITIAL_MEMORY: inst},), update)
        )
        errors = ErrorModel(
            ((err_round(0, np.eye(2)),), (err_round(1, np.eye(2)),))
        )
        js = joint_state(code, errors)
        for m in js.memories:
            p = js.weight(m)
            plain_mi = (
                entropy_bits(js.rho_r(m) / p)
                + entropy_bits(js.rho_me(m) / p)
                - entropy_bits(js.rho_rme[m] / p)
            )
            assert abs(plain_mi) <= 1e-9
        report = check_info(code, errors)
        assert not report.correctable
        assert report.worst_residual == pytest.approx(1.0, abs=1e-9)
        assert check_algebraic(code, errors).correctable is False

    def test_verdicts_match_algebraic_checker(self, corpus):
        named = [bitflip_code(), bitflip_code("z"), hexagon_honeycomb()]
        for inst in named + list(corpus):
            alg = check_algebraic(inst.code, inst.errors)
            info = check_info(inst.code, inst.errors)
            assert alg.correctable == info.correctable, inst.name
            assert alg.correctable == inst.expected_correctable, inst.name
            assert min(info.detail["deficit_bits"].values()) >= -1e-9, inst.name

    def test_verdicts_match_on_merged_memories(self):
        # memory states that merge outcome sequences sit outside the
        # generated corpus; the two checkers must still agree there
        for seed in range(20):
            code, errors = merged_instance(seed)
            alg = check_algebraic(code, errors)
            info = check_info(code, errors)
            assert alg.correctable == info.correctable, seed


# ----------------------------------------------------------------------
# decoder synthesis and recovery
# ----------------------------------------------------------------------


def env_dephasing_instance():
    """Zero-round model that copies the qubit basis into an environment."""
    kmat = np.zeros((4, 2), dtype=complex)
    kmat[0, 0] = 1.0
    kmat[3, 1] = 1.0
    code = StrategicCode(
        CodeSpace(2, np.eye(2)), Interrogator((), MemoryUpdate(()))
    )
    errors = ErrorModel(((err_round(0, kmat, env_out=2),),))
    return code, errors


class TestDecoderType:
    def test_trivial_identity_decoder(self):
        dec = Decoder(
            output_dim=2,
            input_dim=2,
            kraus={INITIAL_MEMORY: (np.eye(2),)},
            completion={INITIAL_MEMORY: np.zeros((2, 2))},
        )
        assert dec.memories() == (INITIAL_MEMORY,)

    def test_completeness_violation_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            Decoder(
                output_dim=2,
                input_dim=2,
                kraus={INITIAL_MEMORY: (np.eye(2) / 2.0,)},
                completion={INITIAL_MEMORY: np.zeros((2, 2))},
            )

    def test_non_projector_completion_rejected(self):
        with pytest.raises(ValueError, match="not a projector"):
            Decoder(
                output_dim=2,
                input_dim=2,
                kraus={INITIAL_MEMORY: (np.eye(2) / math.sqrt(2.0),)},
                completion={INITIAL_MEMORY: np.eye(2) / 2.0},
            )

    def test_memory_sets_must_match(self):
        with pytest.raises(ValueError, match="same memories"):
            Decoder(
                output_dim=2,
                input_dim=2,
                kraus={INITIAL_MEMORY: (np.eye(2),)},
                completion={"other": np.zeros((2, 2))},
            )


class TestSynthesis:
    def test_rejects_not_correctable(self):
        inst = bitflip_code("z")
        with pytest.raises(ValueError, match="not correctable"):
            synth_decoder_algebraic(inst.code, inst.errors)
        with pytest.raises(ValueError, match="not correctable"):
            synth_decoder_schmidt(inst.code, inst.errors)

    def test_rejects_nontrivial_final_environment(self):
        code, errors = env_dephasing_instance()
        with pytest.raises(ValueError, match="trivial final environment"):
            synth_decoder_algebraic(code, errors)
        with pytest.raises(ValueError, match="trivial final environment"):
            synth_decoder_schmidt(code, errors)

    def test_correctable_instances_recover_exactly(self, corpus):
        named = [bitflip_code(), hexagon_honeycomb()]
        cases = named + [inst for inst in corpus if inst.expected_correctable]
        assert len(cases) > 20
        for inst in cases:
            states = codestates(inst.code, 5, seed=404)
            for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
                dec = synth(inst.code, inst.errors)
                report = verify_recovery(inst.code, inst.errors, dec, states)
                assert report.worst_fidelity >= 1.0 - 1e-8, (inst.name, synth)
                for total in report.total_weights:
                    assert total == pytest.approx(1.0, abs=1e-8), inst.name

    def test_best_effort_decoders_stay_below_threshold(self, corpus):
        inst = bitflip_code("z")
        balanced = np.zeros(8)
        balanced[0] = balanced[7] = 1.0 / math.sqrt(2.0)
        states = codestates(inst.code, 5, seed=405) + [balanced]
        for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
            dec = synth(inst.code, inst.errors, require_correctable=False)
            report = verify_recovery(inst.code, inst.errors, dec, states)
            # Z1 is a logical phase flip: on the balanced codeword half
            # the arriving weight is unrecoverable no matter the decoder
            assert report.worst_fidelity == pytest.approx(0.5, abs=1e-9)
        failing = [inst for inst in corpus if not inst.expected_correctable]
        assert len(failing) > 20
        for inst in failing:
            states = codestates(inst.code, 5, seed=406)
            dec = synth_decoder_algebraic(
                inst.code, inst.errors, require_correctable=False
            )
            report = verify_recovery(inst.code, inst.errors, dec, states)
            assert report.worst_fidelity < 1.0 - 1e-4, inst.name
        for inst in failing[:10]:
            states = codestates(inst.code, 5, seed=407)
            dec = synth_decoder_schmidt(
                inst.code, inst.errors, require_correctable=False
            )
            report = verify_recovery(inst.code, inst.errors, dec, states)
            assert report.worst_fidelity < 1.0 - 1e-4, inst.name

    def test_schmidt_builds_one_joint_state(self, monkeypatch):
        calls = []
        real = conditions.joint_state

        def counted(code, errors):
            calls.append(code)
            return real(code, errors)

        monkeypatch.setattr(conditions, "joint_state", counted)
        inst = bitflip_code()
        synth_decoder_schmidt(inst.code, inst.errors)
        assert len(calls) == 1
        # the verdict still comes from the same entropic report
        z = bitflip_code("z")
        with pytest.raises(ValueError, match="not correctable"):
            synth_decoder_schmidt(z.code, z.errors)
        assert len(calls) == 2


class TestVerifyRecovery:
    def test_environment_slices_are_summed_incoherently(self):
        # basis dephasing into the environment halves the fidelity of |+>
        # under an identity recovery; a coherent environment sum would
        # wrongly report 1
        code, errors = env_dephasing_instance()
        dec = Decoder(
            output_dim=2,
            input_dim=2,
            kraus={INITIAL_MEMORY: (np.eye(2),)},
            completion={INITIAL_MEMORY: np.zeros((2, 2))},
        )
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        report = verify_recovery(code, errors, dec, [plus])
        assert report.worst_fidelity == pytest.approx(0.5, abs=1e-12)
        assert report.total_weights[0] == pytest.approx(1.0, abs=1e-12)
        basis_state = np.array([1.0, 0.0])
        report = verify_recovery(code, errors, dec, [basis_state])
        assert report.worst_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_state_validation(self):
        inst = bitflip_code()
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        with pytest.raises(ValueError, match="not normalized"):
            verify_recovery(inst.code, inst.errors, dec, [np.ones(8)])
        outside = np.zeros(8)
        outside[1] = 1.0
        with pytest.raises(ValueError, match="outside the codespace"):
            verify_recovery(inst.code, inst.errors, dec, [outside])
        with pytest.raises(ValueError, match="ambient"):
            verify_recovery(inst.code, inst.errors, dec, [np.array([1.0, 0.0])])

    def test_weight_table_partitions_arriving_probability(self):
        inst = hexagon_honeycomb()
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        states = codestates(inst.code, 2, seed=408)
        report = verify_recovery(inst.code, inst.errors, dec, states)
        for idx in range(2):
            table = report.weight_table(idx)
            assert set(table) <= set(inst.code.interrogator.final_memories)
            assert sum(table.values()) == pytest.approx(
                report.total_weights[idx], abs=1e-9
            )
