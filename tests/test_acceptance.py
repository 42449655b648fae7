"""Acceptance gate: one test per release criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail listing.
"""

import numpy as np
import pytest

from combsqec.combs import (
    ChoiOperator,
    CombSignature,
    choi_from_kraus,
    link_product,
    validate_comb,
)
from combsqec.conditions import (
    check_algebraic,
    check_info,
    check_static_kl,
    synth_decoder_algebraic,
    synth_decoder_schmidt,
    verify_recovery,
)
from combsqec.library import (
    bitflip_code,
    build_instance,
    hexagon_honeycomb,
    instance_names,
    random_instance,
    spacetime_toy_circuit,
)
from combsqec.model import (
    INITIAL_MEMORY,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    compose_K,
    comb_vector_dense,
    enumerate_trajectories,
    env_label,
    error_comb_vector,
    interrogator_operator,
    q_label,
    qp_label,
)
from combsqec.optimize import (
    OptimizationState,
    OptimizerConfig,
    ent_fidelity,
    seesaw,
    static_biconvex,
)
from combsqec.tensor import LabeledOperator, permute_subsystems, vectorize

from conftest import PAULI, pauli_string


CORPUS_SEEDS = range(100)


@pytest.fixture(scope="session")
def corpus():
    return tuple(random_instance(seed) for seed in CORPUS_SEEDS)


@pytest.fixture(scope="session")
def library():
    return tuple(build_instance(name) for name in instance_names())


def random_codestates(codespace, count, seed):
    rng = np.random.default_rng(seed)
    k = codespace.dim
    states = []
    for _ in range(count):
        amp = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        amp /= np.linalg.norm(amp)
        states.append(codespace.basis @ amp)
    return states


def flip_sign(signs, position):
    chars = list(signs)
    chars[position - 1] = "+" if chars[position - 1] == "-" else "-"
    return "".join(chars)


def test_criterion_1_hexagon_walkthrough_reproduction():
    inst = hexagon_honeycomb()
    basis = inst.code.codespace.basis
    grouped = enumerate_trajectories(inst.code.interrogator)

    # every cross-term between the two error branches vanishes
    worst_cross = 0.0
    supports = {0: set(), 1: set()}
    for memory, trajectories in grouped.items():
        outcomes = trajectories[0].outcomes
        blocks = {
            e: compose_K(
                inst.errors, inst.code.interrogator, (e, 0, 0), memory, outcomes
            ).data
            @ basis
            for e in (0, 1)
        }
        cross = blocks[0].conj().T @ blocks[1]
        worst_cross = max(worst_cross, float(np.max(np.abs(cross))))
        for e in (0, 1):
            if np.linalg.norm(blocks[e]) > 1e-9:
                supports[e].add(outcomes)
    assert worst_cross <= 1e-9

    # both errors anticommute with the first round-1 check only
    assert {o[0] for o in supports[0]} == {"-++"}
    assert {o[0] for o in supports[1]} == {"-++"}

    # round-2 branches are the no-error support shifted by each error's
    # anticommuting round-2 check: position 3 for Z1, position 1 for Z2
    second = inst.code.interrogator.instrument(2, "-++")
    plain = {
        o for o in second.outcomes
        if np.linalg.norm(second.kraus[o].data @ basis) > 1e-9
    }
    assert {o[1] for o in supports[0]} == {flip_sign(o, 3) for o in plain}
    assert {o[1] for o in supports[1]} == {flip_sign(o, 1) for o in plain}
    z1 = pauli_string("ZIIIII")
    z2 = pauli_string("IZIIII")
    for o in second.outcomes:
        p = second.kraus[o].data
        assert np.linalg.norm(p @ z1 - z1 @ second.kraus[flip_sign(o, 3)].data) <= 1e-12
        assert np.linalg.norm(p @ z2 - z2 @ second.kraus[flip_sign(o, 1)].data) <= 1e-12

    assert check_algebraic(inst.code, inst.errors).correctable


def test_criterion_2_static_reduction_agrees_with_zero_round_checker():
    def embed(name):
        mats = {"I": np.eye(2), "X": PAULI["X"], "Z": PAULI["Z"]}
        out = np.eye(1, dtype=complex)
        for c in name:
            out = np.kron(out, mats[c])
        return out

    basis = np.zeros((8, 2), dtype=complex)
    basis[0, 0] = basis[7, 1] = 1.0
    codespace = CodeSpace(8, basis)
    cases = {
        "single-x": ([embed("III"), embed("XII"), embed("IXI"), embed("IIX")], True),
        "logical-z": ([embed("III"), embed("ZII")], False),
    }
    for name, (mats, expect) in cases.items():
        ops = tuple(
            LabeledOperator(
                ((qp_label(0), 8), (env_label(0), 1)), ((q_label(0), 8),), m
            )
            for m in mats
        )
        errors = ErrorModel((ops,), require_trace_nonincreasing=False)
        code = StrategicCode(codespace, Interrogator((), MemoryUpdate(())))
        alg = check_algebraic(code, errors)
        static = check_static_kl(codespace, mats)
        assert alg.correctable == static.correctable == expect, name
        lam_alg = alg.detail["lambda"][INITIAL_MEMORY]
        lam_static = static.detail["lambda"]
        assert np.max(np.abs(lam_alg - lam_static)) <= 1e-10, name
        if expect:
            assert np.max(np.abs(lam_static - np.eye(4))) <= 1e-10, name


def test_criterion_3_checker_equivalence_on_corpus_and_library(corpus, library):
    for inst in corpus + library:
        algebraic = check_algebraic(inst.code, inst.errors)
        info = check_info(inst.code, inst.errors)
        assert algebraic.correctable == info.correctable, inst.name
        assert algebraic.correctable == inst.expected_correctable, inst.name


def test_criterion_4_constructive_recovery_on_correctable_instances(corpus, library):
    checked = 0
    for inst in corpus + library:
        if not check_algebraic(inst.code, inst.errors).correctable:
            continue
        states = random_codestates(inst.code.codespace, 20, seed=17)
        for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
            decoder = synth(inst.code, inst.errors)
            report = verify_recovery(inst.code, inst.errors, decoder, states)
            assert report.worst_fidelity >= 1 - 1e-8, (inst.name, synth.__name__)
            for total in report.total_weights:
                assert total == pytest.approx(1.0, abs=1e-8), (
                    inst.name,
                    synth.__name__,
                )
        checked += 1
    assert checked >= 3  # at least the correctable library instances


def test_criterion_5_link_product_algebra(corpus, library):
    rng = np.random.default_rng(55)

    def qubit_channel(tag_in, tag_out):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v, _ = np.linalg.qr(g)
        kraus = [
            LabeledOperator(((tag_out, 2),), ((tag_in, 2),), v[i * 2 : (i + 1) * 2])
            for i in range(2)
        ]
        return kraus, choi_from_kraus(kraus)

    for _ in range(100):
        k1, c1 = qubit_channel("A", "B")
        k2, c2 = qubit_channel("B", "C")
        composed = [
            LabeledOperator((("C", 2),), (("A", 2),), b.data @ a.data)
            for a in k1
            for b in k2
        ]
        direct = choi_from_kraus(composed)
        linked = link_product(c2, c1)
        diff = permute_subsystems(linked.op, direct.op.row_labels).data - direct.op.data
        assert np.max(np.abs(diff)) <= 1e-9

    # disjoint labels reduce to a tensor product
    _, ca = qubit_channel("A", "B")
    _, cb = qubit_channel("C", "D")
    joint = link_product(ca, cb)
    ref = np.kron(ca.op.data, cb.op.data)
    joint_data = permute_subsystems(joint.op, ("B", "A", "D", "C")).data
    assert np.max(np.abs(joint_data - ref)) <= 1e-9

    # full overlap reduces to the trace pairing
    _, cx = qubit_channel("A", "B")
    _, cy = qubit_channel("A", "B")
    swapped = ChoiOperator(
        cy.op, input_labels=("B",), output_labels=("A",)
    )
    scalar = link_product(cx, swapped)
    assert scalar.op.row_subsystems == ()
    assert abs(
        complex(scalar.op.data[0, 0]) - np.trace(cx.op.data.T @ cy.op.data)
    ) <= 1e-9

    # factored composition against the dense comb contraction
    checked = 0
    for inst in corpus + library:
        dense_dim = inst.code.codespace.ambient_dim ** (
            2 * inst.errors.rounds + 2
        ) * inst.errors.env_dim(inst.errors.rounds)
        if dense_dim > 4096:
            continue
        checked += 1
        grouped = enumerate_trajectories(inst.code.interrogator)
        for memory, trajectories in grouped.items():
            for traj in trajectories:
                for e in inst.errors.sequences():
                    _assert_factored_matches_dense(inst, e, memory, traj.outcomes)
    assert checked >= 50


def _assert_factored_matches_dense(inst, e, memory, outcomes):
    l = inst.errors.rounds
    evec = error_comb_vector(inst.errors, e)
    e_outer = ChoiOperator(
        LabeledOperator(
            evec.row_subsystems, evec.row_subsystems, evec.data @ evec.data.conj().T
        ),
        input_labels=tuple(q_label(r) for r in range(l + 1)),
        output_labels=tuple(qp_label(r) for r in range(l + 1)) + (env_label(l),),
    )
    cvec = comb_vector_dense(inst.code.interrogator, memory, outcomes)
    c_outer = ChoiOperator(
        LabeledOperator(
            cvec.row_subsystems, cvec.row_subsystems, cvec.data @ cvec.data.conj().T
        ),
        input_labels=tuple(qp_label(r) for r in range(l)),
        output_labels=tuple(q_label(r) for r in range(1, l + 1)),
    )
    linked = link_product(e_outer, c_outer)
    kvec = vectorize(compose_K(inst.errors, inst.code.interrogator, e, memory, outcomes))
    k_outer = LabeledOperator(
        kvec.row_subsystems, kvec.row_subsystems, kvec.data @ kvec.data.conj().T
    )
    diff = permute_subsystems(linked.op, k_outer.row_labels).data - k_outer.data
    assert np.max(np.abs(diff)) <= 1e-9 * max(1.0, np.max(np.abs(k_outer.data)))


def _total_comb(interrogator):
    total = None
    subs = None
    for memory in interrogator.final_memories:
        choi = interrogator_operator(interrogator, memory)
        if total is None:
            total = np.array(choi.op.data)
            subs = choi.op.row_subsystems
        else:
            total = total + permute_subsystems(
                choi.op, tuple(s[0] for s in subs)
            ).data
    l = interrogator.rounds
    op = LabeledOperator(subs, subs, total)
    return ChoiOperator(
        op,
        input_labels=tuple(qp_label(r) for r in range(l)),
        output_labels=tuple(q_label(r) for r in range(1, l + 1)),
    )


def test_criterion_6_comb_causality_and_mutant_detection(corpus, library):
    checked = 0
    for inst in corpus + library:
        l = inst.code.interrogator.rounds
        if l == 0:
            continue
        d = inst.code.codespace.ambient_dim
        if d ** (2 * l) > 4096:
            continue
        sig = CombSignature(
            tuple((qp_label(r), q_label(r + 1)) for r in range(l))
        )
        report = validate_comb(_total_comb(inst.code.interrogator), sig)
        assert report.valid, inst.name
        assert max(report.level_residuals) <= 1e-8, inst.name
        checked += 1
    assert checked >= 20

    # a branch scaled out of completeness is caught at its own round; use
    # an instance whose every round has two outcomes so the scaled branch
    # breaks that round's completeness rather than the normalization
    inst = random_instance(0, rounds=2)
    interro = inst.code.interrogator
    l = interro.rounds
    sig = CombSignature(tuple((qp_label(r), q_label(r + 1)) for r in range(l)))
    mutated_outcome = interro.instrument(1, INITIAL_MEMORY).outcomes[0]
    for bad_round in (1, 2):
        total = None
        subs = None
        for memory, trajectories in enumerate_trajectories(interro).items():
            for traj in trajectories:
                vec = comb_vector_dense(interro, memory, traj.outcomes)
                scale = 1.3 if traj.outcomes[bad_round - 1] == mutated_outcome else 1.0
                outer = scale * (vec.data @ vec.data.conj().T)
                if total is None:
                    total = outer
                    subs = vec.row_subsystems
                else:
                    total = total + permute_subsystems(
                        LabeledOperator(vec.row_subsystems, vec.row_subsystems, outer),
                        tuple(s[0] for s in subs),
                    ).data
        mutant = ChoiOperator(
            LabeledOperator(subs, subs, total),
            input_labels=tuple(qp_label(r) for r in range(l)),
            output_labels=tuple(q_label(r) for r in range(1, l + 1)),
        )
        report = validate_comb(mutant, sig)
        assert not report.valid
        assert report.first_violation == bad_round


def test_criterion_7_optimizer_contract():
    rho = np.eye(2, dtype=complex) / 2

    # certified-correctable single-round instance, two-factor alternation
    flip = bitflip_code()
    assert check_algebraic(flip.code, flip.errors).correctable
    cfg = OptimizerConfig(seed=0)
    bic = static_biconvex(flip.errors, 2, config=cfg)
    see = seesaw(flip.errors, 2, (), config=cfg)
    for run in (bic, see):
        assert run.fidelity >= 0.999
        fs = [r.fidelity for r in run.trace]
        assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))
        assert abs(ent_fidelity(run, flip.errors, rho) - run.fidelity) <= 1e-9
    assert abs(bic.fidelity - see.fidelity) <= 1e-6

    # certified-correctable multi-round instance
    toy = spacetime_toy_circuit()
    assert check_algebraic(toy.code, toy.errors).correctable
    out = seesaw(toy.errors, 2, (1, 2), config=OptimizerConfig(seed=0))
    assert out.fidelity >= 0.999
    fs = [r.fidelity for r in out.trace]
    assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))

    # feasibility of every iterate is enforced by construction; spot-check
    # the returned factors against the stated tolerances anyway
    for run in (bic, see, out):
        eo, ei = run.encoder_dims
        tr = np.einsum(
            "aiaj->ij", run.encoder.reshape(eo, ei, eo, ei)
        )
        assert np.linalg.norm(tr - np.eye(ei)) <= 1e-7
        assert float(np.linalg.eigvalsh(run.encoder)[0]) >= -1e-8 * max(
            1.0, float(np.linalg.norm(run.encoder))
        )

    # identical seeds reproduce identical traces
    rerun = seesaw(toy.errors, 2, (1, 2), config=OptimizerConfig(seed=0))
    assert rerun.trace_lines() == out.trace_lines()


def test_criterion_8_fidelity_spot_values():
    def embed_identity(d_out, d_in):
        v = np.zeros((d_out, d_in), dtype=complex)
        for i in range(min(d_out, d_in)):
            v[i, i] = 1.0
        return np.outer(v.reshape(-1), v.reshape(-1).conj())

    def single_round(mats):
        return ErrorModel(
            (
                tuple(
                    LabeledOperator(
                        ((qp_label(0), 2), (env_label(0), 1)), ((q_label(0), 2),), m
                    )
                    for m in mats
                ),
            )
        )

    # factor round 0 is the encoder, round 1 the one decoder
    state = OptimizationState(
        ((2, 2), (2, 2)),
        (((embed_identity(2, 2),),), ((embed_identity(2, 2),),)),
        fidelity=0.0,
    )
    rho = np.eye(2, dtype=complex) / 2
    assert abs(ent_fidelity(state, single_round([np.eye(2)]), rho) - 1.0) <= 1e-12

    kraus = [
        0.5 * np.eye(2),
        0.5 * PAULI["X"],
        0.5 * PAULI["Y"],
        0.5 * PAULI["Z"],
    ]
    oracle = sum(abs(np.trace(rho @ k)) ** 2 for k in kraus)
    measured = ent_fidelity(state, single_round(kraus), rho)
    assert abs(measured - 0.25) <= 1e-10
    assert abs(measured - oracle) <= 1e-10
