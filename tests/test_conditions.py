"""Correctability checkers, decoder synthesis, and end-to-end recovery."""

import json
import math

import numpy as np
import pytest

from combsqec import conditions
from combsqec.conditions import (
    ConditionReport,
    Decoder,
    RecoveryRecord,
    RecoveryReport,
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
    syndrome_window,
)
from combsqec.model import (
    INITIAL_MEMORY,
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    check_op,
    compose_K,
    enumerate_trajectories,
    error_op,
)
from combsqec.tensor import LabeledOperator
from combsqec.tolerances import (
    BRANCH_WEIGHT_FLOOR,
    MI_TOL_BITS,
    P_FLOOR,
    RESIDUAL_RTOL,
    WEIGHT_CUTOFF,
)

from conftest import (
    DEPHASING_SIGNS,
    dephasing_instance,
    env_bitflip_instance,
    env_dephasing_instance,
    noisy_errors,
    pauli_string,
    random_kraus_set,
    random_matrix,
    rng_for,
    table_entries,
)

CORPUS_SEEDS = tuple(range(100))


@pytest.fixture(scope="module")
def corpus():
    return [random_instance(seed) for seed in CORPUS_SEEDS]


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
    """Unsymmetrized Lambda_m over every branch (o, e, eps) of the dense
    table, zero ones included: entry (b', b) is
    Tr(B^dag K_b'^dag K_b B) / code_dim, cell by cell."""
    dense = DenseTable(code, errors)
    blocks = dense.blocks[memory]
    raw = np.zeros((len(blocks), len(blocks)), dtype=complex)
    for a, left in enumerate(blocks):
        for b, right in enumerate(blocks):
            raw[a, b] = np.trace(left.conj().T @ right) / dense.code_dim
    return raw


class TestLambdaTensor:
    def test_hexagon_cross_terms_vanish(self):
        # each reached memory holds one branch per error sequence
        inst = hexagon_honeycomb()
        report = check_algebraic(inst.code, inst.errors)
        assert len(list(inst.errors.sequences())) == 2
        cross = max(
            abs(lam[0, 1]) for lam in report.detail["lambda"].values() if len(lam)
        )
        assert cross <= 1e-9
        assert report.worst_residual <= 1e-9

    def test_hexagon_support_is_eight_memories(self):
        # each Z error reaches 8 of the 64 memories (the round-1 outcome
        # +++ and the 8 round-2 outcomes), the same 8 for both errors; the
        # other 56 memories have an empty support and an empty Lambda
        inst = hexagon_honeycomb()
        detail = check_algebraic(inst.code, inst.errors).detail
        reached = [m for m, branches in detail["support"].items() if branches]
        assert len(reached) == 8 and len(detail["memories"]) == 64
        for m, branches in detail["support"].items():
            assert detail["lambda"][m].shape == (len(branches), len(branches))
            assert tuple(e for _, e, _ in branches) in ((), ((0, 0, 0), (1, 0, 0)))
            assert {(o, eps) for o, _, eps in branches} <= {(tuple(m.split("|")), 0)}

    def test_hexagon_diagonal_sums_to_error_weight(self):
        # trace preservation: summing the diagonal scalar over all
        # branches recovers each error operator's squared weight (1/2)
        inst = hexagon_honeycomb()
        report = check_algebraic(inst.code, inst.errors)
        totals = {e: 0.0 for e in inst.errors.sequences()}
        for m, branches in report.detail["support"].items():
            for a, (_, e, _) in enumerate(branches):
                totals[e] += report.detail["lambda"][m][a, a]
        for total in totals.values():
            assert total == pytest.approx(0.5, abs=1e-10)

    def test_zero_kraus_branch_is_flagged_degenerate(self):
        inst = CheckInstrument(
            {"a": check_op(1, np.eye(2)), "b": check_op(1, np.zeros((2, 2)))}
        )
        update = MemoryUpdate(
            ({("a", INITIAL_MEMORY): "a", ("b", INITIAL_MEMORY): "b"},)
        )
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator(({INITIAL_MEMORY: inst},), update)
        )
        errors = ErrorModel(
            ((error_op(0, np.eye(2)),), (error_op(1, np.eye(2)),))
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
            dense = DenseTable(inst.code, inst.errors)
            for m in report.detail["lambda"]:
                lam = embedded_lambda(report.detail, dense.branches[m], m)
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
        assert report.witness == (0, 0, ((), (1,), 0), ((), (0,), 0), INITIAL_MEMORY)
        assert np.allclose(
            report.detail["lambda"][INITIAL_MEMORY], np.eye(2) / 2.0, atol=1e-12
        )

    def test_round_count_mismatch_rejected(self):
        inst = bitflip_code()
        bad = ErrorModel(
            (
                (error_op(0, np.eye(8)),),
                (error_op(1, np.eye(8)),),
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
            branches = DenseTable(inst.code, inst.errors).branches[INITIAL_MEMORY]
            assert np.allclose(
                embedded_lambda(full.detail, branches, INITIAL_MEMORY),
                static.detail["lambda"],
                atol=1e-10,
            ), inst.name

    @pytest.mark.parametrize("build", [
        *(lambda s=s: dephasing_instance(s) for s in DEPHASING_SIGNS),
        env_dephasing_instance,
    ], ids=["dephasing+-+-", "dephasing++++", "env-dephasing"])
    def test_dephasing_is_not_correctable(self, build):
        # the memory forgets the outcome and no decoder holds the
        # environment: both leave full dephasing, for every Kraus sign
        code, errors = build()
        alg, info = check_algebraic(code, errors), check_info(code, errors)
        assert not alg.correctable and not info.correctable
        assert info.worst_residual == pytest.approx(1.0, abs=1e-12)
        want = math.sqrt(2.0) / (4.0 if code.rounds else 2.0)
        assert alg.worst_residual == pytest.approx(want, abs=1e-12)

    def test_verdict_is_the_residual_against_the_tolerance(self):
        for residual, want in ((0.5, True), (1.0, True), (2.0, False), (math.nan, False)):
            report = ConditionReport(worst_residual=residual, tolerance=1.0, witness=None)
            assert report.correctable is want
        assert json.dumps(report.correctable) == "false"


# ----------------------------------------------------------------------
# batched checkers against the per-cell loops they replaced
# ----------------------------------------------------------------------


class DenseTable:
    """Every branch of an instance, zero ones included, from compose_K.

    The ground truth the library's pruned table is checked against:
    ``full[m][io, ie]`` is K_{e,m,o} B of ``outcomes[m][io]`` and
    ``sequences[ie]``, shape (out_dim * env_dim, code_dim), and
    ``blocks[m][b]`` is its final-environment slice eps, rows
    q * env_dim + eps, of branch ``branches[m][b] = (o, e, eps)``, in
    (o, e, eps) C order.
    """

    def __init__(self, code, errors):
        self.basis = code.codespace.basis
        self.code_dim = code.codespace.dim
        self.sequences = tuple(errors.sequences())
        self.env_dim = env = errors.env_dim(errors.rounds)
        self.out_dim = errors.q_out_dim(errors.rounds)
        grouped = enumerate_trajectories(code.interrogator)
        self.memories = tuple(sorted(grouped))
        self.outcomes = {m: tuple(t.outcomes for t in grouped[m]) for m in self.memories}
        self.full = {
            m: np.array([
                [compose_K(errors, code.interrogator, e, m, o).data @ self.basis
                 for e in self.sequences]
                for o in self.outcomes[m]
            ])
            for m in self.memories
        }
        self.branches = {
            m: [(o, e, eps) for o in self.outcomes[m] for e in self.sequences
                for eps in range(env)]
            for m in self.memories
        }
        self.blocks = {
            m: np.array([
                self.full[m][io, ie][eps::env]
                for io in range(len(self.outcomes[m]))
                for ie in range(len(self.sequences))
                for eps in range(env)
            ])
            for m in self.memories
        }


def embedded_lambda(detail, branches, m):
    """The report's Lambda_m on its support, placed in the grid of ``branches``."""
    pos = [branches.index(b) for b in detail["support"][m]]
    full = np.zeros((len(branches), len(branches)), dtype=complex)
    full[np.ix_(pos, pos)] = detail["lambda"][m]
    return full


def reference_scale(comp):
    """Largest branch norm encountered."""
    worst = 1.0
    for m in comp.memories:
        for mat in comp.blocks[m]:
            worst = max(worst, float(np.linalg.norm(mat, ord=2)))
    return worst


def reference_scalar_fit(t_mat):
    """Least-squares scalar, residual and worst element of T vs lambda*I."""
    k = t_mat.shape[0]
    lam = complex(np.trace(t_mat) / k)
    dev = t_mat - lam * np.eye(k)
    flat = int(np.argmax(np.abs(dev)))
    j, i = divmod(flat, k)
    return lam, float(np.linalg.norm(dev)), (int(i), int(j))


def reference_algebraic_sweep(comp):
    """Worst residual, its witness and the detail table of one sweep.

    Every cell T = B^dag K_b'^dag K_b B over every pair of a memory's
    branches, zero ones included, is fitted on its own.
    """
    worst = -1.0
    witness = None
    lambdas = {}
    degenerate = []
    for m in comp.memories:
        blocks, labels = comp.blocks[m], comp.branches[m]
        per_outcome = blocks.reshape(len(comp.outcomes[m]), -1, blocks[0].size)
        for o, branches in zip(comp.outcomes[m], per_outcome):
            if np.linalg.norm(branches, axis=1).max() <= BRANCH_WEIGHT_FLOOR:
                degenerate.append((m, o))
        lam_m = np.zeros((len(blocks), len(blocks)), dtype=np.complex128)
        for a, left in enumerate(blocks):
            for b, right in enumerate(blocks):
                lam, res, (i, j) = reference_scalar_fit(left.conj().T @ right)
                lam_m[a, b] = lam
                if res > worst:
                    worst = res
                    witness = (i, j, labels[b], labels[a], m)
        lambdas[m] = (lam_m + lam_m.conj().T) / 2.0
        lambdas[m].flags.writeable = False
    detail = {
        "lambda": lambdas,
        "memories": comp.memories,
        "degenerate_branches": tuple(degenerate),
        "scale": reference_scale(comp),
    }
    return float(worst), witness, detail


def reference_verify_recovery(code, errors, decoder, states):
    """Apply interrogation, errors and decoding to codestates.

    For each state and final memory the recovered operator is the sum over
    decoder Kraus D and the memory's branches b of D (K_b psi)
    (K_b psi)^dag D^dag.  The reported weight is the total probability
    arriving at that memory; completion weight counts toward it but
    contributes no fidelity.
    """
    comp = DenseTable(code, errors)
    records = []
    totals = []
    worst = math.inf
    for idx, psi in enumerate(states):
        vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != code.codespace.ambient_dim:
            raise ValueError(
                f"state {idx} has dim {vec.shape[0]}, ambient is "
                f"{code.codespace.ambient_dim}"
            )
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValueError(f"state {idx} is not normalized")
        proj = code.codespace.projector
        if np.linalg.norm(proj @ vec - vec) > 1e-8:
            raise ValueError(f"state {idx} lies outside the codespace")
        logical = code.codespace.basis.conj().T @ vec
        total_weight = 0.0
        for m in comp.memories:
            sigma = np.zeros(
                (code.codespace.ambient_dim, code.codespace.ambient_dim),
                dtype=np.complex128,
            )
            weight = 0.0
            for block in comp.blocks[m]:
                w = block @ logical
                weight += float(np.real(w.conj() @ w))
                for d_op in decoder.kraus[m]:
                    out = d_op @ w
                    sigma += np.outer(out, out.conj())
            if weight > P_FLOOR:
                fid = float(np.real(vec.conj() @ sigma @ vec)) / weight
                worst = min(worst, fid)
                records.append(RecoveryRecord(idx, m, weight, fid))
            total_weight += weight
        totals.append(total_weight)
    return RecoveryReport(
        worst_fidelity=float(worst),
        records=tuple(records),
        total_weights=tuple(totals),
    )


def cell_matrix(comp, witness):
    """T = B^dag K_b'^dag K_b B of the cell a witness names."""
    _, _, b, bp, m = witness
    labels = comp.branches[m]
    return comp.blocks[m][labels.index(bp)].conj().T @ comp.blocks[m][labels.index(b)]


def runner_up(comp, witness):
    """Largest reference residual over every cell but the witness's."""
    _, _, b, bp, m = witness
    best = -1.0
    for mm in comp.memories:
        for bp2 in comp.branches[mm]:
            for b2 in comp.branches[mm]:
                if (b2, bp2, mm) == (b, bp, m):
                    continue
                res = reference_scalar_fit(cell_matrix(comp, (0, 0, b2, bp2, mm)))[1]
                best = max(best, res)
    return best


def sweep_cases(corpus):
    """(name, code, errors) with single and several outcomes per memory.

    The library's windows enter at one and two rounds: at three, the
    per-cell reference loops alone take seconds.
    """
    cases = [(name, inst.code, inst.errors)
             for name, inst in ((n, build_instance(n)) for n in instance_names())
             if not name.startswith("window-")]
    cases += [(inst.name, inst.code, inst.errors) for inst in corpus]
    cases += [(f"merged-{seed}", *merged_instance(seed)) for seed in range(20)]
    cases += [(w.name, w.code, w.errors)
              for w in (syndrome_window(n, last) for n in (1, 2) for last in (False, True))]
    return cases + environment_cases()


def environment_cases():
    """(name, code, errors) whose final environment or forgotten outcomes
    the decoder cannot read."""
    cases = [(f"dephasing{s}", *dephasing_instance(s)) for s in DEPHASING_SIGNS]
    cases.append(("env-dephasing", *env_dephasing_instance()))
    cases.append(("env-bitflip", *env_bitflip_instance()))
    cases.append(("correlated", *correlated_instance()))
    return cases


# the pruned table against compose_K: blocks within this many ulps of the scale
BLOCK_ULPS = 4


def walk_order_blocks(code, errors):
    """Every K_{e,m,o} B keyed by (m, o, e), in the walk's association order.

    An unpruned depth-first pass of plain 2D products: E_{e_0} B first, then
    each check, applied to the system leg of every environment slice, and
    each error round.
    """
    inter = code.interrogator
    blocks = {}

    def descend(r, memory, outcomes, seq, cur):
        if r > inter.rounds:
            blocks[(memory, outcomes, seq)] = cur
            return
        inst = inter.instrument(r, memory)
        env, k = errors.env_dim(r - 1), cur.shape[1]
        for o in inst.outcomes:
            check = inst.kraus[o].data
            reached = (check @ cur.reshape(-1, env * k)).reshape(-1, k)
            nxt = inter.update.next_memory(r, o, memory)
            for j, err in enumerate(errors.round_ops(r)):
                descend(r + 1, nxt, outcomes + (o,), seq + (j,), err.data @ reached)

    for j, err in enumerate(errors.round_ops(0)):
        descend(1, INITIAL_MEMORY, (), (j,), err.data @ code.codespace.basis)
    return blocks


def correlated_instance(seed=7):
    """Two adaptive rounds with an environment of dims 2, 3, 2 between them."""
    rng = rng_for(seed)
    d = 2
    envs = (2, 3, 2)
    rounds = []
    for r in range(3):
        env_in = envs[r - 1] if r else 1
        mats = random_kraus_set(rng, d * envs[r], d * env_in, 2)
        rounds.append(tuple(error_op(r, mat, env_in, envs[r]) for mat in mats))
    instruments, tables, memories = [], [], [INITIAL_MEMORY]
    for r in (1, 2):
        tables.append({(o, m): m + o for o in "ab" for m in memories})
        layer = {}
        for m in memories:
            mats = random_kraus_set(rng, d, d, 2)
            layer[m] = CheckInstrument({"a": check_op(r, mats[0]), "b": check_op(r, mats[1])})
        instruments.append(layer)
        memories = sorted(set(tables[-1].values()))
    code = StrategicCode(
        CodeSpace(d, np.eye(d)[:, :1]),
        Interrogator(tuple(instruments), MemoryUpdate(tuple(tables))),
    )
    return code, ErrorModel(tuple(rounds))


def table_cases():
    """(name, code, errors) the pruned table is checked block by block on."""
    named = [build_instance(name) for name in instance_names()]
    named += [random_instance(seed) for seed in range(200)]
    named += [syndrome_window(n, last) for n in (1, 2) for last in (False, True)]
    cases = [(inst.name, inst.code, inst.errors) for inst in named]
    cases += [(f"merged-{seed}", *merged_instance(seed)) for seed in range(20)]
    return cases + environment_cases()


class TestPrunedTable:
    def test_blocks_match_compose_K(self):
        # every block within BLOCK_ULPS ulps of the scale of compose_K's
        # product, and every block the walk dropped as small: compose_K
        # associates differently, so it may leave ~1e-18 where the walk
        # cancels exactly (48 hexagon branches)
        cases = table_cases()
        cases += [(w.name, w.code, w.errors)
                  for w in (syndrome_window(4), syndrome_window(4, True))]
        for name, code, errors in cases:
            comp = conditions._composed(code, errors)
            bound = BLOCK_ULPS * np.finfo(float).eps * comp.scale()
            built = table_entries(comp, errors.env_dim(errors.rounds))
            if code.rounds < 4:
                dense = DenseTable(code, errors)
                for m in dense.memories:
                    for io, o in enumerate(dense.outcomes[m]):
                        for ie, e in enumerate(dense.sequences):
                            want = dense.full[m][io, ie]
                            got = built.get((m, o, e), np.zeros_like(want))
                            assert np.max(np.abs(got - want)) <= bound, (name, m, o, e)
            else:
                # the dense table has 65,536 blocks here; compare the built ones
                for (m, o, e), got in built.items():
                    want = compose_K(errors, code.interrogator, e, m, o).data @ comp.basis
                    assert np.max(np.abs(got - want)) <= bound, (name, m, o, e)

    def test_dropped_branches_are_exact_zeros(self):
        # in the walk's own association order the table is bitwise exact,
        # it stores no zero slice, and every slice it dropped is exactly zero
        cases = table_cases()
        cases += [(w.name, w.code, w.errors)
                  for w in (syndrome_window(4), syndrome_window(4, True))]
        for name, code, errors in cases:
            comp = conditions._composed(code, errors)
            assert all(comp.blocks[m].any(axis=(1, 2)).all() for m in comp.memories), name
            built = table_entries(comp, errors.env_dim(errors.rounds))
            for key, want in walk_order_blocks(code, errors).items():
                if key in built:
                    assert np.array_equal(built[key], want), (name, key)
                    assert want.any(), (name, key)
                else:
                    assert not want.any(), (name, key)

    def test_full_history_window_builds_one_branch_per_error_sequence(self):
        inst = syndrome_window(5)
        comp = conditions._composed(inst.code, inst.errors)
        n_e = 4**5
        assert len(comp.memories) == n_e
        for m in comp.memories:
            assert len(comp.blocks[m]) == 1
            assert comp.blocks[m].any()
        assert sorted(int(comp.err[m][0]) for m in comp.memories) == list(range(n_e))
        report = check_algebraic(inst.code, inst.errors)
        assert report.correctable and report.worst_residual == 0.0

    def test_cap_counts_built_branches(self, monkeypatch):
        inst = bitflip_code()
        monkeypatch.setattr(conditions, "TRAJECTORY_CAP", 3)
        with pytest.raises(ValueError, match="4 composed branches exceed the cap 3"):
            conditions._Composed(inst.code, inst.errors)
        # the two-round last-syndrome window: 16 error sequences, 256 blocks
        # in a dense table, 16 of them nonzero; its second round builds 64
        # check branches and 16 error branches, and the cap bounds that
        window = syndrome_window(2, True)
        monkeypatch.setattr(conditions, "TRAJECTORY_CAP", 79)
        with pytest.raises(ValueError, match="80 composed branches exceed the cap 79"):
            conditions._Composed(window.code, window.errors)
        monkeypatch.setattr(conditions, "TRAJECTORY_CAP", 80)
        comp = conditions._Composed(window.code, window.errors)
        assert sum(int(comp.blocks[m].any(axis=(1, 2)).sum()) for m in comp.memories) == 16

    @pytest.mark.parametrize("last, accepted", [(1.0, True), (2.0, False)])
    def test_weight_cap_names_the_error_round(self, last, accepted):
        # error round 0, 2^249 I on both codewords, leaves weight 2^499,
        # half the cap; error round 1, last * I, keeps it there or doubles
        # it past the cap.  Below the cap every square the checkers form
        # stays finite, and the suite fails on a numpy overflow warning.
        interro = Interrogator(
            ({"": CheckInstrument({"a": check_op(1, np.eye(2))})},),
            MemoryUpdate(({("a", ""): "m"},)),
        )
        errors = ErrorModel(
            ((error_op(0, 2.0**249 * np.eye(2)),), (error_op(1, last * np.eye(2)),)),
            require_trace_nonincreasing=False,
        )
        code = StrategicCode(CodeSpace(2, np.eye(2)), interro)
        assert conditions._WEIGHT_CAP == 2.0**500
        if accepted:
            assert check_algebraic(code, errors).correctable
            assert check_info(code, errors).correctable
            decoder = synth_decoder_schmidt(code, errors)
            report = verify_recovery(code, errors, decoder, [np.eye(2)[0]])
            assert report.worst_fidelity == pytest.approx(1.0)
        else:
            with pytest.raises(ValueError, match="error round 1: .* weight is 6.547e\\+150"):
                check_algebraic(code, errors)


class TestBatchedAgainstLoops:
    def assert_sweep_matches(self, code, errors, name):
        comp = conditions._composed(code, errors)
        dense = DenseTable(code, errors)
        worst, witness, detail = conditions._algebraic_sweep(comp)
        ref_worst, ref_witness, ref_detail = reference_algebraic_sweep(dense)
        scale = ref_detail["scale"]
        assert abs(detail["scale"] - scale) <= BLOCK_ULPS * np.finfo(float).eps * scale
        margin = 1e-12 * scale
        assert (worst <= RESIDUAL_RTOL * scale) == (
            ref_worst <= RESIDUAL_RTOL * scale
        ), name
        assert abs(worst - ref_worst) <= margin, name
        assert detail["degenerate_branches"] == ref_detail["degenerate_branches"], name
        assert set(detail["support"]) == set(ref_detail["lambda"]), name
        for m, lam in ref_detail["lambda"].items():
            got = embedded_lambda(detail, dense.branches[m], m)
            assert np.max(np.abs(got - lam)) <= 1e-12, (name, m)
        # the witness is a worst cell, and its (i, j) a worst entry of it
        t_mat = cell_matrix(dense, witness)
        _, res, _ = reference_scalar_fit(t_mat)
        assert abs(res - ref_worst) <= margin, name
        i, j = witness[:2]
        dev = np.abs(t_mat - np.trace(t_mat) / t_mat.shape[0] * np.eye(t_mat.shape[0]))
        assert dev[j, i] >= np.max(dev) - margin, name
        if ref_worst - runner_up(dense, ref_witness) > margin:
            assert witness[2:] == ref_witness[2:], name

    def test_algebraic_sweep_matches_loop(self, corpus):
        for name, code, errors in sweep_cases(corpus):
            self.assert_sweep_matches(code, errors, name)

    def test_several_outcomes_per_memory_are_covered(self):
        comp = conditions._composed(*merged_instance(0))
        assert max(len(outs) for outs in comp.outcomes.values()) > 1

    def test_zero_residual_names_the_first_cell(self):
        # every cell fits exactly, so the witness is the first cell of the
        # first memory, though that memory's one branch does not hold error
        # sequence 0
        inst = syndrome_window(1)
        first, *rest = inst.errors.kraus_rounds
        errors = ErrorModel((tuple(reversed(first)), *rest))
        report = check_algebraic(inst.code, errors)
        assert report.worst_residual == 0.0
        first = (("00",), (3, 0), 0)
        assert report.detail["support"]["00"] == (first,)
        assert report.witness == (0, 0, first, first, "00")
        assert reference_algebraic_sweep(DenseTable(inst.code, errors))[0] == 0.0

    def test_recovery_matches_sigma_loop(self, corpus):
        for name, code, errors in sweep_cases(corpus):
            dec = synth_decoder_algebraic(code, errors, require_correctable=False)
            states = codestates(code, 3, seed=409)
            got = verify_recovery(code, errors, dec, states)
            want = reference_verify_recovery(code, errors, dec, states)
            assert [(r.state_index, r.memory) for r in got.records] == [
                (r.state_index, r.memory) for r in want.records
            ], name
            for r, w in zip(got.records, want.records):
                assert abs(r.weight - w.weight) <= 1e-12, name
                assert abs(r.fidelity - w.fidelity) <= 1e-12, name
            assert np.allclose(got.total_weights, want.total_weights, rtol=0, atol=1e-12)
            assert abs(got.worst_fidelity - want.worst_fidelity) <= 1e-12, name

    def test_static_checker_matches_loop(self, corpus):
        cases = [bitflip_code(), bitflip_code("z")]
        cases += [inst for inst in corpus if inst.code.rounds == 0]
        for inst in cases:
            mats = [op.data for op in inst.errors.round_ops(0)]
            report = check_static_kl(inst.code.codespace, mats)
            basis = inst.code.codespace.basis
            blocks = [mat @ basis for mat in mats]
            fits = {
                (a, b): reference_scalar_fit(blocks[a].conj().T @ blocks[b])
                for a in range(len(blocks))
                for b in range(len(blocks))
            }
            ref_worst = max(res for _, res, _ in fits.values())
            margin = 1e-12 * report.detail["scale"]
            assert abs(report.worst_residual - ref_worst) <= margin, inst.name
            assert fits[report.witness[2:]][1] >= ref_worst - margin, inst.name
            for (a, b), (lam, _, _) in fits.items():
                assert abs(report.detail["lambda"][a, b] - lam) <= 1e-12, inst.name


# ----------------------------------------------------------------------
# joint states and the entropic checker
# ----------------------------------------------------------------------


def reference_joint_state(code, errors):
    """Dense rho_RME per memory, the assembly the entropic checker replaced.

    Each block is the unnormalized joint state of the reference and the
    outcome and error registers, the latter holding the final environment
    slice too, with index order (i, b) for branch b = (o, e, eps).  It
    carries the 1/code_dim prefactor of the maximally entangled reference.
    """
    comp = DenseTable(code, errors)
    k = comp.code_dim
    rho_rme = {}
    for m in comp.memories:
        blocks = comp.blocks[m]           # (n_b, out, k)
        n_b = len(blocks)
        flat = np.transpose(blocks, (1, 0, 2)).reshape(comp.out_dim, n_b * k)
        gram = (flat.conj().T @ flat / k).reshape(n_b, k, n_b, k)
        # element [(i, b), (i', b')] = <K_b' i' | K_b i> / k: the
        # unconjugated gram side becomes the row index.
        rho = np.transpose(gram, (3, 2, 1, 0))
        rho_rme[m] = rho.reshape(k * n_b, k * n_b)
    return rho_rme


def rho_r(rho, k):
    """Unnormalized reference marginal of a dense rho_RME block."""
    n = rho.shape[0] // k
    return np.einsum("ixjx->ij", rho.reshape(k, n, k, n))


def rho_me(rho, k):
    """Unnormalized outcome-and-error-register marginal."""
    n = rho.shape[0] // k
    return np.einsum("ixiy->xy", rho.reshape(k, n, k, n))


def reference_deficit(rho, k):
    """P(m) and log2 k + S(ME) - S(RME) from the dense eigenvalues.

    The deficit is None at or below the weight floor.
    """
    p = float(np.real(np.trace(rho)))
    if p <= P_FLOOR:
        return p, None

    def bits(mat):
        # a trace-one PSD matrix's eigenvalues, those <= 1e-12 as zero
        tr = np.trace(mat / p).real
        assert abs(tr - 1.0) <= 1e-8
        vals = np.linalg.eigvalsh(mat / p) / tr
        assert vals.min() >= -1e-8
        vals = vals[vals > 1e-12]
        return float(-np.sum(vals * np.log2(vals)))

    return p, math.log2(k) + bits(rho_me(rho, k)) - bits(rho)


def reference_polar_decoder(basis, out_dim, columns):
    """Per memory, the polar isometry of the horizontally stacked blocks.

    Each entry of ``columns[m]`` is an (out_dim, code_dim) block; block a of
    the isometry, mapped back through the codespace basis, is Kraus a.
    """
    k = basis.shape[1]
    kraus = {}
    for m, blocks in columns.items():
        if not blocks:
            kraus[m] = ()
            continue
        u, _, vh = np.linalg.svd(np.hstack(blocks), full_matrices=False)
        iso = u @ vh
        kraus[m] = tuple(
            basis @ iso[:, a * k : (a + 1) * k].conj().T for a in range(len(blocks))
        )
    return Decoder(output_dim=basis.shape[0], input_dim=out_dim, kraus=kraus)


def reference_schmidt_decoder(code, errors, rho_rme):
    """The Schmidt decoder built from eigh of the dense rho_ME.

    Projects the branch amplitudes onto each register eigenvector above
    the cutoff and raises on non-uniform projected norms, as the library
    did before it read the Schmidt vectors from an SVD.
    """
    comp = DenseTable(code, errors)
    k = comp.code_dim
    columns = {}
    for m in comp.memories:
        chi = np.transpose(comp.blocks[m], (1, 0, 2))          # (out, n_b, k)
        vals, vecs = np.linalg.eigh(rho_me(rho_rme[m], k))
        columns[m] = []
        for q_alpha, u_alpha in zip(vals[::-1], vecs[:, ::-1].T):
            if q_alpha <= WEIGHT_CUTOFF:
                continue
            w = np.tensordot(u_alpha.conj(), chi, axes=([0], [1]))  # (out, k)
            norms = np.linalg.norm(w, axis=0)
            if float(np.max(np.abs(norms**2 - q_alpha))) > 1e-6 * max(1.0, q_alpha):
                raise ValueError("Schmidt-rank inconsistency")
            columns[m].append(w / math.sqrt(q_alpha))
    return reference_polar_decoder(comp.basis, comp.out_dim, columns)


def reference_algebraic_blocks(code, errors):
    """Per memory, the algebraic decoder's blocks from eigh of Lambda_m.

    Rotates the branches K_b B by every eigenvector of weight above the
    cutoff and divides by the root of its eigenvalue, as the library did
    before it read the directions off an SVD.  Lambda_m is the Gram matrix
    of the dense table's branches over code_dim.
    """
    comp = DenseTable(code, errors)
    columns = {}
    for m in comp.memories:
        blocks = comp.blocks[m]  # (n_b, out, k)
        flat = blocks.reshape(len(blocks), -1)
        vals, vecs = np.linalg.eigh(flat.conj() @ flat.T / comp.code_dim)
        columns[m] = [
            np.tensordot(v, blocks, axes=([0], [0])) / math.sqrt(d)
            for d, v in zip(vals[::-1], vecs[:, ::-1].T)
            if d > WEIGHT_CUTOFF
        ]
    return columns


def decoder_channel(kraus, shape):
    """The Choi-like sum of |D_a>><<D_a| over a memory's Kraus list."""
    vecs = np.array(kraus, dtype=complex).reshape(len(kraus), shape[0] * shape[1])
    return vecs.T @ vecs.conj()


def schmidt_sectors(code, errors):
    """The library's per-memory (p, deficit, spectrum, vectors) product."""
    return conditions._composed(code, errors).product(
        "schmidt", conditions._schmidt_sectors
    )


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
            {memory: CheckInstrument({"a": check_op(r, mats[0]), "b": check_op(r, mats[1])})}
        )
        memory = nxt
    rounds = []
    for r in range(n_rounds + 1):
        count = int(rng.integers(1, 3))
        ops = random_kraus_set(rng, d, d, count)
        rounds.append(tuple(error_op(r, op) for op in ops))
    return (
        StrategicCode(
            codespace, Interrogator(tuple(instruments), MemoryUpdate(tuple(tables)))
        ),
        ErrorModel(tuple(rounds)),
    )



def reference_cases():
    """Named (code, errors) pairs the entropic product is checked on."""
    cases = []
    for name in instance_names():
        if name.startswith("window-"):
            continue  # three rounds: the dense rho_RME alone takes seconds
        inst = build_instance(name)
        cases.append((name, inst.code, inst.errors))
    for seed in range(48):
        inst = random_instance(seed)
        cases.append((inst.name, inst.code, inst.errors))
    for seed in range(20):
        cases.append((f"merged-{seed}", *merged_instance(seed)))
    spacetime = build_instance("spacetime")
    for eps in (1e-7, 1e-5, 1e-3):
        cases.append((f"noisy-{eps}", spacetime.code, noisy_errors(spacetime.errors, eps)))
    for rounds in (1, 2):
        for last_only in (False, True):
            inst = syndrome_window(rounds, last_only)
            cases.append((inst.name, inst.code, inst.errors))
    return cases + environment_cases()


class TestJointState:
    def test_identity_channel_maximally_mixed_reference(self):
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator((), MemoryUpdate(()))
        )
        errors = ErrorModel(((error_op(0, np.eye(2)),),))
        rho = reference_joint_state(code, errors)
        assert list(rho) == [INITIAL_MEMORY]
        assert np.allclose(rho[INITIAL_MEMORY], np.eye(2) / 2.0, atol=1e-12)
        sectors = schmidt_sectors(code, errors)
        assert list(sectors) == [INITIAL_MEMORY]
        p, deficit, spectrum, _ = sectors[INITIAL_MEMORY]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert deficit == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(spectrum, [1.0], atol=1e-12)

    def test_bitflip_joint_state_is_maximally_mixed(self):
        # orthogonal error branches on orthogonal codewords: the joint
        # reference-register state is exactly I/8, so rho_ME is I/4
        inst = bitflip_code()
        rho = reference_joint_state(inst.code, inst.errors)
        assert np.allclose(rho[INITIAL_MEMORY], np.eye(8) / 8.0, atol=1e-12)
        p, deficit, spectrum, _ = schmidt_sectors(inst.code, inst.errors)[
            INITIAL_MEMORY
        ]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert deficit == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(spectrum, np.full(4, 0.25), atol=1e-12)

    def test_assembly_matches_elementwise_oracle(self):
        # oracle: rebuild each matrix element from individually composed
        # branch vectors with explicit row-major index arithmetic, for the
        # dense reference and for the library's Schmidt decomposition
        # rho_{Q R} = sum_alpha q_alpha |u_alpha><u_alpha| over (q, i)
        inst = random_instance(3, rounds=2, adaptive=True)
        code, errors = inst.code, inst.errors
        rho = reference_joint_state(code, errors)
        sectors = schmidt_sectors(code, errors)
        comp = DenseTable(code, errors)
        basis = code.codespace.basis
        k = code.codespace.dim
        for m in comp.memories:
            outs = comp.outcomes[m]
            seqs = comp.sequences
            n_o, n_e = len(outs), len(seqs)
            vecs = {}
            for io, o in enumerate(outs):
                for ie, e in enumerate(seqs):
                    kb = compose_K(errors, code.interrogator, e, m, o).data @ basis
                    for i in range(k):
                        vecs[(i, io, ie)] = kb[:, i]

            def flat(i, io, ie):
                return (i * n_o + io) * n_e + ie

            dim = k * n_o * n_e
            out = comp.out_dim
            expected = np.zeros((dim, dim), dtype=complex)
            expected_qr = np.zeros((out * k, out * k), dtype=complex)
            for (i, io, ie), v in vecs.items():
                for (j, jo, je), w in vecs.items():
                    expected[flat(i, io, ie), flat(j, jo, je)] = (w.conj() @ v) / k
                    if (io, ie) == (jo, je):
                        expected_qr[i::k, j::k] += np.outer(v, w.conj()) / k
            assert np.allclose(rho[m], expected, atol=1e-12)
            _, _, spectrum, vectors = sectors[m]
            got_qr = (vectors * spectrum) @ vectors.conj().T
            assert np.allclose(got_qr, expected_qr, atol=1e-12)

    def test_blocks_are_psd_and_weights_total_one(self):
        for inst in (bitflip_code(), hexagon_honeycomb()):
            rho = reference_joint_state(inst.code, inst.errors)
            for block in rho.values():
                assert np.min(np.linalg.eigvalsh(block)) >= -1e-12
            weights = check_info(inst.code, inst.errors).detail["weights"]
            assert set(weights) == set(rho)
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-10)

    def test_sectors_match_dense_reference(self):
        # deficits and weights within 1e-12 of the dense eigenvalues, the
        # squared singular values are the nonzero spectrum of rho_ME, and
        # Schmidt synthesis succeeds exactly where the eigh construction
        # does, with the same Kraus counts and recovery fidelity
        for name, code, errors in reference_cases():
            k = code.codespace.dim
            rho = reference_joint_state(code, errors)
            sectors = schmidt_sectors(code, errors)
            report = check_info(code, errors)
            assert list(sectors) == list(rho), name
            worst_ref = -math.inf
            for m, (p, deficit, spectrum, _) in sectors.items():
                p_ref, deficit_ref = reference_deficit(rho[m], k)
                assert p == pytest.approx(p_ref, abs=1e-12), (name, m)
                assert report.detail["weights"][m] == p
                if deficit_ref is not None:
                    assert deficit == pytest.approx(deficit_ref, abs=1e-12), (name, m)
                    assert report.detail["deficit_bits"][m] == deficit
                    worst_ref = max(worst_ref, deficit_ref)
                eig = np.sort(np.linalg.eigvalsh(rho_me(rho[m], k)))[::-1]
                assert spectrum.size <= eig.size
                padded = np.zeros(eig.size)
                padded[: spectrum.size] = spectrum
                assert np.allclose(padded, eig, atol=1e-12), (name, m)
            assert report.correctable == (worst_ref <= MI_TOL_BITS), name
            try:
                want = reference_schmidt_decoder(code, errors, rho)
            except ValueError:
                want = None
            if want is None or worst_ref > MI_TOL_BITS:
                with pytest.raises(ValueError):
                    synth_decoder_schmidt(code, errors)
                continue
            got = synth_decoder_schmidt(code, errors)
            for m in sectors:
                assert len(got.kraus[m]) == len(want.kraus[m]), (name, m)
            states = codestates(code, 3, seed=409)
            fid = verify_recovery(code, errors, got, states).worst_fidelity
            ref = verify_recovery(code, errors, want, states).worst_fidelity
            assert fid == pytest.approx(ref, abs=1e-12), name


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
        inst = CheckInstrument({
            "0": check_op(1, np.diag([1.0, 0.0])),
            "1": check_op(1, np.diag([0.0, 1.0])),
        })
        update = MemoryUpdate(
            ({("0", INITIAL_MEMORY): "0", ("1", INITIAL_MEMORY): "1"},)
        )
        code = StrategicCode(
            CodeSpace(2, np.eye(2)), Interrogator(({INITIAL_MEMORY: inst},), update)
        )
        errors = ErrorModel(
            ((error_op(0, np.eye(2)),), (error_op(1, np.eye(2)),))
        )
        rho = reference_joint_state(code, errors)
        for block in rho.values():
            p = float(np.real(np.trace(block)))
            plain_mi = (
                entropy_bits(rho_r(block, 2) / p)
                + entropy_bits(rho_me(block, 2) / p)
                - entropy_bits(block / p)
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


class TestSyndromeWindow:
    @pytest.mark.parametrize("last_only,correctable", [(False, True), (True, False)])
    def test_entropic_checker_is_free_of_the_dense_cap(
        self, monkeypatch, last_only, correctable
    ):
        # last-syndrome sectors have k * n_o * n_e = 2 * 4 * 16 = 128 > 64;
        # the verdicts are the hand-derived ones of syndrome_window
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "64")
        inst = syndrome_window(2, last_only)
        assert inst.expected_correctable is correctable
        assert check_info(inst.code, inst.errors).correctable is correctable
        assert check_algebraic(inst.code, inst.errors).correctable is correctable


# ----------------------------------------------------------------------
# decoder synthesis and recovery
# ----------------------------------------------------------------------


class TestDecoderType:
    def test_trivial_identity_decoder(self):
        dec = Decoder(output_dim=2, input_dim=2, kraus={INITIAL_MEMORY: (np.eye(2),)})
        assert dec.memories() == (INITIAL_MEMORY,)

    def test_completeness_violation_rejected(self):
        # sum of D^dag D = 4 I exceeds the identity
        with pytest.raises(ValueError, match="not a projector"):
            Decoder(output_dim=2, input_dim=2, kraus={INITIAL_MEMORY: (2.0 * np.eye(2),)})

    def test_non_projector_completion_rejected(self):
        # sum of D^dag D = I / 2 leaves the completion I / 2
        with pytest.raises(ValueError, match="not a projector"):
            Decoder(
                output_dim=2,
                input_dim=2,
                kraus={INITIAL_MEMORY: (np.eye(2) / math.sqrt(2.0),)},
            )

    def test_list_kraus_is_stored_as_a_complex_matrix(self):
        dec = Decoder(output_dim=2, input_dim=2, kraus={"": ([[1, 0], [0, 1]],)})
        (d,) = dec.kraus[""]
        assert d.dtype == np.complex128 and np.array_equal(d, np.eye(2))

    def test_object_dtype_kraus(self):
        # numbers held as objects convert; anything else names its memory
        numbers = np.array([[1, 0], [0, 1]], dtype=object)
        dec = Decoder(output_dim=2, input_dim=2, kraus={"m": (numbers,)})
        assert dec.kraus["m"][0].dtype == np.complex128
        for bad in (np.array([[{}, 0], [0, 1]], dtype=object), [[1, 0], [0]]):
            with pytest.raises(ValueError, match="memory 'm' is not a complex matrix"):
                Decoder(output_dim=2, input_dim=2, kraus={"m": (bad,)})
        with pytest.raises(ValueError, match="memory 'm' has wrong shape"):
            Decoder(output_dim=2, input_dim=2, kraus={"m": (np.eye(3, dtype=object),)})
        # None converts to nan, which no projector test passes
        with pytest.raises(ValueError, match="memory 'm': sum of D"):
            Decoder(
                output_dim=2,
                input_dim=2,
                kraus={"m": (np.array([[None, 0], [0, 1]], dtype=object),)},
            )

    def test_kraus_are_read_only_copies(self):
        k = np.eye(2, dtype=np.complex128)
        dec = Decoder(output_dim=2, input_dim=2, kraus={"": (k,)})
        k[0, 0] = 5
        stored = dec.kraus[""][0]
        assert stored[0, 0] == 1
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 5

    def test_empty_list_passes_beside_a_rejected_non_projector(self):
        # an empty list is P = 0, a projector, and is not tested
        dec = Decoder(output_dim=2, input_dim=2, kraus={"a": (), "b": (np.eye(2),)})
        assert dec.kraus["a"] == ()
        with pytest.raises(ValueError, match="memory 'b': sum of D\\^dag D is not a projector"):
            Decoder(output_dim=2, input_dim=2, kraus={"a": (), "b": (2.0 * np.eye(2),)})

    def test_hexagon_projector_test_runs_once_per_memory_with_a_kraus_list(
        self, linalg_calls
    ):
        # 4 of the 64 memories carry weight; the others get an empty list,
        # which costs no norm and no SVD
        inst = hexagon_honeycomb()
        for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
            synth(inst.code, inst.errors)  # builds the table and its products
            linalg_calls.clear()
            dec = synth(inst.code, inst.errors)
            assert len(dec.kraus) == 64
            assert sum(1 for ops in dec.kraus.values() if ops) == 4
            assert linalg_calls["norm"] == 4, synth
            assert linalg_calls["svd"] == 4, synth


class TestSynthesis:
    def test_rejects_not_correctable(self):
        inst = bitflip_code("z")
        cases = [(inst.code, inst.errors), env_dephasing_instance()]
        cases += [dephasing_instance(s) for s in DEPHASING_SIGNS]
        for code, errors in cases:
            with pytest.raises(ValueError, match="not correctable"):
                synth_decoder_algebraic(code, errors)
            with pytest.raises(ValueError, match="not correctable"):
                synth_decoder_schmidt(code, errors)

    def test_nontrivial_final_environment_decodes_exactly(self):
        # the error round writes which qubit flipped into a 4-dim
        # environment: each slice is one branch, and the code corrects them
        code, errors = env_bitflip_instance()
        assert errors.env_dim(errors.rounds) == 4
        assert check_algebraic(code, errors).correctable
        assert check_info(code, errors).correctable
        states = codestates(code, 5, seed=415)
        for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
            dec = synth(code, errors)
            assert dec.input_dim == 8
            report = verify_recovery(code, errors, dec, states)
            assert len(report.records) == 5
            assert report.worst_fidelity >= 1.0 - 1e-9, synth
            assert np.allclose(report.total_weights, 1.0, rtol=0, atol=1e-12)

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

    def test_best_effort_algebraic_decoder_runs_no_sweep(self, monkeypatch):
        # only require_correctable reads the verdict, so only it sweeps
        calls = []
        real = conditions._algebraic_sweep
        monkeypatch.setattr(
            conditions, "_algebraic_sweep", lambda *a: calls.append(a) or real(*a)
        )
        inst = bitflip_code("z")
        synth_decoder_algebraic(inst.code, inst.errors, require_correctable=False)
        assert calls == []
        with pytest.raises(ValueError, match="not correctable"):
            synth_decoder_algebraic(inst.code, inst.errors)
        assert len(calls) == 1

    def test_algebraic_matches_lambda_eigh_construction(self):
        # per memory, the decoder channel read off the SVD of the stacked
        # K_{e,m} B equals the one built from eigh of Lambda_m, on
        # correctable and failing instances alike (best effort).  Where a
        # memory's stack is rank-deficient its polar factor is not unique,
        # so there the two decoders must recover every state equally well.
        named = [build_instance(name) for name in instance_names()]
        named += [random_instance(seed) for seed in range(200)]
        named += [syndrome_window(n) for n in (1, 2)]
        cases = [(inst.name, inst.code, inst.errors) for inst in named]
        cases += [(f"merged-{seed}", *merged_instance(seed)) for seed in range(20)]
        compared, deficient = 0, []
        for name, code, errors in cases + environment_cases():
            got = synth_decoder_algebraic(code, errors, require_correctable=False)
            comp = DenseTable(code, errors)
            columns = reference_algebraic_blocks(code, errors)
            want = reference_polar_decoder(comp.basis, comp.out_dim, columns)
            shape = (got.output_dim, got.input_dim)
            assert got.memories() == want.memories(), name
            for m in got.memories():
                assert len(got.kraus[m]) == len(want.kraus[m]), (name, m)
                if not want.kraus[m]:
                    continue
                stack = np.hstack(columns[m])
                if np.linalg.matrix_rank(stack) < min(stack.shape):
                    deficient.append((name, m))
                    continue
                diff = decoder_channel(got.kraus[m], shape) - decoder_channel(
                    want.kraus[m], shape
                )
                assert np.max(np.abs(diff)) <= 1e-10, (name, m)
            if deficient and deficient[-1][0] == name:
                states = codestates(code, 10, seed=412)
                got_rep = verify_recovery(code, errors, got, states)
                want_rep = verify_recovery(code, errors, want, states)
                for g, w in zip(got_rep.records, want_rep.records, strict=True):
                    assert g.fidelity == pytest.approx(w.fidelity, abs=1e-12), name
            compared += 1
        assert compared > 150
        # bitflip-z's one memory and all four of window-last's
        assert [name for name, _ in deficient] == ["bitflip-z"] + ["window-last"] * 4
        inst = syndrome_window(3)
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        states = codestates(inst.code, 5, seed=411)
        report = verify_recovery(inst.code, inst.errors, dec, states)
        assert report.worst_fidelity >= 1.0 - 1e-9

    def test_schmidt_builds_one_joint_state(self, monkeypatch):
        # one Schmidt product per table feeds both the verdict and the
        # decoder, and the decoder recovers like the dense-reference one
        calls = []
        real = conditions._schmidt_sectors

        def counted(comp):
            calls.append(comp)
            return real(comp)

        monkeypatch.setattr(conditions, "_schmidt_sectors", counted)
        inst = bitflip_code()
        dec = synth_decoder_schmidt(inst.code, inst.errors)
        check_info(inst.code, inst.errors)
        assert len(calls) == 1
        want = reference_schmidt_decoder(
            inst.code, inst.errors, reference_joint_state(inst.code, inst.errors)
        )
        states = codestates(inst.code, 3, seed=410)
        assert verify_recovery(inst.code, inst.errors, dec, states).worst_fidelity == (
            pytest.approx(
                verify_recovery(inst.code, inst.errors, want, states).worst_fidelity,
                abs=1e-12,
            )
        )
        # the verdict still comes from the same entropic report
        z = bitflip_code("z")
        with pytest.raises(ValueError, match="not correctable"):
            synth_decoder_schmidt(z.code, z.errors)
        assert len(calls) == 2


class TestVerifyRecovery:
    def test_environment_slices_are_summed_incoherently(self):
        # basis dephasing into the environment, or into outcomes the memory
        # forgets, halves the fidelity of |+> under an identity recovery:
        # each slice and each outcome is a branch of its own, where a
        # coherent sum would wrongly report 1 or, with cancelling signs, no
        # arriving weight at all
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        basis_state = np.array([1.0, 0.0])
        cases = [env_dephasing_instance()] + [dephasing_instance(s) for s in DEPHASING_SIGNS]
        for code, errors in cases:
            memory = code.interrogator.final_memories[0]
            dec = Decoder(output_dim=2, input_dim=2, kraus={memory: (np.eye(2),)})
            report = verify_recovery(code, errors, dec, [plus])
            assert report.worst_fidelity == pytest.approx(0.5, abs=1e-12)
            assert report.total_weights[0] == pytest.approx(1.0, abs=1e-12)
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

    def test_membership_needs_no_ambient_projector(self, monkeypatch):
        inst = bitflip_code()
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        states = codestates(inst.code, 3, seed=413)
        want = verify_recovery(inst.code, inst.errors, dec, states)

        def ambient_square(_):
            raise AssertionError("formed the ambient x ambient projector")

        monkeypatch.setattr(CodeSpace, "projector", property(ambient_square))
        got = verify_recovery(inst.code, inst.errors, dec, states)
        assert got.worst_fidelity == want.worst_fidelity
        assert got.total_weights == want.total_weights

    def test_outside_state_named_by_index(self):
        inst = bitflip_code()
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        outside = np.zeros(8)
        outside[1] = 1.0
        states = [*codestates(inst.code, 2, seed=414), outside]
        with pytest.raises(ValueError, match="state 2 lies outside the codespace"):
            verify_recovery(inst.code, inst.errors, dec, states)

    def test_decoder_missing_a_final_memory_rejected(self):
        bitflip = bitflip_code()
        dec = synth_decoder_algebraic(bitflip.code, bitflip.errors)
        inst = build_instance("spacetime")
        states = codestates(inst.code, 1, seed=411)
        missing = sorted(set(inst.code.interrogator.final_memories) - set(dec.kraus))
        with pytest.raises(ValueError, match=f"final memory {missing[0]!r}"):
            verify_recovery(inst.code, inst.errors, dec, states)

    def test_decoder_dimension_mismatch_rejected(self):
        inst = bitflip_code()
        states = codestates(inst.code, 1, seed=412)
        small = Decoder(output_dim=2, input_dim=2, kraus={INITIAL_MEMORY: (np.eye(2),)})
        with pytest.raises(ValueError, match="decoder maps dim 2 to 2"):
            verify_recovery(inst.code, inst.errors, small, states)

    def test_no_states_give_an_empty_report(self):
        inst = bitflip_code()
        dec = synth_decoder_algebraic(inst.code, inst.errors)
        report = verify_recovery(inst.code, inst.errors, dec, [])
        assert report.records == () and report.total_weights == ()
        assert report.worst_fidelity == math.inf

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


class TestHexagonEmptyMemories:
    """Hexagon has 64 final memories: branches reach 8, and 4 carry weight."""

    def test_unreached_memories_hold_an_empty_read_only_stack(self):
        inst = hexagon_honeycomb()
        comp = conditions._composed(inst.code, inst.errors)
        unreached = [m for m in comp.memories if not len(comp.blocks[m])]
        assert len(comp.memories) == 64 and len(unreached) == 56
        for m in unreached:
            blocks = comp.blocks[m]
            assert blocks is comp.blocks[unreached[0]]
            assert blocks.shape == (0, comp.out_dim, comp.code_dim)
            assert blocks.dtype == np.complex128 and not blocks.flags.writeable
            for index in (comp.row[m], comp.err[m], comp.eps[m]):
                assert index.shape == (0,) and index.dtype == np.intp
                assert not index.flags.writeable
            assert comp.support(m) == ()

    def test_decoders_skip_unreached_and_rounding_only_memories(self):
        # 60 memories get no Kraus operator: the 56 no branch reaches, and
        # 4 reached ones whose ~1e-17 blocks give no Schmidt weight above
        # WEIGHT_CUTOFF; each of the other 4 gets 2
        inst = hexagon_honeycomb()
        comp = conditions._composed(inst.code, inst.errors)
        sectors = comp.product("schmidt", conditions._schmidt_sectors)
        unreached = {m for m in comp.memories if not len(comp.blocks[m])}
        rounding = {
            m for m in comp.memories
            if m not in unreached and np.max(sectors[m][2]) <= WEIGHT_CUTOFF
        }
        assert len(rounding) == 4
        for synth in (synth_decoder_algebraic, synth_decoder_schmidt):
            dec = synth(inst.code, inst.errors)
            empty = {m for m, ops in dec.kraus.items() if not ops}
            assert empty == unreached | rounding, synth
            weighted = [ops for ops in dec.kraus.values() if ops]
            assert len(weighted) == 4
            for ops in weighted:
                assert len(ops) == 2
                assert all(d.shape == (comp.basis.shape[0], comp.out_dim) for d in ops)


class TestTableDims:
    def test_round_dims_must_chain(self):
        inst = build_instance("spacetime")
        ops = inst.errors.kraus_rounds
        wide = ErrorModel(
            (ops[0], (error_op(1, np.eye(8)[:, :4] / 1.0),), ops[2]),
            require_trace_nonincreasing=False,
        )
        with pytest.raises(ValueError, match="dim mismatch feeding check round 2"):
            check_algebraic(inst.code, wide)
        narrow = ErrorModel(
            (ops[0], (error_op(1, np.eye(2)),), ops[2]),
            require_trace_nonincreasing=False,
        )
        with pytest.raises(ValueError, match="dim mismatch feeding error round 1"):
            check_algebraic(inst.code, narrow)
        small = ErrorModel(((error_op(0, np.eye(2)),),))
        with pytest.raises(ValueError, match="dim mismatch feeding error round 0"):
            check_algebraic(bitflip_code().code, small)
        with pytest.raises(ValueError, match="error model spans 1 rounds, interrogator 2"):
            check_algebraic(inst.code, ErrorModel(ops[:2]))


# ----------------------------------------------------------------------
# Kraus phases: the channel, not its Kraus representation, decides
# ----------------------------------------------------------------------


def last_outcome_mats(seed):
    """Matrices of a random one-qubit, two-round instance whose memory
    keeps only the last outcome: a codespace basis, per round and memory
    the outcomes' check Kraus operators, and per error round its Kraus
    operators with environment dims (env_in, env_out)."""
    rng = rng_for(seed)
    k = int(rng.integers(1, 3))
    basis = np.linalg.qr(random_matrix(rng, 2, 2))[0][:, :k]
    checks = [
        {m: dict(zip("ab", random_kraus_set(rng, 2, 2, 2))) for m in memories}
        for memories in ((INITIAL_MEMORY,), ("a", "b"))
    ]
    envs = [1, *(int(e) for e in rng.integers(1, 3, size=3))]
    # an isometry needs count * env_out >= env_in
    errors = [
        (random_kraus_set(rng, 2 * envs[r + 1], 2 * envs[r],
                          max(int(rng.integers(1, 3)), envs[r] // envs[r + 1])),
         envs[r], envs[r + 1])
        for r in range(3)
    ]
    return basis, checks, errors


def last_outcome_instance(basis, checks, errors):
    instruments = tuple(
        {m: CheckInstrument({o: check_op(r, mat) for o, mat in outs.items()})
         for m, outs in per_round.items()}
        for r, per_round in enumerate(checks, start=1)
    )
    tables = tuple({(o, m): o for m in per_round for o in "ab"} for per_round in checks)
    code = StrategicCode(
        CodeSpace(2, basis), Interrogator(instruments, MemoryUpdate(tables))
    )
    return code, ErrorModel(tuple(
        tuple(error_op(r, mat, env_in, env_out) for mat in mats)
        for r, (mats, env_in, env_out) in enumerate(errors)
    ))


def with_phase(mats, seed):
    """``mats`` with one outcome's or one error's Kraus operator times a
    unit phase."""
    rng = rng_for(10_000 + seed)
    basis, checks, errors = mats
    phase = np.exp(2j * np.pi * rng.random())
    checks = [{m: dict(outs) for m, outs in per_round.items()} for per_round in checks]
    errors = [(list(ops), env_in, env_out) for ops, env_in, env_out in errors]
    if rng.random() < 0.5:
        outs = checks[int(rng.integers(2))]
        outs = outs[sorted(outs)[int(rng.integers(len(outs)))]]
        o = "ab"[int(rng.integers(2))]
        outs[o] = phase * outs[o]
    else:
        ops = errors[int(rng.integers(3))][0]
        j = int(rng.integers(len(ops)))
        ops[j] = phase * ops[j]
    return basis, checks, errors


class TestKrausPhases:
    SEEDS = range(200)

    def test_reports_ignore_kraus_phases(self):
        for seed in self.SEEDS:
            mats = last_outcome_mats(seed)
            code, errors = last_outcome_instance(*mats)
            states = codestates(code, 3, seed=416)
            got = []
            for c, e in ((code, errors), last_outcome_instance(*with_phase(mats, seed))):
                alg, info = check_algebraic(c, e), check_info(c, e)
                dec = synth_decoder_algebraic(c, e, require_correctable=False)
                got.append((alg, info, verify_recovery(c, e, dec, states)))
            (alg, info, rec), (alg2, info2, rec2) = got
            assert alg.correctable == alg2.correctable, seed
            assert alg.worst_residual == pytest.approx(alg2.worst_residual, abs=1e-12), seed
            for m, lam in alg.detail["lambda"].items():
                assert np.allclose(
                    np.linalg.eigvalsh(lam), np.linalg.eigvalsh(alg2.detail["lambda"][m]),
                    rtol=0, atol=1e-12,
                ), (seed, m)
            assert info.correctable == info2.correctable, seed
            deficits = info.detail["deficit_bits"]
            assert deficits.keys() == info2.detail["deficit_bits"].keys(), seed
            for m, d in deficits.items():
                assert d == pytest.approx(info2.detail["deficit_bits"][m], abs=1e-9), (seed, m)
            assert [(r.state_index, r.memory) for r in rec.records] == [
                (r.state_index, r.memory) for r in rec2.records
            ], seed
            for r, r2 in zip(rec.records, rec2.records):
                assert r.fidelity == pytest.approx(r2.fidelity, abs=1e-9), seed

    def test_recovery_weights_total_one(self):
        # every instance here is trace-preserving
        gaps = []
        for seed in self.SEEDS:
            code, errors = last_outcome_instance(*last_outcome_mats(seed))
            dec = synth_decoder_algebraic(code, errors, require_correctable=False)
            report = verify_recovery(code, errors, dec, codestates(code, 3, seed=417))
            gaps.extend(abs(w - 1.0) for w in report.total_weights)
        assert max(gaps) <= 1e-12
