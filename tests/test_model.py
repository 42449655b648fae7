"""Tests for the strategic-code data model and comb constructions."""

import gc
import pathlib
import re

import numpy as np
import pytest

from combsqec.combs import ChoiOperator, CombSignature, link_product, validate_comb
import combsqec
from combsqec.conditions import _Composed
from combsqec.library import build_instance, instance_names
from combsqec.model import (
    INITIAL_MEMORY,
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    Trajectory,
    check_op,
    comb_vector,
    comb_vector_dense,
    compose_K,
    count_trajectories,
    enumerate_trajectories,
    env_label,
    error_comb,
    error_comb_vector,
    error_op,
    interrogator_operator,
    q_label,
    qp_label,
)
from combsqec.tensor import LabeledOperator, permute_subsystems, vectorize

from conftest import (
    env_bitflip_instance, random_kraus_set, random_state, rng_for, table_entries,
)


def instrument_from_sets(r, mats):
    return CheckInstrument({o: check_op(r, m) for o, m in mats.items()})


def random_instrument(rng, r, d_in, d_out, outcomes):
    mats = random_kraus_set(rng, d_out, d_in, len(outcomes))
    return instrument_from_sets(r, dict(zip(outcomes, mats)))


def stored_outcome_update(alphabets):
    """Memory update that appends each outcome to the memory string."""
    tables = []
    prev_memories = [INITIAL_MEMORY]
    for outcomes in alphabets:
        table = {}
        nxt = []
        for m in prev_memories:
            for o in outcomes:
                table[(o, m)] = m + "|" + o if m else o
                nxt.append(table[(o, m)])
        tables.append(table)
        prev_memories = nxt
    return MemoryUpdate(tuple(tables))


def forgetful_update(alphabets):
    """Memory update that keeps the memory state constant."""
    tables = []
    prev = {INITIAL_MEMORY}
    for outcomes in alphabets:
        tables.append({(o, m): m for m in prev for o in outcomes})
    return MemoryUpdate(tuple(tables))


def random_tp_error_model(rng, q_dims, env_dims, counts):
    """TP error model: q_dims[r] -> q_dims[r+1], env chain env_dims (env in at round 0 is 1)."""
    rounds = []
    for r in range(len(counts)):
        q_in, q_out = q_dims[r], q_dims[r + 1]
        env_in = 1 if r == 0 else env_dims[r - 1]
        env_out = env_dims[r]
        mats = random_kraus_set(rng, q_out * env_out, q_in * env_in, counts[r])
        rounds.append(
            tuple(error_op(r, m, env_in, env_out) for m in mats)
        )
    return ErrorModel(tuple(rounds))


def tensordot_chain(errors, error_seq):
    """Error comb vector by tensordot over each shared environment, then
    moving the new (q_r, q_rp, e_r) axes into place."""
    op0 = errors.round_ops(0)[error_seq[0]].data
    cur = op0.reshape(errors.q_out_dim(0), errors.env_dim(0), -1).transpose(2, 0, 1)
    for r in range(1, errors.rounds + 1):
        block = errors.round_ops(r)[error_seq[r]].data.reshape(
            errors.q_out_dim(r), errors.env_dim(r), errors.q_in_dim(r), errors.env_dim(r - 1))
        cur = np.tensordot(cur, block, axes=([cur.ndim - 1], [3]))
        n = cur.ndim
        cur = np.moveaxis(cur, (n - 3, n - 2, n - 1), (n - 2, n - 1, n - 3))
    return cur.reshape(-1)


def two_round_adaptive(rng, d=2):
    """Adaptive 2-round qubit interrogator: round-2 instrument depends on m1."""
    r1 = random_instrument(rng, 1, d, d, ("a", "b"))
    r2 = {
        "a": random_instrument(rng, 2, d, d, ("a", "b")),
        "b": random_instrument(rng, 2, d, d, ("a", "b")),
    }
    update = MemoryUpdate(
        (
            {("a", ""): "a", ("b", ""): "b"},
            {(o, m): m + o for m in ("a", "b") for o in ("a", "b")},
        )
    )
    return Interrogator(({INITIAL_MEMORY: r1}, r2), update)


class TestCodeSpace:
    def test_orthonormal_basis_accepted(self):
        basis = np.zeros((4, 2))
        basis[0, 0] = 1.0
        basis[3, 1] = 1.0
        cs = CodeSpace(4, basis)
        assert cs.dim == 2
        proj = cs.projector
        assert np.allclose(proj @ proj, proj)
        assert np.allclose(np.trace(proj), 2.0)

    def test_non_orthonormal_rejected(self):
        basis = np.ones((2, 2)) / np.sqrt(2)
        with pytest.raises(ValueError, match="orthonormal"):
            CodeSpace(2, basis)

    def test_wrong_ambient_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            CodeSpace(3, np.eye(2))


class TestCheckInstrument:
    def test_complete_instrument_accepted(self):
        rng = rng_for(1)
        inst = random_instrument(rng, 1, 2, 2, ("x", "y", "z"))
        assert inst.outcomes == ("x", "y", "z")
        assert all((k.col_dim, k.row_dim) == (2, 2) for k in inst.kraus.values())

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError, match="not complete"):
            CheckInstrument({"o": check_op(1, np.eye(2) / 2)})

    def test_signature_mismatch_rejected(self):
        ops = {
            "a": check_op(1, np.eye(2) / np.sqrt(2)),
            "b": LabeledOperator(
                (("Q1", 3),), (("Q0p", 2),), np.zeros((3, 2))
            ),
        }
        with pytest.raises(ValueError, match="signature differs"):
            CheckInstrument(ops)


def test_only_the_model_spells_out_round_labels():
    # every other module builds round operators through check_op/error_op
    # and reads round dims from Interrogator.round_dims
    call = re.compile(r"\b(q_label|qp_label|env_label)\(")
    package = pathlib.Path(combsqec.__file__).parent
    offenders = [
        f"{path.name}: {match.group(0)}"
        for path in sorted(package.glob("*.py"))
        if path.name != "model.py"
        for match in call.finditer(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


class TestRoundOperators:
    @pytest.mark.parametrize("r", [1, 2])
    def test_check_op_labels(self, r):
        op = check_op(r, np.ones((3, 2)))
        assert op.row_subsystems == ((f"Q{r}", 3),)
        assert op.col_subsystems == ((f"Q{r - 1}p", 2),)

    @pytest.mark.parametrize("env", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_error_op_labels(self, r, env):
        env_in = env if r else 1
        op = error_op(r, np.ones((3 * env, 2 * env_in)), env_in, env)
        assert op.row_subsystems == ((f"Q{r}p", 3), (f"E{r}", env))
        env_col = ((f"E{r - 1}", env_in),) if r else ()
        assert op.col_subsystems == ((f"Q{r}", 2),) + env_col

    def test_error_op_needs_divisible_dims(self):
        with pytest.raises(ValueError, match=r"^row count 3 not divisible by env_out 2$"):
            error_op(1, np.ones((3, 4)), 2, 2)
        with pytest.raises(
            ValueError,
            match=r"^column count 3 not divisible by the incoming environment dim 2$",
        ):
            error_op(1, np.ones((4, 3)), 2, 2)


class TestMemoryUpdate:
    def test_fold(self):
        update = stored_outcome_update((("p", "q"), ("p", "q")))
        assert update.fold(("q", "p")) == ("q", "q|p")

    def test_missing_entry_raises(self):
        update = MemoryUpdate(({("a", ""): "m"},))
        with pytest.raises(KeyError, match="no entry"):
            update.fold(("b",))

    def test_wrong_length_raises(self):
        update = MemoryUpdate(({("a", ""): "m"},))
        with pytest.raises(ValueError, match="expected 1 outcomes"):
            update.fold(("a", "a"))


class TestInterrogator:
    def test_reachability_and_finals(self, rng):
        interro = two_round_adaptive(rng)
        assert interro.rounds == 2
        assert interro.reachable[0] == frozenset({""})
        assert interro.reachable[1] == frozenset({"a", "b"})
        assert interro.final_memories == ("aa", "ab", "ba", "bb")

    def test_round_dims_are_input_output_pairs(self, rng):
        r1 = random_instrument(rng, 1, 2, 3, ("a", "b"))
        r2 = {m: random_instrument(rng, 2, 3, 4, ("a",)) for m in "ab"}
        update = MemoryUpdate(
            ({("a", ""): "a", ("b", ""): "b"}, {("a", "a"): "a", ("a", "b"): "b"})
        )
        interro = Interrogator(({INITIAL_MEMORY: r1}, r2), update)
        assert interro.round_dims == ((2, 3), (3, 4))
        assert Interrogator((), MemoryUpdate(())).round_dims == ()

    @pytest.mark.parametrize("name", instance_names())
    def test_library_round_dims(self, name):
        interro = build_instance(name).code.interrogator
        expected = {
            "bitflip": (),
            "bitflip-z": (),
            "hexagon": ((64, 64),) * 2,
            "spacetime": ((4, 4),) * 2,
            "window-full": ((8, 8),) * 3,
            "window-last": ((8, 8),) * 3,
        }[name]
        assert interro.round_dims == expected
        for r, table in enumerate(interro.instruments, start=1):
            for inst in table.values():
                for k in inst.kraus.values():
                    assert (k.col_dim, k.row_dim) == interro.round_dims[r - 1]

    def test_missing_instrument_rejected(self, rng):
        r1 = random_instrument(rng, 1, 2, 2, ("a", "b"))
        r2 = {"a": random_instrument(rng, 2, 2, 2, ("a",))}
        update = MemoryUpdate(
            ({("a", ""): "a", ("b", ""): "b"}, {("a", "a"): "a", ("a", "b"): "b"})
        )
        with pytest.raises(ValueError, match="no round-2 instrument"):
            Interrogator(({INITIAL_MEMORY: r1}, r2), update)

    def test_missing_update_entry_rejected(self, rng):
        r1 = random_instrument(rng, 1, 2, 2, ("a", "b"))
        update = MemoryUpdate(({("a", ""): "a"},))
        with pytest.raises(KeyError, match="no entry"):
            Interrogator(({INITIAL_MEMORY: r1},), update)

    @pytest.mark.parametrize("op", [
        check_op(2, np.eye(2)),  # Q1p -> Q2: complete, but a round-2 operator
        LabeledOperator((("Q5", 2),), (("Q0p", 2),), np.eye(2)),
    ], ids=["round-2", "Q5"])
    def test_instrument_of_another_round_rejected(self, op):
        inst = CheckInstrument({"o": op})
        update = MemoryUpdate(({("o", ""): ""},))
        with pytest.raises(ValueError, match="round-1 instrument for memory state '' must map"):
            Interrogator(({INITIAL_MEMORY: inst},), update)

    def test_dim_disagreement_across_memories_rejected(self, rng):
        r1 = random_instrument(rng, 1, 2, 2, ("a", "b"))
        r2 = {
            "a": random_instrument(rng, 2, 2, 2, ("a",)),
            "b": random_instrument(rng, 2, 2, 3, ("a",)),
        }
        update = MemoryUpdate(
            ({("a", ""): "a", ("b", ""): "b"}, {("a", "a"): "a", ("a", "b"): "b"})
        )
        with pytest.raises(ValueError, match="disagree on dims"):
            Interrogator(({INITIAL_MEMORY: r1}, r2), update)


class TestEnumerateTrajectories:
    def test_single_outcome_rounds(self, rng):
        insts = []
        update_tables = []
        for r in (1, 2):
            insts.append({INITIAL_MEMORY: random_instrument(rng, r, 2, 2, ("u",))})
            update_tables.append({("u", ""): ""})
        interro = Interrogator(tuple(insts), MemoryUpdate(tuple(update_tables)))
        grouped = enumerate_trajectories(interro)
        assert list(grouped) == [""]
        assert grouped[""] == (Trajectory(("u", "u"), ("", "")),)

    def test_forgetful_update_full_product_alphabet(self, rng):
        alphabets = (("a", "b"), ("x", "y", "z"))
        insts = (
            {"": random_instrument(rng, 1, 2, 2, alphabets[0])},
            {"": random_instrument(rng, 2, 2, 2, alphabets[1])},
        )
        interro = Interrogator(insts, forgetful_update(alphabets))
        grouped = enumerate_trajectories(interro)
        assert list(grouped) == [""]
        seqs = {t.outcomes for t in grouped[""]}
        assert seqs == {(a, x) for a in alphabets[0] for x in alphabets[1]}

    def test_stored_outcomes_eight_by_eight(self, rng):
        # the hexagon shape: 2 rounds, 8 outcomes each, outcomes fully stored
        outs = tuple(f"s{k}" for k in range(8))
        mats = {o: np.eye(2) / np.sqrt(8) for o in outs}
        update = stored_outcome_update((outs, outs))
        r1 = instrument_from_sets(1, mats)
        r2 = {m: instrument_from_sets(2, mats) for m in outs}
        interro = Interrogator(({"": r1}, r2), update)
        grouped = enumerate_trajectories(interro)
        assert len(grouped) == 64
        assert all(len(v) == 1 for v in grouped.values())
        assert count_trajectories(interro) == 64

    def test_partition_property(self, rng):
        interro = two_round_adaptive(rng)
        grouped = enumerate_trajectories(interro)
        all_seqs = [t.outcomes for group in grouped.values() for t in group]
        assert len(all_seqs) == len(set(all_seqs)) == 4
        assert set(all_seqs) == {(a, b) for a in "ab" for b in "ab"}
        # memory trajectories recorded and consistent with the update
        for m, group in grouped.items():
            for t in group:
                assert t.final_memory == m
                assert interro.update.fold(t.outcomes) == t.memories

    def test_cap_rejection_reports_count(self, rng):
        outs = tuple(f"s{k}" for k in range(8))
        mats = {o: np.eye(2) / np.sqrt(8) for o in outs}
        update = stored_outcome_update((outs, outs))
        r1 = instrument_from_sets(1, mats)
        r2 = {m: instrument_from_sets(2, mats) for m in outs}
        interro = Interrogator(({"": r1}, r2), update)
        with pytest.raises(ValueError, match="64 outcome sequences exceed"):
            enumerate_trajectories(interro, cap=10)

    @pytest.mark.parametrize("walk", [count_trajectories, enumerate_trajectories])
    def test_walk_leaves_no_cyclic_garbage(self, walk):
        # a self-referencing recursive closure would keep the interrogator
        # and the partial results alive until the next garbage collection
        interro = build_instance("hexagon").code.interrogator
        gc.collect()
        gc.disable()
        try:
            walk(interro)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCombVector:
    def test_single_round_factor(self, rng):
        inst = random_instrument(rng, 1, 2, 2, ("a", "b"))
        interro = Interrogator(
            ({"": inst},), MemoryUpdate(({("a", ""): "a", ("b", ""): "b"},))
        )
        factors = comb_vector(interro, "b", ("b",))
        assert len(factors) == 1
        assert factors[0] is inst.kraus["b"]

    def test_adaptive_factor_switches_with_memory(self, rng):
        interro = two_round_adaptive(rng)
        fa = comb_vector(interro, "ab", ("a", "b"))
        fb = comb_vector(interro, "bb", ("b", "b"))
        assert fa[1] is interro.instrument(2, "a").kraus["b"]
        assert fb[1] is interro.instrument(2, "b").kraus["b"]

    def test_wrong_final_memory_rejected(self, rng):
        interro = two_round_adaptive(rng)
        with pytest.raises(ValueError, match="folds to memory"):
            comb_vector(interro, "bb", ("a", "b"))

    def test_dense_equals_literal_kron(self, rng):
        # round-l factor first: |C>> = |C2>> (x) |C1>>
        interro = two_round_adaptive(rng)
        factors = comb_vector(interro, "ab", ("a", "b"))
        dense = comb_vector_dense(interro, "ab", ("a", "b"))
        expected = np.kron(
            factors[1].data.reshape(-1), factors[0].data.reshape(-1)
        )
        assert dense.row_subsystems == (
            ("Q2", 2), ("Q1p", 2), ("Q1", 2), ("Q0p", 2)
        )
        assert np.allclose(dense.data.reshape(-1), expected, atol=1e-12)

    def test_zero_rounds(self):
        interro = Interrogator((), MemoryUpdate(()))
        assert comb_vector(interro, INITIAL_MEMORY, ()) == []
        dense = comb_vector_dense(interro, INITIAL_MEMORY, ())
        assert dense.row_subsystems == ()
        assert dense.data.shape == (1, 1)
        assert dense.data[0, 0] == 1.0


class TestInterrogatorOperator:
    def test_deterministic_rounds_rank_one(self, rng):
        insts = []
        tables = []
        for r in (1, 2):
            (mat,) = random_kraus_set(rng, 2, 2, 1)
            insts.append({"": instrument_from_sets(r, {"u": mat})})
            tables.append({("u", ""): ""})
        interro = Interrogator(tuple(insts), MemoryUpdate(tuple(tables)))
        choi = interrogator_operator(interro, "")
        vals = np.linalg.eigvalsh(choi.op.data)
        assert np.sum(vals > 1e-10) == 1

    def test_psd(self, rng):
        interro = two_round_adaptive(rng)
        for m in interro.final_memories:
            choi = interrogator_operator(interro, m)
            low = np.linalg.eigvalsh(choi.op.data)[0]
            assert low >= -1e-10

    def test_total_is_valid_comb(self, rng):
        # causality: summing over final memories gives a deterministic comb
        interro = two_round_adaptive(rng)
        total = None
        subs = None
        for m in interro.final_memories:
            choi = interrogator_operator(interro, m)
            if total is None:
                total = np.array(choi.op.data)
                subs = choi.op.row_subsystems
            else:
                total = total + permute_subsystems(
                    choi.op, tuple(s[0] for s in subs)
                ).data
        combined = ChoiOperator(
            LabeledOperator(subs, subs, total),
            input_labels=("Q0p", "Q1p"),
            output_labels=("Q1", "Q2"),
        )
        sig = CombSignature((("Q0p", "Q1"), ("Q1p", "Q2")))
        report = validate_comb(combined, sig)
        assert report.valid
        assert report.normalization == pytest.approx(1.0, abs=1e-8)

    def test_cap_rejection_advises_factored(self, rng, monkeypatch):
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "8")
        interro = two_round_adaptive(rng)
        with pytest.raises(ValueError, match="factored"):
            interrogator_operator(interro, "aa")


class TestComposeK:
    def test_zero_rounds_returns_error_op(self, rng):
        model = random_tp_error_model(rng, (2, 2), (2,), (3,))
        interro = Interrogator((), MemoryUpdate(()))
        k = compose_K(model, interro, (1,), INITIAL_MEMORY, ())
        assert np.allclose(k.data, model.round_ops(0)[1].data)
        assert k.row_labels == ("Q0p", "E0")
        assert k.col_labels == ("Q0",)

    def test_tp_completeness_over_all_branches(self, rng):
        # sum over memories, outcomes and error sequences preserves the norm
        interro = two_round_adaptive(rng)
        model = random_tp_error_model(rng, (2, 2, 2, 2), (2, 2, 2), (2, 2, 2))
        psi = random_state(rng, 2)
        total = 0.0
        for m, group in enumerate_trajectories(interro).items():
            for traj in group:
                for e in model.sequences():
                    k = compose_K(model, interro, e, m, traj.outcomes).data
                    vec = k @ psi
                    total += float(np.real(vec.conj() @ vec))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_dense_link_product_trivial_env(self, rng):
        # one qubit, two check rounds, uncorrelated errors
        interro = two_round_adaptive(rng)
        model = random_tp_error_model(rng, (2, 2, 2, 2), (1, 1, 1), (2, 2, 2))
        self._assert_link_match(interro, model, e=(1, 0, 1), m="ba", o=("b", "a"))

    def test_matches_dense_link_product_correlated(self, rng):
        # one check round, environment of dimension 2 chained through
        inst = random_instrument(rng, 1, 2, 2, ("a", "b"))
        interro = Interrogator(
            ({"": inst},), MemoryUpdate(({("a", ""): "a", ("b", ""): "b"},))
        )
        model = random_tp_error_model(rng, (2, 2, 2), (2, 2), (2, 3))
        self._assert_link_match(interro, model, e=(1, 2), m="a", o=("a",))

    @staticmethod
    def _assert_link_match(interro, model, e, m, o):
        l = interro.rounds
        evec = error_comb_vector(model, e)
        e_outer = ChoiOperator(
            LabeledOperator(
                evec.row_subsystems,
                evec.row_subsystems,
                evec.data @ evec.data.conj().T,
            ),
            input_labels=tuple(q_label(r) for r in range(l + 1)),
            output_labels=tuple(qp_label(r) for r in range(l + 1))
            + (env_label(l),),
        )
        cvec = comb_vector_dense(interro, m, o)
        c_outer = ChoiOperator(
            LabeledOperator(
                cvec.row_subsystems,
                cvec.row_subsystems,
                cvec.data @ cvec.data.conj().T,
            ),
            input_labels=tuple(qp_label(r) for r in range(l)),
            output_labels=tuple(q_label(r) for r in range(1, l + 1)),
        )
        linked = link_product(e_outer, c_outer)
        k = compose_K(model, interro, e, m, o)
        kvec = vectorize(k)
        k_outer = LabeledOperator(
            kvec.row_subsystems,
            kvec.row_subsystems,
            kvec.data @ kvec.data.conj().T,
        )
        target = permute_subsystems(k_outer, linked.op.row_labels)
        assert linked.op.row_subsystems == target.row_subsystems
        assert np.allclose(linked.op.data, target.data, atol=1e-9)

    def test_dim_mismatch_names_round(self, rng):
        inst = random_instrument(rng, 1, 2, 2, ("a",))
        interro = Interrogator(({"": inst},), MemoryUpdate(({("a", ""): ""},)))
        model = random_tp_error_model(rng, (2, 3, 2), (1, 1), (2, 2))
        with pytest.raises(ValueError, match="check round 1"):
            compose_K(model, interro, (0, 0), "", ("a",))

    def test_error_index_out_of_range(self, rng):
        model = random_tp_error_model(rng, (2, 2), (1,), (2,))
        interro = Interrogator((), MemoryUpdate(()))
        with pytest.raises(ValueError, match="out of range at round 0"):
            compose_K(model, interro, (5,), INITIAL_MEMORY, ())

    def test_table_matches_kron_lift_reference_bitwise(self, rng):
        # compose_K skips the lift of a dim-1 environment, bitwise harmlessly;
        # the table applies each check in the walk's association order
        # (E_{e_0} B first), bitwise equal to a kron-lifted reference in that
        # order where every environment has dim 1, and within 4 ulps of the
        # scale where the walk applies checks to the system leg of a wider one
        def kron_always(errors, interro, e, m, o, start):
            # every check lifted by the environment identity, even of dim 1
            factors = comb_vector(interro, m, o)
            cur = errors.round_ops(0)[e[0]].data @ start
            for r in range(1, errors.rounds + 1):
                lifted = np.kron(factors[r - 1].data, np.eye(errors.env_dim(r - 1)))
                cur = errors.round_ops(r)[e[r]].data @ (lifted @ cur)
            return cur

        inst = random_instrument(rng, 1, 2, 2, ("a", "b"))
        interro = Interrogator(
            ({"": inst},), MemoryUpdate(({("a", ""): "a", ("b", ""): "b"},))
        )
        correlated = random_tp_error_model(rng, (2, 2, 2), (2, 2), (2, 3))
        # the three-round windows' 8,192 blocks are checked in walk order by
        # test_conditions.py::TestPrunedTable
        names = [n for n in instance_names() if not n.startswith("window-")]
        cases = [(i.code, i.errors) for i in map(build_instance, names)]
        cases.append((StrategicCode(CodeSpace(2, np.eye(2)[:, :1]), interro), correlated))
        for code, errors in cases:
            table = _Composed(code, errors)
            basis = table.basis
            bound = 0.0
            if any(errors.env_dim(r) > 1 for r in range(errors.rounds)):
                bound = 4 * np.finfo(float).eps * table.scale()
            blocks = table_entries(table, errors.env_dim(errors.rounds))
            for m, trajs in enumerate_trajectories(code.interrogator).items():
                for o in (t.outcomes for t in trajs):
                    for e in errors.sequences():
                        ref = kron_always(errors, code.interrogator, e, m, o, np.eye(
                            basis.shape[0]))
                        assert np.array_equal(
                            compose_K(errors, code.interrogator, e, m, o).data, ref
                        )
                        walked = kron_always(errors, code.interrogator, e, m, o, basis)
                        got = blocks.get((m, o, e), np.zeros_like(walked))
                        assert np.max(np.abs(got - walked)) <= bound, (m, o, e)


class TestErrorModelEntries:
    # the trace check's matmul meets inf * 0 before it fails closed
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("checked", [True, False])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, checked, value):
        # with the trace check on it fails first, closed on non-finite input
        bad = np.eye(2, dtype=complex) / 2.0
        bad[1, 0] = value
        rounds = (
            (error_op(0, np.eye(2)),),
            (error_op(1, np.eye(2) / 2.0), error_op(1, bad)),
        )
        reason = "not trace non-increasing" if checked else (
            "error round 1 operator 1 has a non-finite entry"
        )
        with pytest.raises(ValueError, match=reason):
            ErrorModel(rounds, require_trace_nonincreasing=checked)


class TestErrorComb:
    def test_identity_rounds_tensor_of_identity_vecs(self):
        eye = np.eye(2, dtype=complex)
        rounds = (
            (error_op(0, eye),),
            (error_op(1, eye),),
        )
        model = ErrorModel(rounds)
        choi = error_comb(model)
        vec = np.kron(np.kron(eye.reshape(-1), eye.reshape(-1)), [1.0])
        expected = np.outer(vec, vec.conj())
        assert choi.op.row_labels == ("Q0", "Q0p", "Q1", "Q1p", "E1")
        assert np.allclose(choi.op.data, expected, atol=1e-12)

    def test_depolarizing_round_gives_half_identity(self):
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        rounds = ((tuple(error_op(0, p / 2.0) for p in paulis)),)
        choi = error_comb(ErrorModel(rounds))
        reduced = choi.op.data
        assert np.allclose(reduced, np.eye(4) / 2.0, atol=1e-12)

    def test_correlated_rank_bounded_by_sequences(self, rng):
        model = random_tp_error_model(rng, (2, 2, 2), (2, 2), (2, 3))
        choi = error_comb(model)
        vals = np.linalg.eigvalsh(choi.op.data)
        assert np.sum(vals > 1e-10) <= 6
        assert vals[0] >= -1e-10

    def test_single_vector_matches_manual_chain(self, rng):
        # contract the environment by explicit summation as an oracle
        model = random_tp_error_model(rng, (2, 2, 2), (2, 2), (2, 2))
        e = (1, 0)
        a = model.round_ops(0)[1].data.reshape(2, 2, 2)        # (q0p, e0, q0)
        b = model.round_ops(1)[0].data.reshape(2, 2, 2, 2)     # (q1p, e1, q1, e0)
        expected = np.zeros((2, 2, 2, 2, 2), dtype=complex)    # (q0,q0p,q1,q1p,e1)
        for q0 in range(2):
            for q0p in range(2):
                for q1 in range(2):
                    for q1p in range(2):
                        for e1 in range(2):
                            expected[q0, q0p, q1, q1p, e1] = sum(
                                a[q0p, e0, q0] * b[q1p, e1, q1, e0]
                                for e0 in range(2)
                            )
        vec = error_comb_vector(model, e)
        assert vec.row_labels == ("Q0", "Q0p", "Q1", "Q1p", "E1")
        assert np.allclose(vec.data.reshape(-1), expected.reshape(-1), atol=1e-12)

    @pytest.mark.parametrize(
        "chain",
        ["env-bitflip", "environments 2, 3, 2", "qubit dims 2, 3, 2, 3"],
    )
    def test_vector_matches_a_tensordot_chain(self, chain):
        rng = rng_for(33)
        model = {
            "env-bitflip": lambda: env_bitflip_instance()[1],
            "environments 2, 3, 2": lambda: random_tp_error_model(
                rng, (2, 2, 2, 2), (2, 3, 2), (2, 1, 2)),
            "qubit dims 2, 3, 2, 3": lambda: random_tp_error_model(
                rng, (2, 3, 2, 3), (3, 2, 2), (1, 3, 1)),
        }[chain]()
        for e in model.sequences():
            vec = error_comb_vector(model, e)
            expected = tensordot_chain(model, e)
            scale = np.linalg.norm(expected)
            assert np.linalg.norm(vec.data.reshape(-1) - expected) <= 1e-12 * scale

    def test_cap_rejection(self, monkeypatch, rng):
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "8")
        model = random_tp_error_model(rng, (2, 2, 2), (1, 1), (2, 2))
        with pytest.raises(ValueError, match="exceeds the cap"):
            error_comb(model)


class TestStrategicCode:
    def test_matching_dims_accepted(self, rng):
        interro = two_round_adaptive(rng)
        code = StrategicCode(CodeSpace(2, np.eye(2)[:, :1]), interro)
        assert code.rounds == 2

    def test_ambient_mismatch_rejected(self, rng):
        interro = two_round_adaptive(rng)
        with pytest.raises(ValueError, match="ambient"):
            StrategicCode(CodeSpace(4, np.eye(4)[:, :2]), interro)
