"""Structure and ground-truth properties of the built-in instances."""

import math

import numpy as np
import pytest

from combsqec.conditions import check_algebraic, check_info
from combsqec.library import (
    bitflip_code,
    build_instance,
    hexagon_honeycomb,
    instance_names,
    random_instance,
    spacetime_toy_circuit,
    syndrome_window,
)
from combsqec.model import (
    INITIAL_MEMORY,
    CheckInstrument,
    compose_K,
    enumerate_trajectories,
)

from conftest import pauli_string


def flip(signs: str, position: int) -> str:
    # 1-based position into a "+-+" style outcome label
    chars = list(signs)
    chars[position - 1] = "+" if chars[position - 1] == "-" else "-"
    return "".join(chars)


def branch_weight(inst, error_seq, memory, outcomes):
    op = compose_K(inst.errors, inst.code.interrogator, error_seq, memory, outcomes)
    return float(np.linalg.norm(op.data @ inst.code.codespace.basis))


class TestBitflip:
    def test_structure(self):
        inst = bitflip_code()
        assert inst.code.codespace.ambient_dim == 8
        assert inst.code.codespace.dim == 2
        assert inst.code.rounds == 0
        zero = np.zeros(8)
        zero[0] = 1.0
        seven = np.zeros(8)
        seven[7] = 1.0
        assert np.allclose(inst.code.codespace.basis[:, 0], zero)
        assert np.allclose(inst.code.codespace.basis[:, 1], seven)
        assert inst.expected_correctable
        assert len(inst.errors.round_ops(0)) == 4

    def test_z_variant(self):
        inst = bitflip_code("z")
        assert not inst.expected_correctable
        assert len(inst.errors.round_ops(0)) == 2
        # scaled logical phase flip in the second slot
        z1 = pauli_string("ZII") / math.sqrt(2.0)
        assert np.allclose(inst.errors.round_ops(0)[1].data, z1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown bitflip variant"):
            bitflip_code("y")


@pytest.fixture(scope="module")
def hexagon():
    return hexagon_honeycomb()


@pytest.fixture(scope="module")
def spacetime():
    return spacetime_toy_circuit()


class TestHexagon:
    @pytest.fixture
    def inst(self, hexagon):
        return hexagon

    def test_codespace_sits_in_stabilizer_eigenspace(self, inst):
        basis = inst.code.codespace.basis
        stabilizers = [
            pauli_string("XXIIII"),
            pauli_string("IIXXII"),
            pauli_string("IIIIXX"),
            pauli_string("ZZZZZZ"),
        ]
        for s in stabilizers:
            assert np.allclose(s @ basis, basis, atol=1e-12)

    def test_memory_stores_the_full_outcome_history(self, inst):
        grouped = enumerate_trajectories(inst.code.interrogator)
        assert len(grouped) == 64
        for memory, trajectories in grouped.items():
            assert len(trajectories) == 1
            o1, o2 = trajectories[0].outcomes
            assert memory == f"{o1}|{o2}"

    def test_first_round_is_deterministic_on_codestates(self, inst):
        basis = inst.code.codespace.basis
        instrument = inst.code.interrogator.instrument(1, INITIAL_MEMORY)
        for outcome in instrument.outcomes:
            mat = instrument.kraus[outcome].data
            if outcome == "+++":
                assert np.linalg.norm(mat @ basis - basis) <= 1e-10
            else:
                assert np.linalg.norm(mat @ basis) <= 1e-10

    def test_single_z_errors_land_in_the_minus_plus_plus_branch(self, inst):
        # both Z errors anticommute with the first XX check and commute
        # with the other two, so round 1 pins them to the same branch
        for seq in ((0, 0, 0), (1, 0, 0)):
            support = set()
            for memory, trajectories in enumerate_trajectories(
                inst.code.interrogator
            ).items():
                if branch_weight(inst, seq, memory, trajectories[0].outcomes) > 1e-9:
                    support.add(memory.split("|")[0])
            assert support == {"-++"}

    def test_second_round_support_shifts_by_a_sign_flip(self, inst):
        basis = inst.code.codespace.basis
        second = inst.code.interrogator.instrument(2, "-++")
        projectors = {o: second.kraus[o].data for o in second.outcomes}
        plain = {
            o for o, p in projectors.items() if np.linalg.norm(p @ basis) > 1e-9
        }
        assert plain == {"---", "-++", "+-+", "++-"}
        z1 = pauli_string("ZIIIII")
        z2 = pauli_string("IZIIII")
        supp_z1 = {
            o for o, p in projectors.items()
            if np.linalg.norm(p @ z1 @ basis) > 1e-9
        }
        supp_z2 = {
            o for o, p in projectors.items()
            if np.linalg.norm(p @ z2 @ basis) > 1e-9
        }
        # Z1 anticommutes only with the YY check on pair (6,1); Z2 only
        # with the YY check on pair (2,3)
        assert supp_z1 == {flip(o, 3) for o in plain}
        assert supp_z2 == {flip(o, 1) for o in plain}

    def test_conjugation_flips_the_anticommuting_check(self, inst):
        z1 = pauli_string("ZIIIII")
        z2 = pauli_string("IZIIII")
        first = inst.code.interrogator.instrument(1, INITIAL_MEMORY)
        second = inst.code.interrogator.instrument(2, "-++")
        for o in first.outcomes:
            p = first.kraus[o].data
            flipped = first.kraus[flip(o, 1)].data
            for z in (z1, z2):
                assert np.allclose(p @ z, z @ flipped, atol=1e-12)
        for o in second.outcomes:
            p = second.kraus[o].data
            assert np.allclose(p @ z1, z1 @ second.kraus[flip(o, 3)].data, atol=1e-12)
            assert np.allclose(p @ z2, z2 @ second.kraus[flip(o, 1)].data, atol=1e-12)

    def test_error_weights_are_trace_preserving(self, inst):
        total = sum(
            op.data.conj().T @ op.data for op in inst.errors.round_ops(0)
        )
        assert np.allclose(total, np.eye(64), atol=1e-12)


class TestSpacetime:
    @pytest.fixture
    def inst(self, spacetime):
        return spacetime

    def test_structure(self, inst):
        assert inst.code.codespace.ambient_dim == 4
        assert inst.code.codespace.dim == 2
        assert inst.code.rounds == 2
        first = inst.code.interrogator.instrument(1, INITIAL_MEMORY)
        assert first.outcomes == ("u",)
        assert inst.code.interrogator.final_memories == ("u|0", "u|1")

    def test_bit_flip_before_the_circuit_flips_the_measurement(self, inst):
        supports = {}
        grouped = enumerate_trajectories(inst.code.interrogator)
        for seq in ((0, 0, 0), (1, 0, 0)):
            supports[seq] = {
                m
                for m, trajectories in grouped.items()
                if branch_weight(inst, seq, m, trajectories[0].outcomes) > 1e-9
            }
        assert supports[(0, 0, 0)] == {"u|0"}
        assert supports[(1, 0, 0)] == {"u|1"}


class TestRandomInstances:
    def test_same_seed_reproduces_identical_arrays(self):
        a = random_instance(17)
        b = random_instance(17)
        assert np.array_equal(a.code.codespace.basis, b.code.codespace.basis)
        for r in range(a.errors.rounds + 1):
            for x, y in zip(a.errors.round_ops(r), b.errors.round_ops(r)):
                assert np.array_equal(x.data, y.data)
        assert a.expected_correctable == b.expected_correctable
        c = random_instance(18)
        assert not np.allclose(a.code.codespace.basis, c.code.codespace.basis)

    def test_memory_is_injective_on_outcome_sequences(self):
        for seed in range(12):
            inst = random_instance(seed)
            grouped = enumerate_trajectories(inst.code.interrogator)
            assert all(len(t) == 1 for t in grouped.values()), seed

    def test_error_models_are_trace_preserving(self):
        for seed in (0, 5, 9):
            inst = random_instance(seed)
            d = inst.code.codespace.ambient_dim
            for r in range(inst.errors.rounds + 1):
                total = sum(
                    op.data.conj().T @ op.data for op in inst.errors.round_ops(r)
                )
                assert np.allclose(total, np.eye(d), atol=1e-9), (seed, r)

    def test_round_and_adaptivity_pinning(self):
        inst = random_instance(2, rounds=2, adaptive=True)
        assert inst.code.rounds == 2
        memories = sorted(inst.code.interrogator.reachable[1])
        assert len(memories) == 2
        ops = [
            inst.code.interrogator.instrument(2, m).kraus["a"].data
            for m in memories
        ]
        assert not np.allclose(ops[0], ops[1])
        shared = random_instance(2, rounds=2, adaptive=False)
        memories = sorted(shared.code.interrogator.reachable[1])
        ops = [
            shared.code.interrogator.instrument(2, m).kraus["a"].data
            for m in memories
        ]
        assert np.array_equal(ops[0], ops[1])
        # one object serves every memory of a non-adaptive round
        assert len({id(shared.code.interrogator.instrument(2, m)) for m in memories}) == 1

    def test_wider_registers(self):
        inst = random_instance(4, qubits=2, rounds=1)
        assert inst.code.codespace.ambient_dim == 4
        assert inst.code.rounds == 1

    def test_note_names_the_shape(self):
        inst = random_instance(6)
        assert inst.name == "random-6"
        assert "rounds" in inst.note


class TestSyndromeWindow:
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4, 5])
    def test_memory_decides_the_verdict(self, rounds):
        # the hand-derived verdicts of the docstring: the full history is
        # always correctable, the last syndrome only for one round
        for last_only in (False, True):
            inst = syndrome_window(rounds, last_only)
            assert inst.expected_correctable == (not last_only or rounds == 1)
            report = check_algebraic(inst.code, inst.errors)
            assert report.correctable == inst.expected_correctable, inst.name
            assert check_info(inst.code, inst.errors).correctable == report.correctable

    def test_same_checks_different_memory(self):
        full, last = syndrome_window(), syndrome_window(last_only=True)
        assert (full.name, last.name) == ("window-full", "window-last")
        assert len(full.code.interrogator.final_memories) == 4**3
        assert len(last.code.interrogator.final_memories) == 4
        for r in range(1, 4):
            a = full.code.interrogator.instrument(r, "00" * (r - 1))
            b = last.code.interrogator.instrument(r, "00" if r > 1 else "")
            for o in a.outcomes:
                assert np.array_equal(a.kraus[o].data, b.kraus[o].data)
        assert syndrome_window(2).name == "window-full-2"
        with pytest.raises(ValueError, match="at least one round"):
            syndrome_window(0)


class TestRegistry:
    def test_names_are_sorted_and_buildable(self):
        names = instance_names()
        assert names == (
            "bitflip", "bitflip-z", "hexagon", "spacetime", "window-full", "window-last"
        )
        for name in names:
            assert build_instance(name).name == name

    @pytest.mark.parametrize("name, validations", [
        ("bitflip", 0), ("bitflip-z", 0), ("hexagon", 2),
        ("spacetime", 2), ("window-full", 3), ("window-last", 3),
    ])
    def test_one_instrument_per_distinct_operator_set(self, name, validations, monkeypatch):
        # every memory of a non-adaptive round shares one validated instrument
        built = []
        post_init = CheckInstrument.__post_init__

        def counted(inst):
            built.append(inst)
            post_init(inst)
        monkeypatch.setattr(CheckInstrument, "__post_init__", counted)
        build_instance(name)
        assert len(built) == validations

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(
            ValueError,
            match="bitflip, bitflip-z, hexagon, spacetime, window-full, window-last",
        ):
            build_instance("nope")
