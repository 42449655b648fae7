"""Optimizer tests: projection, objective, start, coordinate steps, see-saw."""

import itertools
import re

import numpy as np
import pytest

from combsqec.combs import ChoiOperator, link_product
from combsqec.library import (
    bitflip_code,
    build_instance,
    random_instance,
    spacetime_toy_circuit,
)
from combsqec.model import ErrorModel, env_label, error_comb, error_op, q_label, qp_label
from combsqec.optimize import (
    OptimizationState,
    OptimizerConfig,
    TraceRecord,
    coordinate_step,
    ent_fidelity,
    initial_state,
    project_cptp,
    seesaw,
    static_biconvex,
)
from combsqec import optimize
from combsqec.optimize import (
    _Engine,
    _choi_coeff,
    _project_cptp_array,
    _rho_coeff,
    _rw_iterate,
    _superop_from_choi,
    _trace_out,
)
from combsqec.tensor import LabeledOperator, partial_trace, permute_subsystems
from combsqec.tolerances import (
    COMPLETENESS_ATOL, KERNEL_RTOL, PSD_RTOL,
    completeness_residual, completeness_violation, psd_violation, relative_threshold,
    smallest_eigenvalue,
)

from conftest import PAULI, random_kraus_set, random_matrix, random_state, rng_for

X = PAULI["X"]
Z = PAULI["Z"]


def random_tp_round(r, d, count, rng):
    g = rng.standard_normal((d * count, d)) + 1j * rng.standard_normal((d * count, d))
    q, _ = np.linalg.qr(g)
    return tuple(error_op(r, q[i * d : (i + 1) * d, :]) for i in range(count))


def max_ent_choi(d_out, d_in):
    v = np.zeros((d_out, d_in), dtype=complex)
    for i in range(min(d_out, d_in)):
        v[i, i] = 1.0
    return np.outer(v.reshape(-1), v.reshape(-1).conj())


def identity_errors(d, rounds=0):
    return ErrorModel(
        tuple((error_op(r, np.eye(d)),) for r in range(rounds + 1))
    )


def plain_state(errors, encoder, decoders, instruments=(), logical_dim=2):
    """The state of the given factors: ``instruments[r - 1][μ][ν]`` is check
    round r's block, so the memory structure is read off its families."""
    error_rounds = range(errors.rounds + 1)
    dims = tuple(zip(
        (*(errors.q_in_dim(r) for r in error_rounds), logical_dim),
        (logical_dim, *(errors.q_out_dim(r) for r in error_rounds)),
    ))
    factors = (((encoder,),), *instruments, tuple((dec,) for dec in decoders))
    return OptimizationState(dims, factors, fidelity=0.0)


MIXED_QUBIT = np.eye(2, dtype=complex) / 2


@pytest.fixture(scope="module")
def identity_qubit_state():
    errs = identity_errors(2)
    return errs, plain_state(errs, max_ent_choi(2, 2), (max_ent_choi(2, 2),))


# ----------------------------------------------------------------------
# feasibility projection
# ----------------------------------------------------------------------


class TestProjection:
    def test_cptp_fixed_point(self):
        rng = rng_for(5)
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        v, _ = np.linalg.qr(g)
        kraus = [v[i * 2 : (i + 1) * 2, :] for i in range(4)]
        choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kraus)
        assert np.linalg.norm(_project_cptp_array(choi, 2, 2) - choi) < 1e-10

    def test_zero_maps_to_maximally_mixed_channel(self):
        out = _project_cptp_array(np.zeros((6, 6), dtype=complex), 3, 2)
        assert out == pytest.approx(np.eye(6) / 3, abs=1e-9)

    def test_random_hermitian_becomes_cptp(self):
        for seed in range(6):
            rng = rng_for(seed)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2
            out = _project_cptp_array(h, 2, 2)
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-12
            assert np.linalg.norm(_trace_out(out, 2, 2) - np.eye(2)) < 1e-8

    def test_projection_idempotent(self):
        rng = rng_for(9)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        once = _project_cptp_array((g + g.conj().T) / 2, 2, 2)
        twice = _project_cptp_array(once, 2, 2)
        assert np.linalg.norm(twice - once) < 1e-8

    def test_one_eigh_per_sweep_no_diagnostics(self, linalg_calls):
        rng = rng_for(4)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        _project_cptp_array(h, 2, 4)
        sweeps = linalg_calls["eigh"]
        assert linalg_calls["eigvalsh"] == 0
        # converging in exactly that many sweeps: one eigh per sweep
        _project_cptp_array(h, 2, 4, sweeps=sweeps)
        with pytest.raises(ValueError):
            _project_cptp_array(h, 2, 4, sweeps=sweeps - 1)

    def test_nonconvergence_names_both_residuals(self):
        rng = rng_for(4)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(ValueError) as info:
            _project_cptp_array((g + g.conj().T) / 2, 2, 4, sweeps=1)
        found = re.fullmatch(
            r"feasibility projection did not converge in 1 sweeps: "
            r"trace-preservation residual (\S+), PSD residual (\S+)",
            str(info.value),
        )
        assert found is not None
        tp_res, psd_res = (float(v) for v in found.groups())
        assert tp_res > 1e-9
        assert 0.0 < psd_res < np.inf

    def test_sweep_matches_kron_reference_bitwise(self):
        # the textbook sweep: affine step through a kron temporary, two
        # partial traces per sweep, clip via np.clip
        def reference(x, d_out, d_in):
            z = (x + x.conj().T) / 2.0
            correction = np.zeros_like(z)
            for _ in range(500):
                deficit = np.eye(d_in) - _trace_out(z, d_out, d_in)
                y = z + np.kron(np.eye(d_out), deficit) / d_out
                w = y + correction
                vals, vecs = np.linalg.eigh((w + w.conj().T) / 2.0)
                z = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
                correction = w - z
                if np.linalg.norm(_trace_out(z, d_out, d_in) - np.eye(d_in)) <= 1e-9:
                    return z
            raise AssertionError("reference did not converge")

        for seed, (d_out, d_in) in enumerate([(2, 2), (4, 2), (3, 2), (2, 3)]):
            rng = rng_for(seed)
            n = d_out * d_in
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (g + g.conj().T) / 2
            assert np.array_equal(
                _project_cptp_array(h, d_out, d_in), reference(h, d_out, d_in)
            )

    def test_labeled_wrapper_returns_cptp_choi(self):
        rng = rng_for(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = LabeledOperator(
            (("A", 2), ("B", 2)), (("A", 2), ("B", 2)), (g + g.conj().T) / 2
        )
        choi = project_cptp(op, ["A"])
        assert isinstance(choi, ChoiOperator)
        # the library's PSD test, and its completeness test of Tr_out X
        data = choi.op.data
        reduced = partial_trace(choi.op, choi.output_labels).data
        assert psd_violation(data, relative_threshold(PSD_RTOL, data)) is None
        assert completeness_violation(reduced, COMPLETENESS_ATOL) is None
        assert -smallest_eigenvalue(data) <= 1e-8
        assert completeness_residual(reduced) <= 1e-8

    def test_non_hermitian_rejected(self):
        rng = rng_for(1)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = LabeledOperator((("A", 2), ("B", 2)), (("A", 2), ("B", 2)), g)
        with pytest.raises(ValueError, match="Hermitian"):
            project_cptp(op, ["A"])

    def test_unknown_output_label_rejected(self):
        op = LabeledOperator((("A", 2),), (("A", 2),), np.eye(2))
        with pytest.raises(ValueError, match="unknown output labels"):
            project_cptp(op, ["Q"])

    def test_rectangular_rejected(self):
        op = LabeledOperator((("A", 2),), (("B", 2),), np.eye(2))
        with pytest.raises(ValueError, match="identical subsystems"):
            project_cptp(op, ["A"])


# ----------------------------------------------------------------------
# the objective
# ----------------------------------------------------------------------


class TestEntFidelity:
    def test_identity_channel_exact(self, identity_qubit_state):
        errs, state = identity_qubit_state
        assert abs(ent_fidelity(state, errs, MIXED_QUBIT) - 1.0) < 1e-12

    def test_depolarizing_quarter(self, identity_qubit_state):
        _, state = identity_qubit_state
        ops = [
            np.sqrt(1 - 3 / 4) * np.eye(2),
            np.sqrt(1 / 4) * X,
            np.sqrt(1 / 4) * PAULI["Y"],
            np.sqrt(1 / 4) * Z,
        ]
        dep = ErrorModel((tuple(error_op(0, m) for m in ops),))
        f = ent_fidelity(state, dep, MIXED_QUBIT)
        oracle = sum(abs(np.trace(MIXED_QUBIT @ m)) ** 2 for m in ops)
        assert abs(f - 0.25) < 1e-10
        assert abs(f - oracle) < 1e-12

    def test_factored_matches_dense_link_product(self):
        for seed in range(5):
            rng = rng_for(seed)
            errs = ErrorModel(
                (random_tp_round(0, 2, 2, rng), random_tp_round(1, 2, 2, rng))
            )
            state = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=seed))
            f_fac = ent_fidelity(state, errs, MIXED_QUBIT)
            f_dense = dense_fidelity(state, errs, MIXED_QUBIT)
            assert abs(f_fac - f_dense) < 1e-9

    def test_dim_mismatch_rejected(self, identity_qubit_state):
        _, state = identity_qubit_state
        errs4 = identity_errors(4)
        with pytest.raises(ValueError, match="do not match"):
            ent_fidelity(state, errs4, MIXED_QUBIT)

    def test_input_state_validated(self, identity_qubit_state):
        errs, state = identity_qubit_state
        with pytest.raises(ValueError, match="Hermitian"):
            ent_fidelity(state, errs, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="unit trace"):
            ent_fidelity(state, errs, np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="must be 2 x 2"):
            ent_fidelity(state, errs, np.eye(3, dtype=complex) / 3)

    def test_non_psd_input_state_rejected(self):
        # Hermitian with unit trace but a negative eigenvalue: on spacetime
        # the start's objective read 1.62 and one step's 3.92 when admitted
        errs = spacetime_toy_circuit().errors
        rho = np.diag([1.5, -0.5]).astype(complex)
        state = initial_state(errs, 2)
        for call in (
            lambda: initial_state(errs, 2, rho=rho),
            lambda: ent_fidelity(state, errs, rho),
            lambda: coordinate_step(state, errs, rho, "round:1:0"),
        ):
            with pytest.raises(ValueError, match="input state must be positive semidefinite"):
                call()

    def test_never_exceeds_one(self):
        for seed in range(8):
            rng = rng_for(100 + seed)
            errs = ErrorModel(
                (random_tp_round(0, 2, 2, rng), random_tp_round(1, 2, 2, rng))
            )
            state = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=seed))
            assert ent_fidelity(state, errs, MIXED_QUBIT) <= 1 + 1e-8


# ----------------------------------------------------------------------
# trajectory sums against a per-trajectory superoperator rebuild
# ----------------------------------------------------------------------


def reference_lift(d_out, d_in, d_env):
    """The linear map vec(K) -> vec(K (x) I_E) on d_out x d_in matrices, as
    a matrix V: a block of Kraus operators K has Choi sum vec(K) vec(K)^dag,
    so (block (x) identity on an environment leg of dim d_env) has Choi
    V X V^dag, in the error model's layout (environment trailing)."""
    units = np.eye(d_out * d_in).reshape(-1, d_out, d_in)
    return np.stack([np.kron(u, np.eye(d_env)).reshape(-1) for u in units], axis=1)


def reference_block(state, target, d_env):
    """Superoperator of block ``target`` (x) identity on the environment."""
    r, mu, nu = target
    d_out, d_in = state.dims[r]
    lift = reference_lift(d_out, d_in, d_env)
    lifted = lift @ state.factors[r][mu][nu] @ lift.conj().T
    return _superop_from_choi(lifted, d_out * d_env, d_in * d_env)


def reference_trace_env(d_q, d_env):
    """Superoperator of the partial trace over a trailing environment leg:
    Kraus operators I_Q (x) <e| for every basis vector e."""
    return sum(
        np.kron(m, m.conj())
        for m in (np.kron(np.eye(d_q), e[None, :]) for e in np.eye(d_env))
    )


def reference_chain(errors, state, traj):
    """Application-ordered (key, superop) factors of one trajectory, every
    superoperator rebuilt for this trajectory alone from the state's public
    dims and the error model.  Block keys are (factor round, incoming,
    outgoing): the encoder is (0, 0, 0) and decoder ν is (L+1, ν, 0).  The
    final environment leg is traced out before the decoder."""
    rounds = state.rounds
    parts = [((0, 0, 0), reference_block(state, (0, 0, 0), 1))]
    for r in range(rounds + 1):
        if r >= 1:
            mu = traj[r - 2] if r >= 2 else 0
            target = (r, mu, traj[r - 1])
            parts.append((target, reference_block(state, target, errors.env_dim(r - 1))))
        parts.append((
            ("error", r),
            sum(np.kron(k.data, k.data.conj()) for k in errors.round_ops(r)),
        ))
    d_env = errors.env_dim(rounds)
    if d_env > 1:
        parts.append((("trace_env",), reference_trace_env(errors.q_out_dim(rounds), d_env)))
    target = (rounds + 1, traj[-1] if rounds else 0, 0)
    parts.append((target, reference_block(state, target, 1)))
    return parts


def reference_trajectories(state):
    return list(itertools.product(*(range(n) for n in state.memory_structure)))


def reference_evaluate(errors, state, rho):
    total = 0.0
    for traj in reference_trajectories(state):
        cur = None
        for _, s in reference_chain(errors, state, traj):
            cur = s if cur is None else s @ cur
        total += float(np.trace(cur @ _rho_coeff(rho)).real)
    return total


def reference_coefficient(errors, state, rho, target):
    """A with F = Tr(X A) + rest for block X = ``target``: the coefficient
    of its lifted Choi V X V^dag (see :func:`reference_lift`), pulled back
    by V, so A = V^dag A_lifted V."""
    r = target[0]
    d_out, d_in = state.dims[r]
    # the decoder acts after the final environment leg is traced out
    d_env = errors.env_dim(r - 1) if 1 <= r <= state.rounds else 1
    dl2 = state.logical_dim**2
    acc = np.zeros(((d_in * d_env) ** 2, (d_out * d_env) ** 2), dtype=np.complex128)
    for traj in reference_trajectories(state):
        parts = reference_chain(errors, state, traj)
        keys = [k for k, _ in parts]
        if target not in keys:
            continue
        idx = keys.index(target)
        pre = np.eye(dl2, dtype=np.complex128)
        for _, s in parts[:idx]:
            pre = s @ pre
        post = None
        for _, s in parts[idx + 1 :]:
            post = s if post is None else s @ post
        if post is None:
            post = np.eye(dl2, dtype=np.complex128)
        acc += pre @ _rho_coeff(rho) @ post
    lift = reference_lift(d_out, d_in, d_env)
    a = lift.conj().T @ _choi_coeff(acc, d_out * d_env, d_in * d_env) @ lift
    return (a + a.conj().T) / 2.0


def block_coefficients(engine, state):
    """(r, μ, ν) and the engine's coefficient of every block, by one
    ``coefficients`` call per family."""
    return [
        ((r, mu, nu), a)
        for r, per_round in enumerate(state.factors)
        for mu in range(len(per_round))
        for nu, a in enumerate(engine.coefficients(state, r, mu))
    ]


def correlated_errors(seed, envs=(2, 2, 2)):
    """Two-round TP qubit errors, two Kraus operators per round, whose
    environment runs through every round and is still open after the last
    one; ``envs[r]`` is its dim after error round r."""
    rng = rng_for(seed)
    return ErrorModel(tuple(
        tuple(
            error_op(r, k, env_in=e_in, env_out=e_out)
            for k in random_kraus_set(rng, 2 * e_out, 2 * e_in, 2)
        )
        for r, (e_in, e_out) in enumerate(zip((1, *envs), envs))
    ))


def step_by_name(engine, state, which):
    """One ``_step`` on the family a public factor name names."""
    r, mu = optimize._parse_which(which, state)
    return optimize._step(engine, state, r, mu, which, state.fidelity)


def raw_blocks(tree):
    """Nesting, dtypes, shapes and bytes of a tuple tree of arrays."""
    if isinstance(tree, np.ndarray):
        return tree.dtype.str, tree.shape, tree.tobytes()
    assert isinstance(tree, tuple)
    return tuple(raw_blocks(sub) for sub in tree)


def count_calls(monkeypatch, name):
    """Count calls of the optimize module's function ``name``."""
    calls = {"n": 0}
    original = getattr(optimize, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize, name, counted)
    return calls


class TestEngineSums:
    @pytest.mark.parametrize(
        "errs, memory",
        [
            (spacetime_toy_circuit().errors, (1, 2)),
            (spacetime_toy_circuit().errors, (2, 2)),
            (identity_errors(2, rounds=3), (2, 2, 2)),
            (correlated_errors(0), (2, 3)),
            (correlated_errors(0, envs=(2, 3, 3)), (2, 3)),
            (bitflip_code().errors, ()),
            (identity_errors(2, rounds=5), (2, 3, 2, 2, 2)),
        ],
        ids=["spacetime-1-2", "spacetime-2-2", "identity-3-rounds",
             "correlated-env-2", "correlated-env-2-3-3", "bitflip-0-rounds",
             "identity-5-rounds"],
    )
    def test_messages_match_rebuild_within_1e_12(self, errs, memory):
        for seed in range(2):
            state = initial_state(
                errs, 2, memory,
                config=OptimizerConfig(seed=seed, perturbation=0.5),
            )
            engine = _Engine(errs, 2, memory, MIXED_QUBIT)
            ref = reference_evaluate(errs, state, MIXED_QUBIT)
            assert abs(engine.evaluate(state) - ref) <= 1e-12 * abs(ref)
            for target, a in block_coefficients(engine, state):
                ref = reference_coefficient(errs, state, MIXED_QUBIT, target)
                err = np.linalg.norm(a - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), target

    @staticmethod
    def record_passes(monkeypatch):
        """Log the round of every message a pass recomputes, and count the
        block superoperators built meanwhile."""
        builds = count_calls(monkeypatch, "_superop_from_choi")
        recomputed = []
        messages = _Engine._messages

        def logged(self, cache, families, rounds, msgs, step):
            def counted(r, ops, prev):
                recomputed.append(r)
                return step(r, ops, prev)
            return messages(self, cache, families, rounds, msgs, counted)

        monkeypatch.setattr(_Engine, "_messages", logged)
        return recomputed, builds

    @staticmethod
    def blocks_in(state, rounds):
        return sum(len(f) for r in rounds for f in state.factors[r])

    @pytest.mark.parametrize("which", ["round:1:0", "round:2:1"])
    def test_one_superoperator_build_per_pass(self, monkeypatch, which):
        errs = spacetime_toy_circuit().errors
        state = initial_state(errs, 2, (2, 2), config=OptimizerConfig(seed=0))
        recomputed, builds = self.record_passes(monkeypatch)
        stepped = coordinate_step(state, errs, MIXED_QUBIT, which)
        # a fresh engine: every round forward for the incoming objective, the
        # backward messages after round r for the coefficients, and the
        # candidate's forward messages from r on; each pass builds every
        # block it visits once
        r, _ = optimize._parse_which(which, state)
        last = state.rounds + 1
        assert not stepped.rejected_steps
        assert recomputed == [*range(last + 1), *range(last, r, -1), *range(r, last + 1)]
        assert builds["n"] == self.blocks_in(stepped, recomputed)

    @pytest.mark.parametrize("which", ["encoder", "round:1:0", "round:2:1", "decoder:1"])
    def test_step_builds_one_superoperator_per_block_of_its_family(
        self, monkeypatch, which
    ):
        errs = spacetime_toy_circuit().errors
        engine = _Engine(errs, 2, (2, 2), MIXED_QUBIT)
        state = optimize._initial_state(engine, OptimizerConfig(seed=0))
        recomputed, builds = self.record_passes(monkeypatch)
        r, mu = optimize._parse_which(which, state)
        stepped = optimize._step(engine, state, r, mu, which, state.fidelity)
        # the forward messages are kept from the initial evaluation: only the
        # backward ones after round r and the forward ones from r on are redone
        last = state.rounds + 1
        old = state.factors[r][mu]
        new = stepped.factors[r][mu]
        assert not any(a is b for a, b in zip(old, new))
        assert recomputed == [*range(last, r, -1), *range(r, last + 1)]
        assert builds["n"] == self.blocks_in(stepped, recomputed)

    def test_steps_build_superoperators_only_for_recomputed_messages(self, monkeypatch):
        errs = spacetime_toy_circuit().errors
        engine = _Engine(errs, 2, (2, 2), MIXED_QUBIT)
        state = optimize._initial_state(engine, OptimizerConfig(seed=0))
        recomputed, builds = self.record_passes(monkeypatch)
        # coefficients: the backward messages after round r not kept from an
        # earlier step; the candidate's evaluate: the forward ones from r on
        for which, rounds in [
            ("round:2:1", [3, 2, 3]),
            ("encoder", [2, 1, 0, 1, 2, 3]),
            ("decoder:1", [3]),
            ("round:1:0", [3, 2, 1, 2, 3]),
        ]:
            recomputed.clear()
            builds["n"] = 0
            state = step_by_name(engine, state, which)
            assert not state.rejected_steps, which
            assert recomputed == rounds, which
            assert builds["n"] == self.blocks_in(state, rounds), which

    def test_cached_engine_matches_a_fresh_engine_bitwise(self, monkeypatch):
        errs = spacetime_toy_circuit().errors
        fresh = lambda: _Engine(errs, 2, (2, 2), MIXED_QUBIT)
        engine = fresh()
        state = optimize._initial_state(engine, OptimizerConfig(seed=1))

        def step(which):
            nonlocal state
            state = step_by_name(engine, state, which)
            assert state.fidelity == fresh().evaluate(state), which

        for which in ("encoder", "decoder:0", "round:1:0"):
            step(which)
        with monkeypatch.context() as patch:
            # a non-PSD family with unchanged partial traces, rejected
            # before its evaluation
            tilt = 0.5 * np.kron(np.diag([1.0, -1.0]), np.eye(8))
            kept = optimize._kept_blocks
            patch.setattr(optimize, "_kept_blocks", lambda *args: kept(*args) + tilt)
            step("round:2:1")
        with monkeypatch.context() as patch:
            # a feasible family evaluated, then rejected as a regression
            patch.setattr(optimize, "ACCEPT_MARGIN", -1.0)
            step("decoder:1")
        assert [s.split(":")[0] for s in state.rejected_steps] == ["round", "decoder"]
        for which in ("round:2:1", "decoder:1"):
            step(which)
        assert len(state.rejected_steps) == 2
        assert engine.evaluate(state) == fresh().evaluate(state)
        for (target, a), (_, b) in zip(
            block_coefficients(engine, state), block_coefficients(fresh(), state), strict=True
        ):
            assert (a == b).all(), target


def labeled_choi(data, out_label, do, in_label, di):
    subs = ((out_label, do), (in_label, di))
    return ChoiOperator(
        LabeledOperator(subs, subs, data),
        input_labels=(in_label,),
        output_labels=(out_label,),
    )


def dense_fidelity(state, errors, rho):
    """Per-trajectory link-product contraction; independent of the engine."""
    l = errors.rounds
    ecomb = error_comb(errors)
    eo, ei = state.encoder_dims
    trajs = (
        list(itertools.product(*(range(n) for n in state.memory_structure)))
        if l
        else [()]
    )
    total = 0.0
    for traj in trajs:
        cur = link_product(
            ecomb, labeled_choi(state.encoder, q_label(0), eo, "L", ei)
        )
        for r in range(1, l + 1):
            mu = traj[r - 2] if r >= 2 else 0
            do, di = state.instrument_dims[r - 1]
            cur = link_product(
                cur,
                labeled_choi(
                    state.instruments[r - 1][mu][traj[r - 1]],
                    q_label(r), do, qp_label(r - 1), di,
                ),
            )
        do, di = state.decoder_dims
        cur = link_product(
            cur,
            labeled_choi(state.decoders[traj[-1] if l else 0], "Lp", do, qp_label(l), di),
        )
        op = partial_trace(cur.op, [env_label(l)])
        op = permute_subsystems(op, ("Lp", "L"))
        v = np.asarray(rho, dtype=complex).reshape(-1)
        total += float((v.conj() @ op.data @ v).real)
    return total


# ----------------------------------------------------------------------
# optimization state bookkeeping
# ----------------------------------------------------------------------


class TestOptimizationState:
    def test_non_psd_encoder_rejected(self):
        errs = identity_errors(2)
        bad = max_ent_choi(2, 2) - 0.1 * np.eye(4)
        with pytest.raises(ValueError, match="not PSD"):
            plain_state(errs, bad, (max_ent_choi(2, 2),))

    def test_non_tp_decoder_rejected(self):
        errs = identity_errors(2)
        with pytest.raises(ValueError, match="trace preserving"):
            plain_state(errs, max_ent_choi(2, 2), (0.5 * max_ent_choi(2, 2),))

    def test_decoder_count_must_match_memory(self):
        errs = identity_errors(2, rounds=1)
        inst = ((( max_ent_choi(2, 2), np.zeros((4, 4)) ),),)
        with pytest.raises(
            ValueError, match="factor round 2 needs 2 incoming block families, got 1"
        ):
            plain_state(
                errs, max_ent_choi(2, 2), (max_ent_choi(2, 2),), instruments=inst
            )

    def test_instrument_family_tp_enforced(self):
        errs = identity_errors(2, rounds=1)
        inst = (((max_ent_choi(2, 2), max_ent_choi(2, 2)),),)
        with pytest.raises(ValueError, match="not trace preserving"):
            plain_state(
                errs, max_ent_choi(2, 2),
                (max_ent_choi(2, 2), max_ent_choi(2, 2)),
                instruments=inst,
            )

    @pytest.mark.parametrize("errs, memory", [
        (correlated_errors(0), (2, 2)),
        (bitflip_code().errors, ()),
        (build_instance("window-full").errors, None),
    ], ids=["correlated-env-2", "zero-rounds", "window-full"])
    def test_constructor_round_trips_every_view(self, errs, memory):
        state = initial_state(errs, 2, memory, config=OptimizerConfig(seed=0))
        rebuilt = OptimizationState(state.dims, state.factors, fidelity=state.fidelity)
        for view in ("dims", "rounds", "logical_dim", "memory_structure",
                     "encoder_dims", "instrument_dims", "decoder_dims", "fidelity"):
            assert getattr(rebuilt, view) == getattr(state, view), view
        for view in ("factors", "encoder", "instruments", "decoders"):
            assert raw_blocks(getattr(rebuilt, view)) == raw_blocks(getattr(state, view)), view
        assert state.memory_structure == (memory if memory is not None else (2, 2, 2))
        assert len(state.decoders) == (state.memory_structure or (1,))[-1]

    @pytest.mark.parametrize("change, message", [
        (lambda dims, factors: (dims[:-1], factors),
         "one dimension pair and one factor round each for the encoder, every "
         "check round, and the decoders required"),
        (lambda dims, factors: (dims, (*factors[:2], factors[2][:1], factors[3])),
         "factor round 2 needs 2 incoming block families, got 1"),
        (lambda dims, factors: (dims, (*factors[:2], (factors[2][0], factors[2][1][:1]),
                                       factors[3])),
         "factor round 2 incoming value 1 needs 2 blocks, got 1"),
        (lambda dims, factors: ((*dims[:-1], (3, 4)), factors),
         "encoder input dimension 2 and decoder output dimension 3 must both be "
         "the logical dim"),
    ], ids=["round-count", "family-count", "block-count", "logical-dim"])
    def test_malformed_comb_rejected(self, change, message):
        state = initial_state(
            spacetime_toy_circuit().errors, 2, (2, 2), config=OptimizerConfig(seed=0)
        )
        dims, factors = change(state.dims, state.factors)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizationState(dims, factors, fidelity=state.fidelity)

    def test_trace_line_format(self):
        rec = TraceRecord(iteration=3, factor="decoder:0", fidelity=0.5)
        assert rec.line() == "3 decoder:0 0.500000000000"
        assert re.fullmatch(r"\d+ \S+ \d\.\d{12}", rec.line())


class TestInitialState:
    def test_feasible_and_deterministic(self):
        rng = rng_for(0)
        errs = ErrorModel(
            (random_tp_round(0, 2, 2, rng), random_tp_round(1, 2, 2, rng))
        )
        a = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=4))
        b = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=4))
        assert np.array_equal(a.encoder, b.encoder)
        assert all(
            np.array_equal(x, y) for x, y in zip(a.decoders, b.decoders)
        )
        eo, ei = a.encoder_dims
        assert np.linalg.norm(_trace_out(a.encoder, eo, ei) - np.eye(ei)) < 1e-7
        # perturbation moved it off the bare embedding
        assert np.linalg.norm(a.encoder - max_ent_choi(eo, ei)) > 1e-4

    @pytest.mark.parametrize("perturbation", [0.0, 1e-2, 1.0])
    def test_start_is_cptp_without_projection(self, perturbation):
        # encoder 4 x 2 (d_out > d_in), instrument families of three 4 x 4
        # blocks, decoders 2 x 4 (d_out < d_in)
        rng = rng_for(1)
        errs = ErrorModel(
            (random_tp_round(0, 4, 2, rng), random_tp_round(1, 4, 1, rng))
        )
        state = initial_state(
            errs, 2, (3,), config=OptimizerConfig(seed=5, perturbation=perturbation)
        )
        for per_round, (d_out, d_in) in zip(state.factors, state.dims):
            for blocks in per_round:
                assert family_tp_residual(blocks, d_out, d_in) <= 1e-12
                for block in blocks:
                    vals = np.linalg.eigvalsh(block)
                    assert vals[0] >= -1e-12
                    if perturbation:
                        # full Kraus rank, which no Reimpell–Werner step raises
                        assert vals[0] > 1e-12 * vals[-1]

    def test_fidelity_field_matches_objective(self):
        errs = identity_errors(2, rounds=1)
        st = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=0))
        assert st.fidelity == pytest.approx(
            ent_fidelity(st, errs, MIXED_QUBIT), abs=1e-12
        )
        assert st.trace[0].factor == "init"


# ----------------------------------------------------------------------
# coordinate steps
# ----------------------------------------------------------------------


class TestCoordinateStep:
    def test_decoder_step_recovers_identity(self, identity_qubit_state):
        errs, _ = identity_qubit_state
        scrambled = plain_state(
            errs,
            max_ent_choi(2, 2),
            (np.kron(np.eye(2) / 2, np.eye(2)).astype(complex),),
        )
        assert ent_fidelity(scrambled, errs, MIXED_QUBIT) == pytest.approx(0.25, abs=1e-9)
        stepped = coordinate_step(scrambled, errs, MIXED_QUBIT, "decoder:0")
        assert stepped.fidelity >= 1 - 1e-9
        assert stepped.fidelity <= 1 + 1e-8
        assert stepped.trace[-1].factor == "decoder:0"

    def test_single_step_never_decreases(self):
        kinds = ["encoder", "decoder:0", "round:1:0"]
        count = 0
        for seed in range(34):
            rng = rng_for(2000 + seed)
            errs = ErrorModel(
                (random_tp_round(0, 2, 2, rng), random_tp_round(1, 2, 2, rng))
            )
            state = initial_state(
                errs, 2, (2,),
                config=OptimizerConfig(seed=seed, inner_steps=12),
            )
            before = ent_fidelity(state, errs, MIXED_QUBIT)
            which = kinds[seed % 3]
            after = coordinate_step(state, errs, MIXED_QUBIT, which)
            assert after.fidelity >= before - 1e-10
            assert abs(
                ent_fidelity(after, errs, MIXED_QUBIT) - after.fidelity
            ) < 1e-9
            count += 1
        assert count == 34

    def test_encoder_step_matches_isometry_grid(self):
        # dephase qubit 1 completely, decode by discarding it: hiding the
        # logical qubit in slot 2 is optimal and reaches F = 1
        errs = ErrorModel((
            (
                error_op(0, np.sqrt(0.5) * np.eye(4)),
                error_op(0, np.sqrt(0.5) * np.kron(Z, np.eye(2))),
            ),
        ))
        dec_kraus = [
            np.kron(np.array([[1.0, 0.0]]), np.eye(2)),
            np.kron(np.array([[0.0, 1.0]]), np.eye(2)),
        ]
        dec = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in dec_kraus)

        def with_encoder(v):
            return plain_state(
                errs, np.outer(v.reshape(-1), v.reshape(-1).conj()), (dec,)
            )

        vbad = np.zeros((4, 2), dtype=complex)
        vbad[0, 0] = vbad[2, 1] = 1.0  # logical into the dephased slot
        start = with_encoder(vbad)
        assert ent_fidelity(start, errs, MIXED_QUBIT) == pytest.approx(0.25, abs=1e-9)
        stepped = coordinate_step(start, errs, MIXED_QUBIT, "encoder")

        rng = rng_for(0)
        vstar = np.zeros((4, 2), dtype=complex)
        vstar[0, 0] = vstar[1, 1] = 1.0  # logical into the protected slot
        best = 0.0
        for v in [vstar] + [
            np.linalg.qr(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            )[0]
            for _ in range(200)
        ]:
            best = max(best, ent_fidelity(with_encoder(v), errs, MIXED_QUBIT))
        assert best == pytest.approx(1.0, abs=1e-12)
        assert stepped.fidelity >= best - 1e-3

    def test_instrument_family_step_keeps_joint_tp(self):
        rng = rng_for(77)
        errs = ErrorModel(
            (random_tp_round(0, 2, 2, rng), random_tp_round(1, 2, 2, rng))
        )
        state = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=7))
        stepped = coordinate_step(state, errs, MIXED_QUBIT, "round:1:0")
        do, di = stepped.instrument_dims[0]
        total = sum(
            _trace_out(b, do, di) for b in stepped.instruments[0][0]
        )
        assert np.linalg.norm(total - np.eye(di)) < 1e-7

    def test_infeasible_step_keeps_the_factor(self, identity_qubit_state, monkeypatch):
        errs, _ = identity_qubit_state
        depolarizing = np.kron(np.eye(2) / 2, np.eye(2)).astype(complex)
        scrambled = plain_state(errs, max_ent_choi(2, 2), (depolarizing,))
        # no partial trace, so still trace preserving, but a negative
        # eigenvalue on the near-identity iterate's kernel
        tilt = 0.5 * np.kron(np.diag([1.0, -1.0]), np.eye(2))
        kept = optimize._kept_blocks
        monkeypatch.setattr(optimize, "_kept_blocks", lambda *args: kept(*args) + tilt)
        out = coordinate_step(scrambled, errs, MIXED_QUBIT, "decoder:0")
        assert np.array_equal(out.decoders[0], depolarizing)
        assert out.rejected_steps == (
            "decoder:0: factor round 1 block (0|0) is not PSD",
        )
        assert out.fidelity == pytest.approx(0.25, abs=1e-12)
        assert out.trace[-1].factor == "decoder:0"

    def test_unknown_factor_rejected(self, identity_qubit_state):
        errs, state = identity_qubit_state
        for bad in ["blah", "decoder:5", "round:1:0", "round:0:0", "decoder"]:
            with pytest.raises(ValueError):
                coordinate_step(state, errs, MIXED_QUBIT, bad)

    @pytest.mark.parametrize("bad", ["decoder:x", "round:a:0", "decoder:1.0"])
    def test_non_integer_index_names_an_unknown_factor(self, bad):
        errs = identity_errors(2, rounds=1)
        state = initial_state(errs, 2, (2,), config=OptimizerConfig(seed=0))
        message = (
            f"unknown factor {bad!r}; expected 'encoder', 'decoder:NU', or 'round:R:MU'"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coordinate_step(state, errs, MIXED_QUBIT, bad)


# ----------------------------------------------------------------------
# Reimpell–Werner coordinate steps
# ----------------------------------------------------------------------


def kraus_roots(rng, d_out, d_in, count, width=2):
    """Kraus roots of a flagged TP family: block ν is K_ν† K_ν, whose
    ``width`` rows are conjugated vectorized Kraus operators of one isometry,
    so the partial traces sum to the identity up to rounding."""
    kraus = random_kraus_set(rng, d_out, d_in, width * count)
    return np.stack([
        np.array([k.reshape(-1).conj() for k in kraus[width * nu : width * (nu + 1)]])
        for nu in range(count)
    ])


def gram(roots):
    return [k.conj().T @ k for k in roots]


def family_tp_residual(blocks, d_out, d_in):
    total = sum(_trace_out(b, d_out, d_in) for b in blocks)
    return float(np.linalg.norm(total - np.eye(d_in)))


def reference_rw_roots(hs, fallback, d_out, d_in):
    """Roots H_ν (I⊗ρ^{+½}) with ρ = Σ_ν Tr_out H_ν† H_ν, each followed by
    the rows F_ν (I⊗P) when ρ has a kernel, every factor a dense kron lift."""
    rho = sum(_trace_out(h.conj().T @ h, d_out, d_in) for h in hs)
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > KERNEL_RTOL * max(float(vals[-1]), 0.0)
    sup = vecs[:, keep]
    eye_out = np.eye(d_out)
    lift = np.kron(eye_out, (sup / np.sqrt(vals[keep])) @ sup.conj().T)
    out = [h @ lift for h in hs]
    if not keep.all():
        ker = vecs[:, ~keep]
        lift = np.kron(eye_out, ker @ ker.conj().T)
        out = [np.vstack([o, f @ lift]) for o, f in zip(out, fallback)]
    return out


class TestReimpellWerner:
    d_out, d_in, count = 2, 3, 2

    def killed(self, rng):
        """A random input direction phi and I⊗(I − |phi><phi|)."""
        phi = random_state(rng, self.d_in)
        off_phi = np.eye(self.d_in) - np.outer(phi, phi.conj())
        return phi, np.kron(np.eye(self.d_out), off_phi)

    def test_iteration_is_psd_and_trace_preserving(self):
        n = self.d_out * self.d_in
        for seed in range(10):
            rng = rng_for(5000 + seed)
            ks = kraus_roots(rng, self.d_out, self.d_in, self.count)
            coeffs = []
            for _ in range(self.count):
                g = random_matrix(rng, n, n)
                coeffs.append(g @ g.conj().T)
            out = gram(_rw_iterate(ks @ np.stack(coeffs), ks, self.d_in))
            for block in out:
                assert np.linalg.eigvalsh(block)[0] >= -1e-12
            assert family_tp_residual(out, self.d_out, self.d_in) <= 1e-12

    def test_congruence_matches_kron_lift_reference(self):
        # the input-leg product through reshapes equals the dense kron lift
        # up to rounding, on the support and, with a dropped direction, the
        # kernel; three rows plus two kernel rows need no recompression
        n = self.d_out * self.d_in
        for seed in range(10):
            rng = rng_for(6000 + seed)
            ks = kraus_roots(rng, self.d_out, self.d_in, self.count)
            _, kill = self.killed(rng)
            hs = np.stack([random_matrix(rng, 3, n) for _ in range(self.count)])
            for fam in (hs, hs @ kill):
                got = _rw_iterate(fam, ks, self.d_in)
                want = reference_rw_roots(fam, ks, self.d_out, self.d_in)
                for g_blk, w_blk in zip(got, want):
                    assert g_blk.shape == w_blk.shape
                    assert np.linalg.norm(g_blk - w_blk) <= 1e-12 * np.linalg.norm(w_blk)

    def test_near_singular_rho_stays_trace_preserving(self):
        # A nearly vanishes on one input direction, so rho has an eigenvalue
        # near 1e-8 of its largest: kept, and amplified by its inverse root
        n = self.d_out * self.d_in
        for seed in range(10):
            rng = rng_for(7000 + seed)
            ks = kraus_roots(rng, self.d_out, self.d_in, self.count)
            phi = random_state(rng, self.d_in)
            damp = np.eye(self.d_in) - (1 - 1e-4) * np.outer(phi, phi.conj())
            coeffs = []
            for _ in range(self.count):
                g = np.kron(np.eye(self.d_out), damp) @ random_matrix(rng, n, n)
                coeffs.append(g @ g.conj().T)
            out = _rw_iterate(ks @ np.stack(coeffs), ks, self.d_in)
            # the iterate's TP error grows with the inverse root; the one
            # congruence a step applies to the family it keeps removes it
            kept = optimize._kept_blocks(out, ks, self.d_in)
            assert family_tp_residual(kept, self.d_out, self.d_in) <= 1e-12

    def test_one_eigh_per_iteration_and_two_per_step(self, monkeypatch, linalg_calls):
        # a step roots its family by one eigh, and the family it keeps gets
        # one more congruence, which runs _rw_iterate once more
        congruences = count_calls(monkeypatch, "_rw_iterate")
        kept = count_calls(monkeypatch, "_kept_blocks")
        out = seesaw(spacetime_toy_circuit().errors, 2, (1, 2), config=OptimizerConfig(seed=0))
        steps = len(out.trace) - 1
        iterations = congruences["n"] - kept["n"]
        assert iterations > steps >= kept["n"] > 0
        assert linalg_calls["eigh"] <= iterations + 2 * steps

    def test_kernel_of_rho_keeps_the_incoming_channel(self):
        n = self.d_out * self.d_in
        for seed in range(10):
            rng = rng_for(6000 + seed)
            ks = kraus_roots(rng, self.d_out, self.d_in, self.count)
            # A vanishes on the input direction phi, so phi spans ker rho
            phi, kill = self.killed(rng)
            coeffs = []
            for _ in range(self.count):
                g = kill @ random_matrix(rng, n, n)
                coeffs.append(g @ g.conj().T)
            out = gram(_rw_iterate(ks @ np.stack(coeffs), ks, self.d_in))
            for block in out:
                assert np.linalg.eigvalsh(block)[0] >= -1e-12
            assert family_tp_residual(out, self.d_out, self.d_in) <= 1e-12
            on_kernel = np.kron(np.eye(self.d_out), np.outer(phi, phi.conj()))
            for new, old in zip(out, gram(ks)):
                assert np.linalg.norm(
                    on_kernel @ new @ on_kernel - on_kernel @ old @ on_kernel
                ) <= 1e-12

    def test_kernel_rows_are_recompressed_to_n(self):
        # full-rank roots of n rows: every kernel iteration appends n more,
        # and the QR recompression brings each root back to n rows with
        # K† K equal to the uncompressed kron-lift reference's
        n = self.d_out * self.d_in
        for seed in range(5):
            rng = rng_for(8000 + seed)
            ks = kraus_roots(rng, self.d_out, self.d_in, self.count, width=n)
            _, kill = self.killed(rng)
            coeffs = []
            for _ in range(self.count):
                g = kill @ random_matrix(rng, n, n)
                coeffs.append(g @ g.conj().T)
            for _ in range(4):
                hs = ks @ np.stack(coeffs)
                got = _rw_iterate(hs, ks, self.d_in)
                want = reference_rw_roots(hs, ks, self.d_out, self.d_in)
                assert got.shape == (self.count, n, n)
                assert all(w_blk.shape == (2 * n, n) for w_blk in want)
                for g_blk, w_blk in zip(gram(got), gram(want)):
                    assert np.linalg.norm(g_blk - w_blk) <= 1e-12 * np.linalg.norm(w_blk)
                ks = got

    def test_see_saw_never_projects(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the optimizer called the CPTP projection")

        monkeypatch.setattr(optimize, "_project_cptp_array", forbidden)
        errs = spacetime_toy_circuit().errors
        cfg = OptimizerConfig(seed=0)
        initial_state(errs, 2, (1, 2), config=cfg)
        out = seesaw(errs, 2, (1, 2), config=cfg)
        assert len(out.trace) > 1

    @pytest.mark.parametrize(
        "name, memory",
        [("bitflip", ()), ("bitflip-z", ()), ("spacetime", (1, 2)), ("spacetime", (2, 2))],
    )
    def test_library_coefficients_are_psd(self, name, memory):
        # hexagon's 64-dimensional registers put its 4096 x 4096
        # superoperators outside the optimizer's dense range
        errs = build_instance(name).errors
        for seed in range(3):
            state = initial_state(errs, 2, memory, config=OptimizerConfig(seed=seed))
            engine = _Engine(errs, 2, memory, MIXED_QUBIT)
            for target, a in block_coefficients(engine, state):
                scale = max(1.0, float(np.linalg.norm(a)))
                assert np.linalg.eigvalsh(a)[0] >= -1e-12 * scale, target

    @pytest.mark.parametrize("errs, memory, seed, floor", [
        (spacetime_toy_circuit().errors, (1, 2), 0, 0.999),
        (bitflip_code().errors, (), 0, 0.999),
        # not correctable: only feasibility and F <= 1 are asserted
        (random_instance(26, qubits=2).errors, None, 2, 0.0),
        (build_instance("window-full").errors, None, 0, 0.999),
    ], ids=["spacetime", "bitflip", "random-26-2q-seed2", "window-full"])
    def test_returned_factors_pass_the_public_constructor(
        self, errs, memory, seed, floor
    ):
        out = seesaw(errs, 2, memory, config=OptimizerConfig(seed=seed))
        rebuilt = OptimizationState(out.dims, out.factors, fidelity=out.fidelity)
        assert floor <= rebuilt.fidelity <= 1 + 1e-12


# ----------------------------------------------------------------------
# see-saw
# ----------------------------------------------------------------------


class TestSeesaw:
    def test_no_error_three_cycles(self):
        errs = identity_errors(2, rounds=1)
        out = seesaw(
            errs, 2, (2,), config=OptimizerConfig(seed=0, max_iters=3)
        )
        assert out.fidelity >= 1 - 1e-6
        assert out.fidelity <= 1 + 1e-8

    def test_certified_instance_reaches_target(self):
        inst = spacetime_toy_circuit()
        out = seesaw(
            inst.errors, 2, (1, 2), config=OptimizerConfig(seed=0)
        )
        assert out.fidelity >= 0.999
        fs = [r.fidelity for r in out.trace]
        assert all(b >= a - 1e-9 for a, b in zip(fs, fs[1:]))
        assert not out.rejected_steps

    def test_deterministic_trace(self):
        inst = spacetime_toy_circuit()
        cfg = OptimizerConfig(seed=3, max_iters=4)
        a = seesaw(inst.errors, 2, (1, 2), config=cfg)
        b = seesaw(inst.errors, 2, (1, 2), config=cfg)
        assert a.trace_lines() == b.trace_lines()
        assert a.fidelity == b.fidelity

    def test_window_seed_2_reaches_target_without_rejections(self):
        # every iterate is a Gram matrix, so no step is rejected as not PSD;
        # 14 such rejections left this run in a rank trap at F = 0.70393
        errs = build_instance("window-full").errors
        out = seesaw(errs, 2, config=OptimizerConfig(seed=2))
        assert out.fidelity >= 1 - 1e-6
        assert out.rejected_steps == ()

    def test_one_validation_and_one_evaluation_per_step(self, monkeypatch):
        counts = {"check": 0, "evaluate": 0}
        check, evaluate = OptimizationState.__post_init__, _Engine.evaluate

        def counted_check(state):
            counts["check"] += 1
            check(state)

        def counted_evaluate(engine, state):
            counts["evaluate"] += 1
            return evaluate(engine, state)

        monkeypatch.setattr(OptimizationState, "__post_init__", counted_check)
        monkeypatch.setattr(_Engine, "evaluate", counted_evaluate)
        errs = identity_errors(2, rounds=1)
        engines = count_calls(monkeypatch, "_Engine")
        out = seesaw(errs, 2, (2,), config=OptimizerConfig(seed=0, max_iters=3))
        # one engine; initial_state's public construction is the only
        # validation; then the initial objective and at most one candidate
        # per step
        assert engines["n"] == 1
        assert counts["check"] == 1
        assert 1 < counts["evaluate"] <= len(out.trace)
        assert out.fidelity == ent_fidelity(out, errs, MIXED_QUBIT)

    def test_best_state_returned(self):
        errs = identity_errors(2, rounds=1)
        out = seesaw(errs, 2, (2,), config=OptimizerConfig(seed=1, max_iters=5))
        assert out.fidelity >= max(r.fidelity for r in out.trace) - 1e-12

    def test_structure_mismatch_rejected(self):
        errs = identity_errors(2, rounds=1)
        with pytest.raises(ValueError, match="memory structure lists"):
            seesaw(errs, 2, (2, 2), config=OptimizerConfig(max_iters=1))

    def test_bad_logical_dim_rejected(self):
        errs = identity_errors(2)
        with pytest.raises(ValueError, match="positive"):
            seesaw(errs, 0, (), config=OptimizerConfig(max_iters=1))

    @pytest.mark.parametrize("inner_steps", [0, -1])
    def test_nonpositive_inner_steps_rejected(self, inner_steps):
        # with no Reimpell–Werner iteration every step would keep its factor
        # and the run would report convergence at the start's fidelity
        with pytest.raises(ValueError, match="inner_steps must be at least 1"):
            OptimizerConfig(seed=0, inner_steps=inner_steps)

    @pytest.mark.parametrize("perturbation", [-0.1, 1.5])
    def test_perturbation_outside_unit_interval_rejected(self, perturbation):
        # the start mixes two channels with weights 1 - p and p
        with pytest.raises(ValueError, match=r"perturbation must be in \[0, 1\]"):
            OptimizerConfig(seed=0, perturbation=perturbation)

    def test_negative_seed_rejected(self):
        # numpy would reject it only later, inside initial_state
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            OptimizerConfig(seed=-1)

    def test_negative_tol_conv_rejected(self):
        # no cycle moves the fidelity by less than a negative tolerance, so
        # every run would end unconverged at max_iters
        with pytest.raises(ValueError, match="tol_conv must be at least 0, got -1"):
            OptimizerConfig(tol_conv=-1)

    def test_convergence_flag(self):
        errs = identity_errors(2)
        done = static_biconvex(errs, 2, config=OptimizerConfig(seed=0))
        assert done.converged
        cut = static_biconvex(
            errs, 2, config=OptimizerConfig(seed=0, max_iters=1, tol_conv=0.0)
        )
        assert not cut.converged


class TestStaticBiconvex:
    def test_identity_is_perfect(self):
        errs = identity_errors(2)
        out = static_biconvex(errs, 2, config=OptimizerConfig(seed=0))
        assert out.fidelity >= 1 - 1e-6
        assert out.fidelity <= 1 + 1e-8

    def test_correctable_bitflip(self):
        # one protected qubit next to the flipping one: exactly correctable
        errs = ErrorModel((
            (
                error_op(0, np.sqrt(0.5) * np.eye(4)),
                error_op(0, np.sqrt(0.5) * np.kron(X, np.eye(2))),
            ),
        ))
        out = static_biconvex(errs, 2, config=OptimizerConfig(seed=0))
        assert out.fidelity >= 1 - 1e-4

    def test_multi_round_rejected(self):
        errs = identity_errors(2, rounds=1)
        with pytest.raises(ValueError, match="single-round"):
            static_biconvex(errs, 2)

    def test_encoding_beats_no_encoding_on_single_x_channel(self):
        # qubit into 3 qubits, at most one X; exactly correctable, so any
        # encoding strategy should do at least as well as sending the bare
        # qubit through and decoding optimally
        p = 0.1
        ops = [np.sqrt(1 - p) * np.eye(8)]
        for i in range(3):
            m = [np.eye(2)] * 3
            m[i] = X
            ops.append(np.sqrt(p / 3) * np.kron(np.kron(m[0], m[1]), m[2]))
        errs = ErrorModel((tuple(error_op(0, m) for m in ops),))

        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = v[1, 1] = 1.0  # bare qubit in the last slot
        base = plain_state(
            errs,
            np.outer(v.reshape(-1), v.reshape(-1).conj()),
            (np.kron(np.eye(2) / 2, np.eye(8)).astype(complex),),
        )
        prev = ent_fidelity(base, errs, MIXED_QUBIT)
        for _ in range(30):
            base = coordinate_step(base, errs, MIXED_QUBIT, "decoder:0")
            if abs(base.fidelity - prev) < 1e-9:
                break
            prev = base.fidelity
        # an unlocatable flip of the bare qubit survives with weight p/3
        assert base.fidelity == pytest.approx(1 - p / 3, abs=1e-7)

        # the trivial encoding is a coordinate-wise optimum, so the default
        # small perturbation stalls in its basin; kick harder to leave it
        out = static_biconvex(
            errs, 2,
            config=OptimizerConfig(
                seed=2, perturbation=0.3, max_iters=20, inner_steps=20
            ),
        )
        assert out.fidelity >= base.fidelity

    def test_agrees_with_seesaw_on_seeded_channels(self):
        for seed in range(20):
            rng = rng_for(3000 + seed)
            errs = ErrorModel((random_tp_round(0, 2, 3, rng),))
            cfg = OptimizerConfig(seed=seed, max_iters=25)
            a = static_biconvex(errs, 2, config=cfg)
            b = seesaw(errs, 2, (), config=cfg)
            assert abs(a.fidelity - b.fidelity) <= 1e-6
