"""End-to-end command-line flows via the click test runner."""

import copy
import gc
import json
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import combsqec.cli as cli
import combsqec.conditions as conditions
import combsqec.io as combsqec_io
from combsqec.cli import main
from combsqec.conditions import ConditionReport
from combsqec.io import decode_matrix, export_instance, instance_text, load_instance
from combsqec.library import build_instance, instance_names
from combsqec.model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    TRAJECTORY_CAP,
    check_op,
    compose_K,
    enumerate_trajectories,
    error_op,
)
from combsqec.optimize import (
    OptimizationState, OptimizerConfig, ent_fidelity, seesaw, static_biconvex,
)
from combsqec.tolerances import ACCEPT_MARGIN

from conftest import (
    DEPHASING_SIGNS,
    dephasing_instance,
    env_dephasing_instance,
    flip_once_window,
    noisy_errors,
    random_kraus_set,
    rng_for,
)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    paths = {}
    for name in instance_names():
        inst = build_instance(name)
        paths[name] = str(root / f"{name}.json")
        export_instance(inst.code, inst.errors, paths[name])
    return paths


@pytest.fixture()
def runner():
    return CliRunner()


def own_entry(doc, where, entry=None):
    """Point the matrix slot at path ``where`` of an exported document at a
    new table entry, ``entry`` or a copy of the slot's own, which no other
    slot shares; returns the new index."""
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    table = doc["matrices"]
    table.append(copy.deepcopy(table[parent[where[-1]]]) if entry is None else entry)
    parent[where[-1]] = len(table) - 1
    return len(table) - 1


def noisy_spacetime(eps, path):
    """Spacetime with Gaussian noise of size eps on its error Kraus operators."""
    inst = build_instance("spacetime")
    errors = noisy_errors(inst.errors, eps)
    export_instance(inst.code, errors, path)
    return path


def vanishing_instance(path):
    """One qubit, both codewords and one check round after an error round
    whose one Kraus operator is zero: no branch survives, so the algebraic
    condition holds on an empty channel and no codestate reaches the final
    memory."""
    interro = Interrogator(
        ({"": CheckInstrument({"a": check_op(1, np.eye(2))})},),
        MemoryUpdate(({("a", ""): "m"},)),
    )
    errors = ErrorModel(((error_op(0, np.zeros((2, 2))),), (error_op(1, np.eye(2)),)))
    export_instance(StrategicCode(CodeSpace(2, np.eye(2)), interro), errors, path)
    return path


def overflow_instance(path):
    """One qubit, both codewords and one one-outcome check round between
    two error rounds of 1e200 times the identity, admitted with the trace
    check off: every branch product overflows, so no weight is finite."""
    interro = Interrogator(
        ({"": CheckInstrument({"a": check_op(1, np.eye(2))})},),
        MemoryUpdate(({("a", ""): "m"},)),
    )
    errors = ErrorModel(
        ((error_op(0, 1e200 * np.eye(2)),), (error_op(1, 1e200 * np.eye(2)),)),
        require_trace_nonincreasing=False,
    )
    export_instance(StrategicCode(CodeSpace(2, np.eye(2)), interro), errors, path)
    return path


def overflow_spacetime(path):
    """Spacetime's code with error rounds 0 and 1 replaced by 1e200 times
    the identity, admitted with the trace check off."""
    inst = build_instance("spacetime")
    huge = tuple((error_op(r, 1e200 * np.eye(4)),) for r in (0, 1))
    errors = ErrorModel(
        huge + inst.errors.kraus_rounds[2:], require_trace_nonincreasing=False
    )
    export_instance(inst.code, errors, path)
    return path


def scaled_bitflip(path, scale):
    """Bitflip's code with its one error round replaced by ``scale`` times
    the identity, admitted with the trace check off."""
    inst = build_instance("bitflip")
    errors = ErrorModel(
        ((error_op(0, scale * np.eye(8)),),), require_trace_nonincreasing=False
    )
    export_instance(inst.code, errors, path)
    return path


def correlated_qubit_instance(path):
    """One qubit and one two-outcome check round between two error rounds
    whose environment has dim 2 after round 0 and 3 after round 1; no
    library instance carries an environment."""
    rng = rng_for(3)
    errors = ErrorModel(tuple(
        tuple(
            error_op(r, mat, e_in, e_out)
            for mat in random_kraus_set(rng, 2 * e_out, 2 * e_in, 2)
        )
        for r, (e_in, e_out) in enumerate([(1, 2), (2, 3)])
    ))
    check = CheckInstrument({
        "a": check_op(1, np.diag([1.0, 0.0])), "b": check_op(1, np.diag([0.0, 1.0]))
    })
    interro = Interrogator(({"": check},), MemoryUpdate(({("a", ""): "a", ("b", ""): "b"},)))
    export_instance(StrategicCode(CodeSpace(2, np.eye(2)), interro), errors, path)
    return path


def flipped(checker):
    """``checker`` with its verdict reversed, the residual finite."""

    def run(code, errors, tol=None):
        rep = checker(code, errors, tol)
        worst = rep.tolerance + 1.0 if rep.correctable else 0.0
        return ConditionReport(worst, rep.tolerance, rep.witness, rep.detail)

    return run


def export_pair(code_errors, path):
    export_instance(*code_errors, path)
    return path


def assert_unwritable(res, path):
    """An output path that cannot be written is a usage error naming it."""
    assert res.exit_code == 2
    assert f"error: cannot write {path}: No such file or directory" in res.output


@pytest.mark.parametrize("args", [
    ["check", "--method", "both"],
    ["decode", "--proof", "algebraic"],
    ["decode", "--proof", "schmidt"],
], ids=["check", "decode-algebraic", "decode-schmidt"])
def test_loaded_instance_is_freed_when_the_call_returns(
    runner, exported, monkeypatch, args
):
    # CliRunner keeps the SystemExit in a reference cycle; were the exit
    # raised inside the command body, its frame and the loaded instance
    # would stay alive until the next garbage collection
    loaded = []

    def tracked(path):
        doc = load_instance(path)
        loaded.append(weakref.ref(doc.errors))
        return doc

    monkeypatch.setattr(cli, "load_instance", tracked)
    gc.disable()
    try:
        code = runner.invoke(main, [args[0], exported["bitflip"], *args[1:]]).exit_code
        assert code == 0
        assert len(loaded) == 1 and loaded[0]() is None
    finally:
        gc.enable()


class TestCheck:
    def test_correctable_instance(self, runner, exported):
        res = runner.invoke(main, ["check", exported["bitflip"]])
        assert res.exit_code == 0
        assert "\nCORRECTABLE\n" in res.output

    def test_uncorrectable_instance(self, runner, exported):
        res = runner.invoke(main, ["check", exported["bitflip-z"]])
        assert res.exit_code == 1
        assert "NOT CORRECTABLE" in res.output

    @pytest.mark.parametrize("name", tuple(instance_names()))
    def test_both_methods_never_disagree(self, runner, exported, name):
        res = runner.invoke(main, ["check", exported[name], "--method", "both"])
        assert res.exit_code in (0, 1)
        assert "algebraic:" in res.output and "info:" in res.output

    @pytest.mark.parametrize("build", [
        *(lambda s=s: dephasing_instance(s) for s in DEPHASING_SIGNS),
        env_dephasing_instance,
    ], ids=["dephasing+-+-", "dephasing++++", "env-dephasing"])
    def test_dephasing_fails_both_checkers(self, runner, tmp_path, build):
        # forgotten outcomes and the final environment are summed
        # incoherently: the channel is dephasing, whatever the Kraus signs
        path = export_pair(build(), str(tmp_path / "d.json"))
        report = tmp_path / "report.json"
        res = runner.invoke(main, ["check", path, "--method", "both", "--report", str(report)])
        assert res.exit_code == 1, res.output
        assert "\nNOT CORRECTABLE\n" in res.output
        payload = json.loads(report.read_text())
        assert payload["algebraic"]["correctable"] is False
        assert payload["info"]["correctable"] is False
        for branches in payload["algebraic"]["support"].values():
            assert branches and all(set(b) == {"outcomes", "errors", "env"} for b in branches)

    @pytest.mark.parametrize("method", ["algebraic", "info", "both"])
    def test_empty_channel_is_vacuously_correctable(self, runner, tmp_path, method):
        # no branch survives the zero error round; both checkers read the
        # empty channel as correctable, with residual 0 and no witness
        report = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["check", vanishing_instance(str(tmp_path / "c.json")),
             "--method", method, "--report", str(report)],
        )
        assert res.exit_code == 0, res.output
        assert "CORRECTABLE" in res.output.splitlines()
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "CORRECTABLE"
        if method != "algebraic":
            assert payload["info"]["worst_deficit_bits"] == 0.0
            assert payload["info"]["deficit_bits"] == {}

    @pytest.mark.parametrize("method", ["algebraic", "info", "both"])
    def test_overflowed_branches_are_not_correctable(self, runner, tmp_path, method):
        # branch products of 1e200 I overflow in error round 0: the walk
        # names that round before any checker or decoder reads a nan, and
        # no numpy warning is raised on the way (the suite makes one fail)
        proofs = {"algebraic": ["algebraic"], "info": ["schmidt"], "both": []}[method]
        report = tmp_path / "r.json"
        for build in (overflow_instance, overflow_spacetime):
            path = build(str(tmp_path / "c.json"))
            runs = [["check", path, "--method", method]]
            runs += [["decode", path, "--proof", proof] for proof in proofs]
            for args in runs:
                res = runner.invoke(main, [*args, "--report", str(report)])
                assert res.exit_code == 2, (args, res.output)
                assert res.output.startswith(
                    "error: branch weights overflow at error round 0:"
                ), res.output
                assert not report.exists()

    @pytest.mark.parametrize("name,algebraic,info", [
        ("bitflip", "CORRECTABLE", "NOT CORRECTABLE"),
        ("bitflip-z", "NOT CORRECTABLE", "CORRECTABLE"),
    ])
    def test_disagreement_exits_3(
        self, runner, exported, tmp_path, monkeypatch, name, algebraic, info
    ):
        # a disagreement is a bug in the tool, so one is staged by
        # reversing the entropic verdict
        monkeypatch.setattr(cli, "check_info", flipped(conditions.check_info))
        report = tmp_path / "report.json"
        res = runner.invoke(main, ["check", exported[name], "--report", str(report)])
        assert res.exit_code == 3, res.output
        assert (
            f"checker disagreement: algebraic says {algebraic}, "
            f"information-theoretic says {info}; this is a bug in the tool"
        ) in res.stderr
        assert "CORRECTABLE" not in res.stdout.splitlines()
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "DISAGREEMENT"
        assert payload["algebraic"]["correctable"] is (algebraic == "CORRECTABLE")
        assert payload["info"]["correctable"] is (info == "CORRECTABLE")

    def test_single_method_runs_only_that_checker(self, runner, exported):
        res = runner.invoke(
            main, ["check", exported["bitflip"], "--method", "algebraic"]
        )
        assert res.exit_code == 0
        assert "info:" not in res.output

    def test_tolerance_is_plumbed_through(self, runner, exported):
        res = runner.invoke(
            main,
            ["check", exported["bitflip-z"], "--method", "algebraic", "--tol", "10"],
        )
        assert res.exit_code == 0
        assert "\nCORRECTABLE\n" in res.output

    def test_tolerance_needs_a_single_method(self, runner, exported, tmp_path):
        # one number cannot bound a Frobenius residual and a deficit in
        # bits: on hexagon, 1e-20 is below the algebraic residual (~1e-18)
        # and above the deficit (0), so applying it to both checkers
        # would report a disagreement
        hexagon = exported["hexagon"]
        report = tmp_path / "report.json"
        for method in (["--method", "both"], []):
            res = runner.invoke(
                main, ["check", hexagon, *method, "--tol", "1e-20", "--report", str(report)]
            )
            assert res.exit_code == 2, res.output
            assert "--tol needs" in res.output
            assert "Frobenius residual" in res.output and "in bits" in res.output
            assert not report.exists()
        for method, code in (("algebraic", 1), ("info", 0)):
            res = runner.invoke(main, ["check", hexagon, "--method", method, "--tol", "1e-20"])
            assert res.exit_code == code, method

    @pytest.mark.parametrize("method,tol", [
        ("algebraic", "nan"), ("algebraic", "-1"), ("algebraic", "inf"),
        ("algebraic", "-inf"), ("info", "nan"), ("info", "-1e-9"), ("info", "inf"),
    ])
    def test_tolerance_must_be_finite_and_nonnegative(
        self, runner, exported, tmp_path, monkeypatch, method, tol
    ):
        # a NaN or negative tolerance fails every instance and an infinite
        # one passes every instance, so each is a usage error, raised
        # before the file is read
        loads = []
        monkeypatch.setattr(cli, "load_instance", lambda p: loads.append(p))
        report = tmp_path / "report.json"
        res = runner.invoke(main, [
            "check", exported["spacetime"], "--method", method, "--tol", tol,
            "--report", str(report),
        ])
        assert res.exit_code == 2, res.output
        assert "--tol must be a finite number >= 0" in res.output
        assert loads == [] and not report.exists()

    def test_zero_tolerance_is_accepted(self, runner, exported):
        res = runner.invoke(
            main, ["check", exported["bitflip"], "--method", "algebraic", "--tol", "0"]
        )
        assert res.exit_code == 0, res.output

    def test_report_round_trips(self, runner, exported, tmp_path):
        report = tmp_path / "report.json"
        res = runner.invoke(
            main, ["check", exported["bitflip"], "--report", str(report)]
        )
        assert res.exit_code == 0
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "CORRECTABLE"
        assert payload["digest"] == load_instance(exported["bitflip"]).digest
        assert payload == json.loads(json.dumps(payload))

    def test_no_report_on_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        report = tmp_path / "report.json"
        res = runner.invoke(main, ["check", str(bad), "--report", str(report)])
        assert res.exit_code == 2
        assert "error:" in res.output
        assert not report.exists()

    @pytest.mark.parametrize("text", [
        b'{"schema_version": 3, "x": "\xff"}',
        b"[" * 100000 + b"]" * 100000,
        b'{"schema_version": ' + b"9" * 5000 + b"}",
    ], ids=["not-unicode", "deep-nesting", "long-integer"])
    def test_undecodable_json_is_a_parse_error(self, runner, tmp_path, text):
        # json.loads raises UnicodeDecodeError, RecursionError and a plain
        # ValueError on these, none of them a JSONDecodeError
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        for verb, flag in (("check", "--report"), ("decode", "--report"), ("optimize", "--out")):
            written = tmp_path / f"{verb}.json"
            res = runner.invoke(main, [verb, str(bad), flag, str(written)])
            assert res.exit_code == 2, (verb, res.output)
            assert "error: (document): invalid JSON:" in res.output, verb
            assert not written.exists(), verb

    def test_missing_file(self, runner, tmp_path):
        res = runner.invoke(main, ["check", str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    def test_unwritable_report_is_a_usage_error(self, runner, exported, tmp_path):
        report = tmp_path / "absent" / "report.json"
        res = runner.invoke(main, ["check", exported["bitflip"], "--report", str(report)])
        assert_unwritable(res, report)

    @pytest.mark.parametrize("where", ["check", "error"])
    def test_matrix_beyond_the_dense_cap_is_a_parse_error(
        self, runner, exported, monkeypatch, where
    ):
        # spacetime's first matrix past the codespace is a check operator,
        # bitflip's (no check rounds) an error operator
        name, path = {
            "check": ("spacetime", "interrogator.rounds[0].instruments['']['u']"),
            "error": ("bitflip", "error_model.rounds[0].kraus[0]"),
        }[where]
        monkeypatch.setenv("COMBSQEC_DENSE_CAP", "2")
        res = runner.invoke(main, ["check", exported[name]])
        assert res.exit_code == 2
        assert f"{path}: dense dimension" in res.output
        assert "exceeds the cap 2" in res.output

    def test_number_beyond_float_range_is_a_parse_error(
        self, runner, exported, tmp_path
    ):
        with open(exported["bitflip"]) as fh:
            doc = json.load(fh)
        dense = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(8)]
        dense[0][0][0] = 10**400
        sparse = {"nz": [[0, 0, 10**400, 0.0]], "shape": [8, 2]}
        k = doc["codespace"]["basis"]
        for basis, where in ((dense, "[0][0]"), (sparse, ".nz[0][2]")):
            doc["matrices"][k] = basis
            bad = tmp_path / "huge.json"
            bad.write_text(json.dumps(doc))
            res = runner.invoke(main, ["check", str(bad)])
            assert res.exit_code == 2
            assert (
                f"codespace.basis: matrices[{k}]{where}: number beyond float range"
                in res.output
            )
            assert res.exception is None or isinstance(res.exception, SystemExit)


    @pytest.mark.parametrize("where", [
        ("codespace", "basis"),
        ("interrogator", "rounds", 0, "instruments", "", "u"),
        ("error_model", "rounds", 1, "kraus", 0),
    ])
    def test_sparse_shape_beyond_dims_is_a_parse_error(
        self, runner, exported, tmp_path, monkeypatch, where
    ):
        # a 60-byte matrix asking for 4000 x 4000 is rejected by its JSON
        # path before its 244 MiB array is allocated
        with open(exported["spacetime"]) as fh:
            doc = json.load(fh)
        k = own_entry(
            doc, where, {"nz": [[3999, 3999, 1.0, 0.0]], "shape": [4000, 4000]}
        )
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps(doc))
        zeros = combsqec_io._zeros
        allocated = []
        monkeypatch.setattr(
            combsqec_io, "_zeros", lambda shape, path: allocated.append(shape) or zeros(shape, path)
        )
        report = tmp_path / "report.json"
        res = runner.invoke(main, ["check", str(bad), "--report", str(report)])
        assert res.exit_code == 2
        path = {
            "codespace": "codespace.basis",
            "interrogator": "interrogator.rounds[0].instruments['']['u']",
            "error_model": "error_model.rounds[1].kraus[0]",
        }[where[0]]
        assert (
            f"{path}: matrices[{k}]: shape (4000, 4000) does not match dims"
            in res.output
        )
        assert [4000, 4000] not in allocated
        assert not report.exists()

    @pytest.mark.parametrize("where, path, reason", [
        (("codespace", "basis"), "codespace.basis", "not orthonormal"),
        (("interrogator", "rounds", 1, "instruments", "u", "0"),
         "interrogator.rounds[1].instruments['u']", "not complete"),
        (("error_model", "rounds", 0, "kraus", 0), "error_model",
         "not trace non-increasing"),
    ])
    @pytest.mark.parametrize("command", [
        ["check", "--method", "both"], ["decode"], ["optimize", "--logical-dim", "2"],
    ])
    def test_nan_entry_is_a_parse_error(
        self, runner, exported, tmp_path, where, path, reason, command
    ):
        # json spells it NaN; the constructor that owns the matrix rejects it
        with open(exported["spacetime"]) as fh:
            doc = json.load(fh)
        matrix = doc["matrices"][own_entry(doc, where)]
        if isinstance(matrix, dict):
            matrix["nz"][0][2] = float("nan")
        else:
            matrix[0][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, [command[0], str(bad), *command[1:]])
        assert res.exit_code == 2
        assert res.output.startswith(f"error: {path}: ")
        assert reason in res.output

    @pytest.mark.parametrize("command", [
        ["check", "--method", "both"], ["decode", "--proof", "algebraic"],
        ["decode", "--proof", "schmidt"], ["optimize", "--logical-dim", "2"],
    ])
    def test_nan_error_entry_without_the_trace_check(
        self, runner, exported, tmp_path, command
    ):
        # no trace check to fail closed: the NaN used to reach the checkers'
        # SVD ("SVD did not converge") and the optimizer's eigensolver
        with open(exported["spacetime"]) as fh:
            doc = json.load(fh)
        doc["error_model"]["trace_nonincreasing"] = False
        matrix = doc["matrices"][own_entry(doc, ("error_model", "rounds", 0, "kraus", 0))]
        if isinstance(matrix, dict):
            matrix["nz"][0][2] = float("nan")
        else:
            matrix[0][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, [command[0], str(bad), *command[1:]])
        assert res.exit_code == 2
        assert res.output.startswith(
            "error: error_model: error round 0 operator 0 has a non-finite entry"
        )


class TestDecode:
    def test_codestates_are_one_draw_of_the_seeded_stream(self):
        # per state, the real parts of its amplitudes, then the imaginary ones
        inst = build_instance("window-full")
        rng, k = np.random.default_rng(5), inst.code.codespace.dim
        want = []
        for _ in range(4):
            amp = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            want.append(inst.code.codespace.basis @ (amp / np.linalg.norm(amp)))
        got = cli._random_codestates(inst.code, 4, 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("proof", ["algebraic", "schmidt"])
    def test_hexagon_both_proofs(self, runner, exported, proof):
        res = runner.invoke(
            main, ["decode", exported["hexagon"], "--proof", proof, "--samples", "5"]
        )
        assert res.exit_code == 0
        assert "worst recovery fidelity" in res.output

    def test_uncorrectable_gives_witness(self, runner, exported):
        res = runner.invoke(main, ["decode", exported["bitflip-z"]])
        assert res.exit_code == 1
        assert "NOT CORRECTABLE" in res.output
        assert "witness: codestates" in res.output

    def test_dephasing_gives_witness(self, runner, tmp_path):
        path = export_pair(dephasing_instance(DEPHASING_SIGNS[0]), str(tmp_path / "d.json"))
        res = runner.invoke(main, ["decode", path, "--proof", "algebraic"])
        assert res.exit_code == 1, res.output
        assert "NOT CORRECTABLE" in res.output
        assert (
            "witness: codestates (0, 0), branches (outcomes ('a',), errors (0, 0), env 0)"
            " vs (outcomes ('a',), errors (0, 0), env 0), memory 'm'\n"
        ) in res.output

    def test_schmidt_failures_near_threshold(self, runner, tmp_path):
        # at 1e-5 the entropic check passes but the Schmidt construction
        # rejects: a negative result on a valid instance, not a usage error
        res = runner.invoke(
            main,
            ["decode", noisy_spacetime(1e-5, str(tmp_path / "a.json")),
             "--proof", "schmidt"],
        )
        assert res.exit_code == 1
        assert "Schmidt-rank inconsistency" in res.output
        # at 1e-3 the entropic check fails and names its own witness
        res = runner.invoke(
            main,
            ["decode", noisy_spacetime(1e-3, str(tmp_path / "b.json")),
             "--proof", "schmidt"],
        )
        assert res.exit_code == 1
        assert "NOT CORRECTABLE" in res.output
        assert "witness: memory sector 'u|1', entropy deficit" in res.output
        assert "witness: codestates" not in res.output

    def test_report_written_on_exit_1(self, runner, exported, tmp_path):
        report = tmp_path / "witness.json"
        res = runner.invoke(
            main, ["decode", exported["bitflip-z"], "--report", str(report)]
        )
        assert res.exit_code == 1
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "NOT CORRECTABLE"
        assert f"witness: {payload['witness']}\n" in res.output
        assert payload["witness"].startswith("codestates (")
        # a decoder construction failing on a checker-approved instance
        report = tmp_path / "synth.json"
        res = runner.invoke(
            main,
            ["decode", noisy_spacetime(1e-5, str(tmp_path / "a.json")),
             "--proof", "schmidt", "--report", str(report)],
        )
        assert res.exit_code == 1
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "SYNTHESIS FAILED"
        assert "Schmidt-rank inconsistency" in payload["error"]

    def test_no_arrived_codestate_fails_the_gate(self, runner, tmp_path):
        report = tmp_path / "empty.json"
        res = runner.invoke(
            main,
            ["decode", vanishing_instance(str(tmp_path / "c.json")),
             "--proof", "algebraic", "--samples", "3", "--report", str(report)],
        )
        assert res.exit_code == 1
        assert "no codestate out of 3 reached any final memory" in res.output
        assert "inf" not in res.output
        assert "recovered weight per state: 0.000000, 0.000000, 0.000000" in res.output
        payload = json.loads(report.read_text(), parse_constant=pytest.fail)
        assert payload["worst_fidelity"] is None
        assert payload["verdict"] == "FAIL"

    def test_both_proofs_agree_on_the_empty_channel(self, runner, tmp_path):
        path = vanishing_instance(str(tmp_path / "c.json"))
        outputs = {}
        for proof in ("algebraic", "schmidt"):
            res = runner.invoke(
                main, ["decode", path, "--proof", proof, "--samples", "3"]
            )
            assert res.exit_code == 1, res.output
            assert "no codestate out of 3 reached any final memory" in res.output
            outputs[proof] = res.output
        assert outputs["schmidt"] == outputs["algebraic"]

    def test_zero_samples_vacuous(self, runner, exported):
        res = runner.invoke(
            main, ["decode", exported["bitflip"], "--samples", "0"]
        )
        assert res.exit_code == 0
        assert "verifies nothing" in res.output

    def test_negative_samples_rejected(self, runner, exported):
        res = runner.invoke(
            main, ["decode", exported["bitflip"], "--samples", "-1"]
        )
        assert res.exit_code == 2

    def test_negative_seed_rejected_before_loading(self, runner, tmp_path):
        res = runner.invoke(main, ["decode", str(tmp_path / "absent.json"), "--seed", "-1"])
        assert res.exit_code == 2
        assert "--seed must be nonnegative" in res.output

    def test_unwritable_report_is_a_usage_error(self, runner, exported, tmp_path):
        report = tmp_path / "absent" / "report.json"
        res = runner.invoke(main, ["decode", exported["bitflip"], "--report", str(report)])
        assert_unwritable(res, report)


class TestComposedTable:
    def test_one_compose_pass_per_instance(self, runner, tmp_path, monkeypatch):
        calls = []
        walk = conditions._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(conditions, "_walk", counted)
        inst = build_instance("spacetime")
        conditions.synth_decoder_algebraic(inst.code, inst.errors)
        assert len(calls) == 1
        path = str(tmp_path / "st.json")
        export_instance(inst.code, inst.errors, path)
        for args in (["check", path, "--method", "both"],
                     ["decode", path, "--proof", "algebraic"],
                     ["decode", path, "--proof", "schmidt"],
                     ["demo", "spacetime"]):
            calls.clear()
            assert runner.invoke(main, args).exit_code == 0
            assert len(calls) == 1, args

        # two codes on one error model: each gets its own table
        def other_code(code):
            return StrategicCode(CodeSpace(4, np.eye(4)[:, :2]), code.interrogator)

        shared = build_instance("spacetime")
        codes = (shared.code, other_code(shared.code))
        for pick in (0, 1, 0):
            calls.clear()
            got = (conditions.check_algebraic(codes[pick], shared.errors),
                   conditions.check_info(codes[pick], shared.errors))
            assert len(calls) == 1
            fresh = build_instance("spacetime")
            code = (fresh.code, other_code(fresh.code))[pick]
            want = (conditions.check_algebraic(code, fresh.errors),
                    conditions.check_info(code, fresh.errors))
            for g, w in zip(got, want):
                assert (g.correctable, g.worst_residual, g.witness) == (
                    w.correctable, w.worst_residual, w.witness
                )
        assert conditions.check_algebraic(codes[0], shared.errors).correctable
        assert not conditions.check_algebraic(codes[1], shared.errors).correctable


    @pytest.mark.parametrize("proof,builder", [
        ("algebraic", "_algebraic_sweep"),
        ("schmidt", "_schmidt_sectors"),
    ])
    def test_decode_runs_its_checker_once(
        self, runner, exported, monkeypatch, proof, builder
    ):
        # the checker's verdict and the decoder synthesis share one sweep
        # (Lambda_m and its residuals) or one Schmidt product
        calls = []
        real = getattr(conditions, builder)
        monkeypatch.setattr(
            conditions, builder, lambda *a: calls.append(a) or real(*a)
        )
        for name in ("bitflip", "bitflip-z", "spacetime"):
            calls.clear()
            res = runner.invoke(main, ["decode", exported[name], "--proof", proof])
            assert res.exit_code == (1 if name == "bitflip-z" else 0), res.output
            assert len(calls) == 1, name
        calls.clear()
        runner.invoke(main, ["check", exported["bitflip"], "--method", "both"])
        assert len(calls) == 1

    def test_one_table_per_verb_on_hexagon(self, runner, exported, monkeypatch):
        built = []
        init = conditions._Composed.__init__
        monkeypatch.setattr(
            conditions._Composed, "__init__", lambda *a: built.append(a) or init(*a)
        )
        for args in (["check", exported["hexagon"], "--method", "both"],
                     ["decode", exported["hexagon"], "--proof", "algebraic"],
                     ["decode", exported["hexagon"], "--proof", "schmidt"],
                     ["demo", "hexagon"]):
            built.clear()
            assert runner.invoke(main, args).exit_code == 0, args
            assert len(built) == 1, args

    def test_forgetful_window_checks_past_the_sequence_count(self, runner, tmp_path):
        # 4^10 outcome sequences, more than TRAJECTORY_CAP, and 4 branches:
        # the table enumerates only what the walk keeps
        assert 4**10 > TRAJECTORY_CAP
        path = str(tmp_path / "window.json")
        export_instance(*flip_once_window(10), path)
        res = runner.invoke(main, ["check", path, "--method", "both"])
        assert res.exit_code == 0, res.output

    def test_branch_supports_read_the_table(self, monkeypatch):
        inst = build_instance("hexagon")
        conditions.check_algebraic(inst.code, inst.errors)
        calls = []
        walk = conditions._walk
        monkeypatch.setattr(conditions, "_walk", lambda *a: calls.append(a) or walk(*a))
        got = conditions.branch_supports(inst.code, inst.errors)
        assert calls == []
        trajectories = enumerate_trajectories(inst.code.interrogator)
        for seq in inst.errors.sequences():
            want = sorted(
                traj.outcomes
                for memory, trajs in trajectories.items()
                for traj in trajs
                if np.linalg.norm(
                    compose_K(inst.errors, inst.code.interrogator, seq, memory,
                              traj.outcomes).data @ inst.code.codespace.basis
                ) > 1e-9
            )
            assert got[seq] == want


class TestOptimize:
    def test_no_error_model_reaches_one(self, runner, tmp_path):
        trace = tmp_path / "trace.txt"
        res = runner.invoke(
            main,
            ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
             "--rounds", "0", "--trace", str(trace)],
        )
        assert res.exit_code == 0
        final = float(res.output.rsplit(":", 1)[1])
        assert final >= 1 - 1e-6
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("0 init ")

    @pytest.mark.parametrize("name", ["window-full", "window-last"])
    def test_syndrome_windows_reach_the_target(self, runner, exported, name):
        # a check round of two blocks on 8 x 8: the start needs no projection
        res = runner.invoke(
            main, ["optimize", exported[name], "--logical-dim", "2", "--seed", "0"]
        )
        assert res.exit_code == 0, res.output
        final = float(res.output.rsplit(":", 1)[1])
        assert 0.999 <= final <= 1 + 1e-12

    def test_fixed_seed_reruns_identical(self, runner, tmp_path):
        args = ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
                "--rounds", "1", "--memory", "2", "--seed", "9",
                "--max-iters", "4"]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert runner.invoke(main, args + ["--trace", str(a)]).exit_code in (0, 4)
        assert runner.invoke(main, args + ["--trace", str(b)]).exit_code in (0, 4)
        assert a.read_bytes() == b.read_bytes()

    def test_iteration_cap_exit_code_and_state(self, runner, tmp_path):
        out = tmp_path / "state.json"
        res = runner.invoke(
            main,
            ["optimize", "--ambient-dim", "4", "--logical-dim", "2",
             "--rounds", "1", "--memory", "2", "--max-iters", "1",
             "--out", str(out)],
        )
        assert res.exit_code == 4
        assert "did not converge" in res.output
        state = json.loads(out.read_text())
        assert state["converged"] is False
        assert state["logical_dim"] == 2

    def test_file_mode_uses_optimization_block(self, runner, exported, tmp_path):
        inst = build_instance("spacetime")
        path = str(tmp_path / "st.json")
        export_instance(
            inst.code, inst.errors, path,
            optimization={"logical_dim": 2, "memory_structure": [1, 2],
                          "config": {"seed": 0, "max_iters": 40}},
        )
        res = runner.invoke(main, ["optimize", path])
        assert res.exit_code == 0
        assert float(res.output.rsplit(":", 1)[1]) >= 0.999
        # without the block and without --logical-dim there is no logical space
        res = runner.invoke(main, ["optimize", exported["spacetime"]])
        assert res.exit_code == 2
        assert "error: no logical dimension" in res.output

    def test_zero_round_file_runs_the_two_factor_alternation(
        self, runner, exported, tmp_path
    ):
        trace, out = tmp_path / "trace.txt", tmp_path / "state.json"
        res = runner.invoke(
            main,
            ["optimize", exported["bitflip"], "--logical-dim", "2", "--max-iters", "40",
             "--trace", str(trace), "--out", str(out)],
        )
        assert res.exit_code == 0
        assert float(res.output.rsplit(":", 1)[1]) >= 1 - 1e-4
        errors = load_instance(exported["bitflip"]).errors
        state = static_biconvex(errors, 2, config=OptimizerConfig(max_iters=40))
        assert trace.read_text() == "\n".join(state.trace_lines()) + "\n"
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(cli._state_document(state))
        )

    @pytest.mark.parametrize("scale", [1e200, 1e100], ids=["1e200", "1e100"])
    def test_overflowing_error_weights_are_named(self, runner, tmp_path, scale):
        # ||sum E^dag E||_2 is 1e400 or 1e200, above 2^500: numpy used to warn
        # of overflow and the eigensolver to fail ("Eigenvalues did not
        # converge"); warnings are errors here, so exit 2 means none was raised
        path = scaled_bitflip(str(tmp_path / "big.json"), scale)
        res = runner.invoke(main, ["optimize", path, "--logical-dim", "2"])
        assert res.exit_code == 2, res.output
        assert res.output.startswith(
            "error: error weights overflow at error round 0: the product of "
            "||sum E^dag E||_2 over rounds 0..0 is "
        )
        assert res.output.endswith(", above the bound 3.3e+150\n")

    @pytest.mark.parametrize("scale", [1e50, 2.0**240], ids=["1e50", "2^240"])
    def test_large_error_weights_below_the_cap_still_run(self, runner, tmp_path, scale):
        path = scaled_bitflip(str(tmp_path / "big.json"), scale)
        trace = tmp_path / "trace.txt"
        res = runner.invoke(
            main,
            ["optimize", path, "--logical-dim", "2", "--max-iters", "3", "--trace", str(trace)],
        )
        assert res.exit_code == 4, res.output
        errors = load_instance(path).errors
        state = seesaw(errors, 2, config=OptimizerConfig(max_iters=3))
        assert trace.read_text() == "\n".join(state.trace_lines()) + "\n"

    def test_unnormalized_model_reports_an_objective_not_a_fidelity(self, runner, tmp_path):
        # with 1e50 I as its error the see-saw objective is ~1e100: no fidelity
        path = scaled_bitflip(str(tmp_path / "big.json"), 1e50)
        res = runner.invoke(main, ["optimize", path, "--logical-dim", "2", "--max-iters", "3"])
        assert res.exit_code == 4, res.output
        assert res.stdout.splitlines()[-1] == (
            "final objective (error model not trace non-increasing): 1e+100"
        )
        assert "fidelity" not in res.stdout

    def test_file_with_an_environment_runs(self, runner, tmp_path):
        path = correlated_qubit_instance(str(tmp_path / "corr.json"))
        trace, out = tmp_path / "trace.txt", tmp_path / "state.json"
        res = runner.invoke(
            main,
            ["optimize", path, "--logical-dim", "2", "--max-iters", "5",
             "--trace", str(trace), "--out", str(out)],
        )
        assert res.exit_code in (0, 4), res.output
        fids = [float(line.split()[-1]) for line in trace.read_text().splitlines()]
        assert all(b >= a - ACCEPT_MARGIN for a, b in zip(fids, fids[1:]))
        # the written blocks pass the public constructor's feasibility test
        doc = json.loads(out.read_text())
        factors = (
            ((decode_matrix(doc["encoder"], "encoder"),),),
            tuple(
                tuple(decode_matrix(block, "block") for block in family)
                for family in doc["instruments"][0]
            ),
            tuple((decode_matrix(dec, "decoder"),) for dec in doc["decoders"]),
        )
        state = OptimizationState(((2, 2),) * 3, factors, fidelity=doc["fidelity"])
        assert state.memory_structure == (2,)
        errors = load_instance(path).errors
        rho = np.eye(2, dtype=complex) / 2
        assert abs(ent_fidelity(state, errors, rho) - doc["fidelity"]) <= 1e-12

    def test_dims_required_without_file(self, runner):
        res = runner.invoke(main, ["optimize"])
        assert res.exit_code == 2
        assert "--ambient-dim" in res.output

    def test_rounds_conflict_with_file(self, runner, exported):
        res = runner.invoke(
            main, ["optimize", exported["bitflip"], "--logical-dim", "2",
                   "--rounds", "3"],
        )
        assert res.exit_code == 2

    def test_ambient_dim_conflicts_with_file(self, runner, exported):
        res = runner.invoke(
            main, ["optimize", exported["spacetime"], "--ambient-dim", "7"],
        )
        assert res.exit_code == 2
        assert res.output == (
            "error: --ambient-dim applies only without an instance file\n"
        )

    @pytest.mark.parametrize("dims", [
        ["--ambient-dim", "2", "--logical-dim", "2", "--rounds", "-1"],
        ["--ambient-dim", "0", "--logical-dim", "1"],
    ], ids=["negative-rounds", "zero-ambient-dim"])
    def test_bad_no_file_dims_are_usage_errors(self, runner, dims):
        res = runner.invoke(main, ["optimize", *dims])
        assert res.exit_code == 2
        assert res.output.startswith("error: ")

    def test_negative_max_iters_flag_is_a_usage_error(self, runner):
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
                   "--max-iters", "-1"],
        )
        assert res.exit_code == 2
        assert "max_iters" in res.output

    def test_negative_seed_is_a_usage_error(self, runner):
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
                   "--seed", "-3"],
        )
        assert res.exit_code == 2
        assert "seed must be at least 0, got -3" in res.output

    @pytest.mark.parametrize("flag", ["--trace", "--out"])
    def test_unwritable_output_is_a_usage_error(self, runner, tmp_path, flag):
        path = tmp_path / "absent" / "out.txt"
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
                   "--max-iters", "1", flag, str(path)],
        )
        assert_unwritable(res, path)

    def test_negative_max_iters_in_file_is_a_usage_error(self, runner, tmp_path):
        inst = build_instance("bitflip")
        path = str(tmp_path / "bf.json")
        export_instance(
            inst.code, inst.errors, path,
            optimization={"logical_dim": 2, "config": {"max_iters": -1}},
        )
        res = runner.invoke(main, ["optimize", path])
        assert res.exit_code == 2
        assert "bad optimizer config" in res.output

    @pytest.mark.parametrize("inner_steps", [0, -1])
    def test_nonpositive_inner_steps_in_file_is_a_usage_error(
        self, runner, tmp_path, inner_steps
    ):
        inst = build_instance("spacetime")
        path = str(tmp_path / "st.json")
        export_instance(
            inst.code, inst.errors, path,
            optimization={"logical_dim": 2, "memory_structure": [1, 2],
                          "config": {"seed": 0, "inner_steps": inner_steps}},
        )
        res = runner.invoke(main, ["optimize", path])
        assert res.exit_code == 2
        assert "bad optimizer config" in res.output
        assert "inner_steps" in res.output

    @pytest.mark.parametrize("field, value", [
        ("config.tol_conv", "abc"),
        ("config.seed", 1.5),
        ("config.seed", True),
        ("config.inner_steps", 2.5),
        ("config.max_iters", 2.5),
        ("config.perturbation", "x"),
        ("config.tol_conv", float("nan")),
        ("config.step_order", ["encoder", 3]),
        ("memory_structure", 5),
        ("logical_dim", [2]),
        ("config", "x"),
        ("config.tol_conv", -1),
    ])
    def test_malformed_optimization_block_is_a_usage_error(
        self, runner, exported, tmp_path, field, value
    ):
        block = {"logical_dim": 2, "memory_structure": [1, 2],
                 "config": {"seed": 0, "max_iters": 1}}
        parent, _, name = field.rpartition(".")
        (block[parent] if parent else block)[name] = value
        with open(exported["spacetime"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["optimization"] = block
        path = tmp_path / "st.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["optimize", str(path)])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ") and name in res.output

    def test_bad_memory_string(self, runner):
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "2",
                   "--rounds", "1", "--memory", "two"],
        )
        assert res.exit_code == 2

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        inst = build_instance("bitflip")
        path = str(tmp_path / "bad.json")
        export_instance(
            inst.code, inst.errors, path,
            optimization={"logical_dim": 2, "config": {"speed": 11}},
        )
        res = runner.invoke(main, ["optimize", path])
        assert res.exit_code == 2
        assert "bad optimizer config" in res.output

    def test_infeasible_dims(self, runner):
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "0"]
        )
        assert res.exit_code == 2

    def test_negative_logical_dim_is_named(self, runner):
        # the engine checks the dimension before it builds the default input state
        res = runner.invoke(
            main, ["optimize", "--ambient-dim", "2", "--logical-dim", "-1"]
        )
        assert res.exit_code == 2
        assert "logical dimension must be positive" in res.output


class TestDemo:
    @pytest.mark.parametrize(
        "name,code", [("bitflip", 0), ("bitflip-z", 1), ("spacetime", 0)]
    )
    def test_exit_codes(self, runner, name, code):
        res = runner.invoke(main, ["demo", name])
        assert res.exit_code == code

    def test_disagreement_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "check_info", flipped(conditions.check_info))
        res = runner.invoke(main, ["demo", "bitflip"])
        assert res.exit_code == 3, res.output
        assert "information check: NOT CORRECTABLE" in res.stdout
        assert "checker disagreement; this is a bug in the tool" in res.stderr

    def test_hexagon_flip_table(self, runner):
        res = runner.invoke(main, ["demo", "hexagon"])
        assert res.exit_code == 0
        assert "Z on qubit 1" in res.output
        assert "flip of check 3" in res.output
        assert "flip of check 1" in res.output
        assert "o1 = -++" in res.output

    def test_unknown_name_lists_choices(self, runner):
        res = runner.invoke(main, ["demo", "nope"])
        assert res.exit_code == 2
        for name in instance_names():
            assert name in res.output

    def test_export_round_trips(self, runner, tmp_path):
        path = tmp_path / "bitflip.json"
        res = runner.invoke(main, ["demo", "bitflip", "--export", str(path)])
        assert res.exit_code == 0
        inst = build_instance("bitflip")
        doc = load_instance(str(path))
        assert instance_text(doc.code, doc.errors) == instance_text(
            inst.code, inst.errors
        )

    def test_unwritable_export_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "absent" / "bitflip.json"
        res = runner.invoke(main, ["demo", "bitflip", "--export", str(path)])
        assert_unwritable(res, path)
