"""The four benchmark workloads: set-up, one pass of operations, and checks.

A workload is built from the workload seed alone.  ``setup`` writes its
inputs under a fresh directory and may run more than once; ``ops`` returns
one pass, a fixed list of operations run one at a time (closed loop, one
client).  Each operation returns the list of problems found in its output;
an empty list means the output was checked and is correct.

CLI verbs run in-process through click's ``CliRunner``, so a pass measures
the verbs' own work without interpreter start-up.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from click.testing import CliRunner

import combsqec.cli as cli
from combsqec.combs import ChoiOperator, CombSignature, link_product, validate_comb
from combsqec.io import export_instance
from combsqec.library import build_instance, random_instance
from combsqec.model import (
    compose_K,
    comb_vector_dense,
    enumerate_trajectories,
    env_label,
    error_comb,
    error_comb_vector,
    interrogator_operator,
    q_label,
    qp_label,
)
from combsqec.optimize import (
    OptimizerConfig,
    coordinate_step,
    ent_fidelity,
    initial_state,
    project_cptp,
)
from combsqec.tensor import LabeledOperator, permute_subsystems, vectorize

FIDELITY_GATE = getattr(cli, "FIDELITY_GATE", 1.0 - 1e-6)
OPTIMIZE_TARGET = 0.999
TRACE_SLACK = 1e-9        # nondecreasing up to float noise, as the acceptance test allows
ORACLE_RTOL = 1e-9        # dense vs factored Choi of one branch, relative to its scale
OPTIMIZE_SEED = 0         # see README.md: solve time spreads too much across optimizer seeds

_FIDELITY = re.compile(r"worst recovery fidelity over \d+ codestates: ([-+0-9.eE]+)")
_DEMO_FIDELITY = re.compile(r"decoded 5 random codestates: worst fidelity ([-+0-9.eE]+)")
_DIGEST = re.compile(r"\(sha256 ([0-9a-f]+)\)")
_FINAL = re.compile(r"final entanglement fidelity: ([-+0-9.eE]+)")


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], list[str]]


class Record(NamedTuple):
    kind: str
    start: float          # perf_counter seconds
    wall: float           # wall seconds
    cpu: float            # process CPU seconds, user + system
    problems: list[str]
    seconds: float = 0.0  # CPU seconds scaled to the reference host speed (clock.py)


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.runner = CliRunner()
        self.tracer = None
        self.cpu = time.process_time     # set to SpeedClock.cpu while one runs

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def probes(self, tracer) -> list[Op]:
        """Extra single calls made once after the traced passes."""
        return []

    def details(self, records) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures from one run's op records."""
        return {}

    # ------------------------------------------------------------------

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def invoke(self, args: list[str], expected: set[int]) -> tuple[object, list[str]]:
        with self.span(f"cli.{args[0]}"):
            result = self.runner.invoke(cli.main, args)
        problems = []
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            problems.append(f"{args[0]} raised {result.exception!r}")
        elif result.exit_code in (2, 3) or result.exit_code not in expected:
            problems.append(
                f"{' '.join(args)}: exit {result.exit_code}, expected {sorted(expected)}"
            )
        return result, problems


def run_op(workload: Workload, op: Op) -> Record:
    """Run one operation; its record holds the latency and problems found."""
    cpu, wall = workload.cpu(), time.perf_counter()
    try:
        with workload.span(f"op.{op.kind}"):
            problems = op.run()
    except Exception as exc:  # an operation that raises counts as failed; the run goes on
        problems = [f"raised {exc!r}: {traceback.format_exc(limit=3)}"]
    return Record(op.kind, wall, time.perf_counter() - wall, workload.cpu() - cpu, problems)


def run_passes(workload: Workload, seconds: float) -> tuple[float, list[list[Record]]]:
    """Whole passes until ``seconds`` have elapsed, at least one.

    Returns the wall time and, per pass, its op records.
    """
    passes = []
    start = time.perf_counter()
    while True:
        records = []
        for i, op in enumerate(workload.ops()):
            if workload.tracer is not None:
                workload.tracer.op = f"pass{len(passes)}.{i}.{op.kind}"
            records.append(run_op(workload, op))
        passes.append(records)
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, passes


def _parsed(pattern: re.Pattern, text: str) -> float | None:
    m = pattern.search(text)
    return float(m.group(1)) if m else None


def _verdict_exit(correctable: bool) -> int:
    return 0 if correctable else 1


def _median_ms(records, kinds) -> float:
    return 1000.0 * float(np.median([r.seconds for r in records if r.kind in kinds]))


# ----------------------------------------------------------------------
# decode checks shared by hexagon-flow and corpus-sweep
# ----------------------------------------------------------------------


def _decode_problems(result, correctable: bool) -> list[str]:
    text = result.stdout
    if correctable:
        fid = _parsed(_FIDELITY, text)
        if fid is None or fid < FIDELITY_GATE:
            return [f"decode fidelity {fid} below the gate {FIDELITY_GATE}"]
        return []
    if "witness:" not in text:
        return ["decode on an uncorrectable instance printed no witness"]
    return []


# ----------------------------------------------------------------------
# hexagon-flow
# ----------------------------------------------------------------------


class HexagonFlow(Workload):
    """The README flow on the largest built-in instance."""

    name = "hexagon-flow"

    def setup(self, workdir: str) -> None:
        self.expected = build_instance("hexagon").expected_correctable
        self.path = os.path.join(workdir, "hexagon.json")
        self.report = os.path.join(workdir, "check-report.json")
        self.decode_seed = random.Random(self.seed).randrange(2**31)
        self.digest = None

    def ops(self) -> list[Op]:
        return [
            Op("demo", self._demo),
            Op("check", self._check),
            Op("decode-algebraic", lambda: self._decode("algebraic")),
            Op("decode-schmidt", lambda: self._decode("schmidt")),
        ]

    def _demo(self) -> list[str]:
        result, problems = self.invoke(
            ["demo", "hexagon", "--export", self.path], {_verdict_exit(self.expected)}
        )
        words = "CORRECTABLE" if self.expected else "NOT CORRECTABLE"
        for checker in ("algebraic check", "information check"):
            if f"{checker}: {words} " not in result.stdout:
                problems.append(f"demo: {checker} does not say {words}")
        if self.expected:
            fid = _parsed(_DEMO_FIDELITY, result.stdout)
            if fid is None or fid < FIDELITY_GATE:
                problems.append(f"demo decode fidelity {fid} below the gate")
        self.digest = _parsed_digest(result.stdout)
        if self.digest is None:
            problems.append("demo printed no export digest")
        return problems

    def _check(self) -> list[str]:
        result, problems = self.invoke(
            ["check", self.path, "--method", "both", "--report", self.report],
            {_verdict_exit(self.expected)},
        )
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("digest") != self.digest:
            problems.append("check report digest differs from the exported digest")
        for checker in ("algebraic", "info"):
            if report.get(checker, {}).get("correctable") is not self.expected:
                problems.append(f"check: {checker} verdict differs from the expected one")
        return problems

    def _decode(self, proof: str) -> list[str]:
        result, problems = self.invoke(
            ["decode", self.path, "--proof", proof, "--seed", str(self.decode_seed)],
            {_verdict_exit(self.expected)},
        )
        return problems + _decode_problems(result, self.expected)

    def details(self, records):
        return {
            "demo_ms": (_median_ms(records, {"demo"}), "ms"),
            "check_ms": (_median_ms(records, {"check"}), "ms"),
            "decode_ms": (_median_ms(records, {"decode-algebraic", "decode-schmidt"}), "ms"),
        }


def _parsed_digest(text: str) -> str | None:
    m = _DIGEST.search(text)
    return m.group(1) if m else None


# ----------------------------------------------------------------------
# corpus-sweep
# ----------------------------------------------------------------------

LIBRARY_CORPUS = ("bitflip", "bitflip-z", "spacetime")
RANDOM_PER_STRATUM = 24


def _stratified(rng: random.Random, qubits: tuple[int, ...], per_stratum: int):
    """Seeded random instances, as many in every (qubits, rounds, adaptive)
    stratum: per-instance cost varies tenfold across strata, so a free draw
    would make a run's totals depend on the seed's mix."""
    for q in qubits:
        for rounds in (0, 1, 2):
            for adaptive in (False, True):
                for _ in range(per_stratum):
                    yield random_instance(rng.randrange(2**31), qubits=q, rounds=rounds,
                                          adaptive=adaptive)


@dataclass(frozen=True)
class _Entry:
    path: str
    expected: bool
    hand_derived: bool    # library verdicts are; random ones come from check_algebraic
    decode_seed: int


class CorpusSweep(Workload):
    """Many millisecond-scale CLI calls over small exported instances."""

    name = "corpus-sweep"

    def setup(self, workdir: str) -> None:
        rng = random.Random(self.seed)
        entries = []
        for name in LIBRARY_CORPUS:
            inst = build_instance(name)
            path = os.path.join(workdir, f"{name}.json")
            export_instance(inst.code, inst.errors, path)
            entries.append(_Entry(path, inst.expected_correctable, True, rng.randrange(2**31)))
        for i, inst in enumerate(_stratified(rng, (1, 2), RANDOM_PER_STRATUM)):
            path = os.path.join(workdir, f"random-{i}.json")
            export_instance(inst.code, inst.errors, path)
            entries.append(_Entry(path, inst.expected_correctable, False, rng.randrange(2**31)))
        self.entries = entries

    def ops(self) -> list[Op]:
        out = []
        for entry in self.entries:
            verdict: dict[str, bool] = {}
            out.append(Op("check", lambda e=entry, v=verdict: self._check(e, v)))
            for proof in ("algebraic", "schmidt"):
                out.append(Op(f"decode-{proof}",
                              lambda e=entry, p=proof, v=verdict: self._decode(e, p, v)))
        return out

    def _check(self, entry: _Entry, verdict: dict[str, bool]) -> list[str]:
        # library instances must reach their hand-derived verdict; random
        # ones only have to get the two checkers to agree (exit 0 or 1)
        expected = {_verdict_exit(entry.expected)} if entry.hand_derived else {0, 1}
        result, problems = self.invoke(["check", entry.path, "--method", "both"], expected)
        verdict["correctable"] = result.exit_code == 0
        return problems

    def _decode(self, entry: _Entry, proof: str, verdict: dict[str, bool]) -> list[str]:
        correctable = verdict.get("correctable", entry.expected)
        result, problems = self.invoke(
            ["decode", entry.path, "--proof", proof, "--seed", str(entry.decode_seed)],
            {_verdict_exit(correctable)},
        )
        return problems + _decode_problems(result, correctable)


# ----------------------------------------------------------------------
# seesaw
# ----------------------------------------------------------------------


class Seesaw(Workload):
    """Both optimize runs to convergence: the optimize layer only."""

    name = "seesaw"

    def setup(self, workdir: str) -> None:
        inst = build_instance("spacetime")
        self.instance = os.path.join(workdir, "spacetime.json")
        export_instance(inst.code, inst.errors, self.instance)
        self.traces = {k: os.path.join(workdir, f"{k}.trace") for k in ("spacetime", "rounds")}
        self.probe_seed = random.Random(self.seed).randrange(2**31)

    def ops(self) -> list[Op]:
        return [
            Op("solve-spacetime", lambda: self._optimize(
                [self.instance, "--logical-dim", "2", "--memory", "1,2"], "spacetime")),
            Op("solve-rounds", lambda: self._optimize(
                ["--ambient-dim", "2", "--logical-dim", "2", "--rounds", "6"], "rounds")),
        ]

    def _optimize(self, args: list[str], key: str) -> list[str]:
        trace = self.traces[key]
        result, problems = self.invoke(
            ["optimize", *args, "--seed", str(OPTIMIZE_SEED), "--trace", trace], {0}
        )
        fid = _parsed(_FINAL, result.stdout)
        if fid is None or fid < OPTIMIZE_TARGET:
            problems.append(f"optimize {key}: fidelity {fid} below {OPTIMIZE_TARGET}")
        with open(trace, encoding="utf-8") as fh:
            fids = [float(line.split()[-1]) for line in fh if line.strip()]
        if not fids or any(b < a - TRACE_SLACK for a, b in zip(fids, fids[1:])):
            problems.append(f"optimize {key}: trace is not nondecreasing")
        return problems

    def probes(self, tracer) -> list[Op]:
        rng = np.random.default_rng(self.probe_seed)
        calls = {}
        for arguments, state in tracer.seesaw_calls:
            key = "spacetime" if state.memory_structure == (1, 2) else "rounds"
            calls[key] = (arguments["errors"], state)

        def ent_fidelity_probe() -> list[str]:
            errors, state = calls["rounds"]
            rho = np.eye(state.logical_dim, dtype=np.complex128) / state.logical_dim
            fid = ent_fidelity(state, errors, rho)
            return [] if abs(fid - state.fidelity) <= 1e-9 else ["ent_fidelity differs from the run"]

        def coordinate_step_probe() -> list[str]:
            errors, state = calls["spacetime"]
            rho = np.eye(state.logical_dim, dtype=np.complex128) / state.logical_dim
            start = initial_state(errors, state.logical_dim, state.memory_structure, rho,
                                  OptimizerConfig(seed=int(rng.integers(2**31))))
            stepped = coordinate_step(start, errors, rho, "encoder")
            ok = stepped.fidelity >= start.fidelity - 1e-10
            return [] if ok else ["coordinate_step decreased the objective"]

        def project_cptp_probe() -> list[str]:
            _, state = calls["spacetime"]
            d_out, d_in = state.encoder_dims
            g = rng.standard_normal((d_out * d_in,) * 2) + 1j * rng.standard_normal((d_out * d_in,) * 2)
            subs = (("out", d_out), ("in", d_in))
            project_cptp(LabeledOperator(subs, subs, (g + g.conj().T) / 2), ("out",))
            return []

        return [Op("probe-ent_fidelity", ent_fidelity_probe),
                Op("probe-coordinate_step", coordinate_step_probe),
                Op("probe-project_cptp", project_cptp_probe)]

    def details(self, records):
        return {
            "solve_spacetime_s": (_median_ms(records, {"solve-spacetime"}) / 1000.0, "s"),
            "solve_rounds_s": (_median_ms(records, {"solve-rounds"}) / 1000.0, "s"),
        }


# ----------------------------------------------------------------------
# dense-comb
# ----------------------------------------------------------------------

ORACLE_PER_STRATUM = 120
ORACLE_BATCHES = 40


class DenseComb(Workload):
    """The cap-size dense comb build, then the factored-vs-dense oracle."""

    name = "dense-comb"

    def setup(self, workdir: str) -> None:
        self.instance = build_instance("spacetime")
        corpus = list(_stratified(random.Random(self.seed), (1,), ORACLE_PER_STRATUM))
        # as many instances of every stratum per operation, so operations
        # cost about the same and their percentiles do not hinge on the draw
        self.batches = [corpus[i::ORACLE_BATCHES] for i in range(ORACLE_BATCHES)]

    def ops(self) -> list[Op]:
        return [Op("comb-build", self._comb_build)] + [
            Op("oracle", lambda batch=batch: [p for inst in batch for p in _oracle(inst)])
            for batch in self.batches
        ]

    def _comb_build(self) -> list[str]:
        inst = self.instance
        interro, errors = inst.code.interrogator, inst.errors
        problems = []
        big = error_comb(errors)
        grouped = enumerate_trajectories(interro)
        total = None
        for memory in interro.final_memories:
            choi = interrogator_operator(interro, memory)
            linked = link_product(big, choi)
            ref = None
            for traj in grouped[memory]:
                for e in errors.sequences():
                    kvec = vectorize(compose_K(errors, interro, e, memory, traj.outcomes))
                    outer = kvec.data @ kvec.data.conj().T
                    ref = outer if ref is None else ref + outer
            diff = permute_subsystems(linked.op, kvec.row_labels).data - ref
            if np.max(np.abs(diff)) > ORACLE_RTOL * max(1.0, float(np.max(np.abs(ref)))):
                problems.append(f"link product differs from the composed sum at {memory!r}")
            if total is None:
                total = choi.op
            else:
                aligned = permute_subsystems(choi.op, total.row_labels)
                total = LabeledOperator(total.row_subsystems, total.col_subsystems,
                                        total.data + aligned.data)
        rounds = interro.rounds
        comb = ChoiOperator(
            total,
            input_labels=tuple(qp_label(r) for r in range(rounds)),
            output_labels=tuple(q_label(r) for r in range(1, rounds + 1)),
        )
        sig = CombSignature(tuple((qp_label(r), q_label(r + 1)) for r in range(rounds)))
        if not validate_comb(comb, sig).valid:
            problems.append("validate_comb reports the interrogator comb invalid")
        return problems

    def details(self, records):
        return {"comb_build_s": (_median_ms(records, {"comb-build"}) / 1000.0, "s")}


def _oracle(inst) -> list[str]:
    """Every branch of one instance: factored against dense composition."""
    problems = []
    for memory, trajectories in enumerate_trajectories(inst.code.interrogator).items():
        for traj in trajectories:
            for e in inst.errors.sequences():
                problems += _oracle_branch(inst, e, memory, traj.outcomes)
    return problems


def _oracle_branch(inst, e, memory, outcomes) -> list[str]:
    """Link product of one branch's dense comb vectors against its composed operator."""
    l = inst.errors.rounds
    evec = error_comb_vector(inst.errors, e)
    e_outer = ChoiOperator(
        LabeledOperator(evec.row_subsystems, evec.row_subsystems, evec.data @ evec.data.conj().T),
        input_labels=tuple(q_label(r) for r in range(l + 1)),
        output_labels=tuple(qp_label(r) for r in range(l + 1)) + (env_label(l),),
    )
    cvec = comb_vector_dense(inst.code.interrogator, memory, outcomes)
    c_outer = ChoiOperator(
        LabeledOperator(cvec.row_subsystems, cvec.row_subsystems, cvec.data @ cvec.data.conj().T),
        input_labels=tuple(qp_label(r) for r in range(l)),
        output_labels=tuple(q_label(r) for r in range(1, l + 1)),
    )
    linked = link_product(e_outer, c_outer)
    kvec = vectorize(compose_K(inst.errors, inst.code.interrogator, e, memory, outcomes))
    k_outer = kvec.data @ kvec.data.conj().T
    diff = permute_subsystems(linked.op, kvec.row_labels).data - k_outer
    if np.max(np.abs(diff)) > ORACLE_RTOL * max(1.0, float(np.max(np.abs(k_outer)))):
        return [f"{inst.name}: dense and factored Choi differ on branch {e}, {outcomes}"]
    return []


WORKLOADS = {w.name: w for w in (HexagonFlow, CorpusSweep, Seesaw, DenseComb)}
