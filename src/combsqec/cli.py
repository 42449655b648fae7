"""Command-line front end.

Exit codes are a stable contract: 0 success (correctable / converged /
fidelity target met), 1 negative verdict, 2 usage or input error, 3
checker disagreement under ``check --method both``, 4 optimizer stopped
at the iteration cap without converging.  No command writes a report
when it exits 2.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from typing import Any, Callable, Iterator, Mapping

import click
import numpy as np

from . import __version__
from .conditions import (
    branch_supports,
    check_algebraic,
    check_info,
    synth_decoder_algebraic,
    synth_decoder_schmidt,
    verify_recovery,
)
from .io import (
    InstanceDocument,
    ParseError,
    encode_matrix,
    export_instance,
    load_instance,
)
from .library import build_instance, instance_names
from .model import ErrorModel, StrategicCode, error_op
from .optimize import OptimizationState, OptimizerConfig, seesaw
from .tolerances import FIDELITY_GATE, FLIP_ATOL


@click.group()
@click.version_option(__version__, prog_name="combsqec")
def main() -> None:
    """Spatio-temporal code checking, decoding, and optimization."""


def _exits(command: Callable[..., int]) -> Callable[..., None]:
    """Exit with the status the command body returns.

    SystemExit is raised after the body has returned, so its traceback
    holds no frame with the loaded instance, and an in-process caller that
    keeps the exception (click's ``CliRunner`` does, in a reference cycle)
    does not keep the instance alive until the next garbage collection.
    """

    @functools.wraps(command)
    def run(**params: Any) -> None:
        sys.exit(command(**params))

    return run


def _fail(message: str, code: int = 2) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load(path: str) -> InstanceDocument:
    try:
        return load_instance(path)
    except (OSError, ParseError) as exc:
        _fail(str(exc))
    raise AssertionError("unreachable")


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Every file a command writes is written inside this block: an OSError
    there exits 2 with a message naming ``path``."""
    try:
        yield
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


def _write_json(path: str, payload: Mapping[str, Any]) -> None:
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_report(path: str | None, payload: Mapping[str, Any]) -> None:
    if path is None:
        return
    _write_json(path, payload)
    click.echo(f"report written to {path}")


def _report_head(command: str, digest: str) -> dict[str, Any]:
    return {"tool": "combsqec", "version": __version__, "command": command, "digest": digest}


def _verdict_word(correctable: bool) -> str:
    return "CORRECTABLE" if correctable else "NOT CORRECTABLE"




# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


@main.command()
@click.argument("path", type=click.Path())
@click.option(
    "--method",
    type=click.Choice(["algebraic", "info", "both"]),
    default="both",
    show_default=True,
    help="Which correctability condition to evaluate.",
)
@click.option(
    "--tol", type=float, default=None,
    help="Override the tolerance: a Frobenius residual with --method algebraic, "
    "bits of entropy deficit with --method info.",
)
@click.option(
    "--report", "report_path", type=click.Path(), default=None,
    help="Write a machine-readable report here.",
)
@_exits
def check(path: str, method: str, tol: float | None, report_path: str | None) -> int:
    """Decide exact correctability of the instance at PATH."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        _fail(f"--tol must be a finite number >= 0, got {tol}")
    if tol is not None and method == "both":
        _fail(
            "--tol needs --method algebraic (a Frobenius residual) or --method info "
            "(an entropy deficit in bits); one number cannot bound both"
        )
    doc = _load(path)
    payload = _report_head("check", doc.digest)
    payload["method"] = method
    results: dict[str, Any] = {}
    try:
        if method in ("algebraic", "both"):
            rep = check_algebraic(doc.code, doc.errors, tol=tol)
            results["algebraic"] = rep
            payload["algebraic"] = {
                "correctable": rep.correctable,
                "worst_residual": rep.worst_residual,
                "tolerance": rep.tolerance,
                "lambda": {m: encode_matrix(lam) for m, lam in rep.detail["lambda"].items()},
                "support": {
                    m: [
                        {"outcomes": list(o), "errors": list(e), "env": eps}
                        for o, e, eps in branches
                    ]
                    for m, branches in rep.detail["support"].items()
                },
            }
        if method in ("info", "both"):
            rep = check_info(doc.code, doc.errors, tol=tol)
            results["info"] = rep
            payload["info"] = {
                "correctable": rep.correctable,
                "worst_deficit_bits": rep.worst_residual,
                "tolerance": rep.tolerance,
                "deficit_bits": dict(rep.detail["deficit_bits"]),
            }
    except ValueError as exc:
        _fail(str(exc))
    for name, rep in results.items():
        click.echo(
            f"{name}: residual {rep.worst_residual:.3e} (tolerance {rep.tolerance:.3e})"
        )
    if method == "both":
        ra, ri = results["algebraic"], results["info"]
        if ra.correctable != ri.correctable:
            payload["verdict"] = "DISAGREEMENT"
            _write_report(report_path, payload)
            click.echo(
                "checker disagreement: algebraic says "
                f"{_verdict_word(ra.correctable)}, information-theoretic says "
                f"{_verdict_word(ri.correctable)}; this is a bug in the tool",
                err=True,
            )
            return 3
    correctable = next(iter(results.values())).correctable
    payload["verdict"] = _verdict_word(correctable)
    click.echo(_verdict_word(correctable))
    _write_report(report_path, payload)
    return 0 if correctable else 1


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------


def _random_codestates(code: StrategicCode, count: int, seed: int) -> np.ndarray:
    """``count`` seeded Gaussian codestates, one per row, from one draw:
    per state the real parts of its k amplitudes, then the imaginary ones."""
    parts = np.random.default_rng(seed).standard_normal((count, 2, code.codespace.dim))
    amps = parts[:, 0] + 1j * parts[:, 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return amps @ code.codespace.basis.T


def _branch_text(branch: tuple) -> str:
    outcomes, errors, eps = branch
    return f"(outcomes {outcomes}, errors {errors}, env {eps})"


@main.command()
@click.argument("path", type=click.Path())
@click.option(
    "--proof",
    type=click.Choice(["algebraic", "schmidt"]),
    default="algebraic",
    show_default=True,
    help="Which proof's decoder construction to synthesize.",
)
@click.option("--samples", type=int, default=20, show_default=True,
              help="Number of seeded random codestates to verify.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write a machine-readable report here.")
@_exits
def decode(
    path: str, proof: str, samples: int, seed: int, report_path: str | None
) -> int:
    """Synthesize a decoder for PATH and verify recovery fidelity."""
    if samples < 0:
        _fail("--samples must be nonnegative")
    if seed < 0:
        _fail("--seed must be nonnegative")
    doc = _load(path)
    payload = _report_head("decode", doc.digest)
    payload["proof"] = proof
    payload["samples"] = samples
    payload["seed"] = seed
    if proof == "algebraic":
        checker, synth = check_algebraic, synth_decoder_algebraic
    else:
        checker, synth = check_info, synth_decoder_schmidt
    try:
        rep = checker(doc.code, doc.errors)
    except ValueError as exc:
        _fail(str(exc))
    if not rep.correctable:
        click.echo(_verdict_word(False))
        if proof == "algebraic":
            i, j, b, bp, memory = rep.witness
            witness = (
                f"codestates ({i}, {j}), branches {_branch_text(b)} vs"
                f" {_branch_text(bp)}, memory {memory!r}"
            )
            click.echo(f"witness: {witness}")
            click.echo(f"worst residual {rep.worst_residual:.3e} > {rep.tolerance:.3e}")
        else:
            (memory,) = rep.witness
            witness = (
                f"memory sector {memory!r}, entropy deficit "
                f"{rep.worst_residual:.3e} bits > {rep.tolerance:.3e}"
            )
            click.echo(f"witness: {witness}")
        payload["verdict"] = _verdict_word(False)
        payload["witness"] = witness
        _write_report(report_path, payload)
        return 1
    try:
        decoder = synth(doc.code, doc.errors)
    except ValueError as exc:
        payload["verdict"] = "SYNTHESIS FAILED"
        payload["error"] = str(exc)
        _write_report(report_path, payload)
        _fail(str(exc), 1)
    click.echo(
        f"decoder synthesized: {len(decoder.kraus)} memory sectors, "
        f"output dim {decoder.output_dim}"
    )
    payload["decoder"] = {
        m: {"kraus_shape": list(np.asarray(k).shape)} for m, k in decoder.kraus.items()
    }
    if samples == 0:
        click.echo("warning: --samples=0 verifies nothing; pass vacuously", err=True)
        payload["worst_fidelity"] = None
        payload["verdict"] = "PASS (vacuous)"
        _write_report(report_path, payload)
        return 0
    states = _random_codestates(doc.code, samples, seed)
    rep = verify_recovery(doc.code, doc.errors, decoder, states)
    # with no record, no codestate reached any final memory and the worst
    # fidelity is a minimum over nothing: the gate fails
    worst = rep.worst_fidelity if rep.records else None
    if worst is None:
        click.echo(f"no codestate out of {samples} reached any final memory: nothing recovered")
    else:
        click.echo(f"worst recovery fidelity over {samples} codestates: {worst:.12f}")
    click.echo(
        "recovered weight per state: "
        + ", ".join(f"{w:.6f}" for w in rep.total_weights)
    )
    payload["worst_fidelity"] = worst
    payload["total_weights"] = list(rep.total_weights)
    ok = worst is not None and worst >= FIDELITY_GATE
    payload["verdict"] = "PASS" if ok else "FAIL"
    _write_report(report_path, payload)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------


def _identity_errors(ambient: int, rounds: int) -> ErrorModel:
    return ErrorModel(tuple((error_op(r, np.eye(ambient)),) for r in range(rounds + 1)))


def _state_document(state: OptimizationState) -> dict[str, Any]:
    return {
        "fidelity": state.fidelity,
        "converged": state.converged,
        "logical_dim": state.logical_dim,
        "memory_structure": list(state.memory_structure),
        "encoder": encode_matrix(state.encoder),
        "instruments": [
            [[encode_matrix(block) for block in family] for family in per_round]
            for per_round in state.instruments
        ],
        "decoders": [encode_matrix(d) for d in state.decoders],
        "rejected_steps": list(state.rejected_steps),
    }


@main.command()
@click.argument("path", type=click.Path(), required=False)
@click.option("--ambient-dim", type=int, default=None,
              help="Ambient dimension for the no-file, no-error mode.")
@click.option("--logical-dim", type=int, default=None,
              help="Logical dimension; overrides the file's optimization block.")
@click.option("--rounds", type=int, default=None,
              help="Check rounds for the no-file mode (default 0).")
@click.option("--memory", type=str, default=None,
              help="Comma-separated memory alphabet sizes per round.")
@click.option("--seed", type=int, default=None)
@click.option("--max-iters", type=int, default=None)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the fidelity trace here, one line per step.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the optimized factors here as JSON.")
@_exits
def optimize(
    path: str | None,
    ambient_dim: int | None,
    logical_dim: int | None,
    rounds: int | None,
    memory: str | None,
    seed: int | None,
    max_iters: int | None,
    trace_path: str | None,
    out_path: str | None,
) -> int:
    """Maximize entanglement fidelity over encoder, checks, and decoder.

    With PATH, the error model comes from the instance file and the logical
    dimension from its optimization block or --logical-dim; --ambient-dim is
    then an error.  Without PATH, --ambient-dim and --logical-dim define a
    no-error model with --rounds check rounds.  With no check rounds the
    see-saw is the encoder/decoder alternation.
    """
    block: dict[str, Any] = {}
    if path is not None:
        if ambient_dim is not None:
            _fail("--ambient-dim applies only without an instance file")
        doc = _load(path)
        errors = doc.errors
        block = doc.optimization or {}
        if rounds is not None and rounds != errors.rounds:
            _fail(
                f"--rounds {rounds} conflicts with the file's {errors.rounds} rounds"
            )
    else:
        if ambient_dim is None or logical_dim is None:
            _fail("without an instance file, --ambient-dim and --logical-dim are required")
        if ambient_dim < 1:
            _fail(f"--ambient-dim must be at least 1, got {ambient_dim}")
        if rounds is not None and rounds < 0:
            _fail(f"--rounds must be at least 0, got {rounds}")
        errors = _identity_errors(ambient_dim, rounds or 0)
    ldim = logical_dim if logical_dim is not None else block.get("logical_dim")
    if ldim is None:
        _fail("no logical dimension: pass --logical-dim or an optimization block")
    if not _is_int(ldim):
        _fail(f"optimization.logical_dim must be an integer, got {ldim!r}")
    if memory is not None:
        try:
            structure = tuple(int(x) for x in memory.split(","))
        except ValueError:
            _fail(f"--memory must be comma-separated integers, got {memory!r}")
    elif "memory_structure" in block:
        structure = block["memory_structure"]
        if not isinstance(structure, list) or not all(map(_is_int, structure)):
            _fail(
                "optimization.memory_structure must be a list of integers, "
                f"got {structure!r}"
            )
        structure = tuple(structure)
    else:
        structure = None
    cfg_fields = block.get("config", {})
    if not isinstance(cfg_fields, dict):
        _fail(f"optimization.config must be an object, got {cfg_fields!r}")
    cfg_fields = dict(cfg_fields)
    if seed is not None:
        cfg_fields["seed"] = seed
    if max_iters is not None:
        cfg_fields["max_iters"] = max_iters
    try:
        config = OptimizerConfig(**cfg_fields)
    except (TypeError, ValueError) as exc:
        _fail(f"bad optimizer config: {exc}")
    try:
        state = seesaw(errors, ldim, memory_structure=structure, config=config)
    except ValueError as exc:
        _fail(str(exc))
    if trace_path is not None:
        with _writing(trace_path), open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(state.trace_lines()) + "\n")
        click.echo(f"trace written to {trace_path}")
    if out_path is not None:
        _write_json(out_path, _state_document(state))
        click.echo(f"state written to {out_path}")
    if errors.require_trace_nonincreasing:
        click.echo(f"final entanglement fidelity: {state.fidelity:.12f}")
    else:
        # the see-saw objective is a fidelity only for trace non-increasing rounds
        click.echo(
            f"final objective (error model not trace non-increasing): {state.fidelity:.12g}"
        )
    if not state.converged:
        click.echo(
            f"did not converge within {state.config.max_iters} cycles", err=True
        )
        return 4
    return 0


# ----------------------------------------------------------------------
# demo
# ----------------------------------------------------------------------


def _flip_sign(signs: str, position: int) -> str:
    chars = list(signs)
    chars[position - 1] = "+" if chars[position - 1] == "-" else "-"
    return "".join(chars)


def _z_on(qubit: int, n: int) -> np.ndarray:
    mat = np.eye(1, dtype=complex)
    for q in range(1, n + 1):
        factor = np.diag([1.0, -1.0]) if q == qubit else np.eye(2)
        mat = np.kron(mat, factor.astype(complex))
    return mat


def _conjugation_flip(code: StrategicCode, r: int, memory: str,
                      error: np.ndarray) -> int | None:
    """Which check of round ``r`` the error flips when commuted through."""
    inst = code.interrogator.instrument(r, memory)
    width = len(next(iter(inst.outcomes)))
    for position in range(1, width + 1):
        if all(
            np.linalg.norm(
                inst.kraus[o].data @ error
                - error @ inst.kraus[_flip_sign(o, position)].data
            )
            <= FLIP_ATOL
            for o in inst.outcomes
        ):
            return position
    return None


@main.command()
@click.argument("name")
@click.option("--export", "export_path", type=click.Path(), default=None,
              help="Write the instance file here.")
@_exits
def demo(name: str, export_path: str | None) -> int:
    """Walk through a built-in instance: check, decode, and explain."""
    try:
        inst = build_instance(name)
    except ValueError as exc:
        _fail(str(exc))
    click.echo(f"instance: {inst.name}")
    click.echo(f"  {inst.note}")
    ra = check_algebraic(inst.code, inst.errors)
    ri = check_info(inst.code, inst.errors)
    click.echo(f"algebraic check: {_verdict_word(ra.correctable)} "
               f"(residual {ra.worst_residual:.3e})")
    click.echo(f"information check: {_verdict_word(ri.correctable)} "
               f"(deficit {ri.worst_residual:.3e} bits)")
    if ra.correctable != ri.correctable:
        click.echo("checker disagreement; this is a bug in the tool", err=True)
        return 3
    if name == "hexagon":
        click.echo("outcome flip pattern by error (round-1 / round-2 check signs):")
        supports = branch_supports(inst.code, inst.errors)
        for k, label in ((0, "Z on qubit 1"), (1, "Z on qubit 2")):
            rows = supports[(k, 0, 0)]
            o1 = sorted({o[0] for o in rows})
            o2 = sorted({o[1] for o in rows})
            click.echo(f"  {label}: o1 = {', '.join(o1)}; "
                       f"o2 branches = {{{', '.join(o2)}}}")
            pos = _conjugation_flip(inst.code, 2, o1[0], _z_on(k + 1, 6))
            if pos is not None:
                click.echo(
                    f"    commutes through the round-2 checks as a flip"
                    f" of check {pos}"
                )
        click.echo(
            "  both errors share the branch sets; the differing per-branch"
            " flips land the encoded states in orthogonal subspaces, where"
            " the branch decoder separates them"
        )
    if ra.correctable:
        decoder = synth_decoder_algebraic(inst.code, inst.errors)
        states = _random_codestates(inst.code, 5, 11)
        rep = verify_recovery(inst.code, inst.errors, decoder, states)
        click.echo(
            f"decoded 5 random codestates: worst fidelity {rep.worst_fidelity:.12f}"
        )
    if export_path is not None:
        with _writing(export_path):
            digest = export_instance(inst.code, inst.errors, export_path)
        click.echo(f"instance written to {export_path} (sha256 {digest})")
    return 0 if ra.correctable else 1


if __name__ == "__main__":
    main()
