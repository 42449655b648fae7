"""Shared fixtures and seeded random constructions for the test suite."""

import numpy as np
import pytest

from combsqec.model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    check_op,
    error_op,
)
from combsqec.tensor import LabeledOperator


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_matrix(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_matrix(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_kraus_set(
    rng: np.random.Generator, d_out: int, d_in: int, count: int
) -> list[np.ndarray]:
    """Kraus operators of a random CPTP map, via a Haar-random isometry."""
    big = random_matrix(rng, d_out * count, d_in)
    q, r = np.linalg.qr(big)
    iso = q[:, :d_in] * (np.diag(r)[:d_in] / np.abs(np.diag(r)[:d_in]))
    return [iso[k * d_out : (k + 1) * d_out, :] for k in range(count)]


def op(matrix, rows, cols) -> LabeledOperator:
    return LabeledOperator(tuple(rows), tuple(cols), np.asarray(matrix, dtype=complex))


def unchecked_errors(kraus_rounds) -> ErrorModel:
    """An unnormalized ErrorModel holding ``kraus_rounds`` past its
    constructor, which rejects non-finite entries: for the code that must
    still cope with a non-finite value, such as one that arises inside a
    computation."""
    model = object.__new__(ErrorModel)
    object.__setattr__(model, "kraus_rounds", tuple(map(tuple, kraus_rounds)))
    object.__setattr__(model, "require_trace_nonincreasing", False)
    return model


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(chars: str) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for ch in chars:
        out = np.kron(out, PAULI[ch])
    return out


def table_entries(comp, env: int) -> dict:
    """{(m, o, e): K_{e,m,o} B} of every block a composed table holds, its
    ``env`` final-environment slices put back in rows q * env + eps (a
    slice the table dropped is zero)."""
    entries: dict = {}
    for m in comp.memories:
        for o, e, eps, block in zip(comp.row[m], comp.err[m], comp.eps[m], comp.blocks[m]):
            key = (m, comp.outcomes[m][o], comp.sequence(e))
            rows, k = block.shape
            entries.setdefault(key, np.zeros((rows * env, k), dtype=complex))[eps::env] = block
    return entries


def noisy_errors(errors: ErrorModel, eps: float) -> ErrorModel:
    """``errors`` with Gaussian noise of size eps on every Kraus operator."""
    rng = np.random.default_rng(0)
    rounds = []
    for ops in errors.kraus_rounds:
        noisy = []
        for k_op in ops:
            noise = rng.standard_normal(k_op.data.shape) + 1j * rng.standard_normal(
                k_op.data.shape
            )
            noisy.append(
                LabeledOperator(
                    k_op.row_subsystems, k_op.col_subsystems, k_op.data + eps * noise
                )
            )
        rounds.append(tuple(noisy))
    return ErrorModel(tuple(rounds), require_trace_nonincreasing=False)


# sign patterns of dephasing_instance's outcomes a, b, c, d
DEPHASING_SIGNS = ((1, -1, 1, -1), (1, 1, 1, 1))


def dephasing_instance(signs):
    """One qubit, both codewords, identity errors and one check round whose
    outcomes a, b, c, d are sign * P0/sqrt2, sign * P0/sqrt2, sign * P1/sqrt2
    and sign * P1/sqrt2, all going to one memory.  Forgetting the outcome
    leaves full dephasing, which no decoder inverts, for every sign
    pattern; with signs (+, -, +, -) each projector's branches cancel in a
    coherent sum over the outcomes."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    kraus = {
        name: check_op(1, sign * proj / np.sqrt(2))
        for name, sign, proj in zip("abcd", signs, (p0, p0, p1, p1))
    }
    interro = Interrogator(
        ({"": CheckInstrument(1, "", kraus)},),
        MemoryUpdate(({(o, ""): "m" for o in kraus},)),
    )
    errors = ErrorModel(tuple((error_op(r, np.eye(2)),) for r in range(2)))
    return StrategicCode(CodeSpace(2, np.eye(2)), interro), errors


def env_dephasing_instance():
    """Zero-round model that copies the qubit basis into an environment."""
    kmat = np.zeros((4, 2), dtype=complex)
    kmat[0, 0] = 1.0
    kmat[3, 1] = 1.0
    code = StrategicCode(
        CodeSpace(2, np.eye(2)), Interrogator((), MemoryUpdate(()))
    )
    errors = ErrorModel(((error_op(0, kmat, env_out=2),),))
    return code, errors


def env_bitflip_instance():
    """The 3-qubit bit-flip code under one Kraus operator that applies I, X1,
    X2 or X3 with amplitude 1/2 and writes which into a 4-dim environment:
    correctable with a final environment wider than 1."""
    basis = np.zeros((8, 2), dtype=complex)
    basis[0, 0] = basis[7, 1] = 1.0
    flips = [pauli_string(s) for s in ("III", "XII", "IXI", "IIX")]
    kmat = sum(np.kron(f, np.eye(4)[:, [j]]) for j, f in enumerate(flips)) / 2.0
    code = StrategicCode(CodeSpace(8, basis), Interrogator((), MemoryUpdate(())))
    return code, ErrorModel(((error_op(0, kmat, env_out=4),),))
