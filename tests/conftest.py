"""Shared fixtures and seeded random constructions for the test suite."""

import numpy as np
import pytest

from combsqec.model import ErrorModel
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


def table_entries(comp) -> dict:
    """{(m, o, e): block} of every block a composed table holds."""
    return {
        (m, comp.outcomes[m][o], comp.sequence(comp.cols[m][c])): block
        for m in comp.memories
        for o, c, block in zip(comp.row[m], comp.col[m], comp.blocks[m])
    }


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
