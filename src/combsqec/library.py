"""Built-in example instances.

Each constructor returns a :class:`NamedInstance` bundling a strategic code
with an error model and the verdict the checkers are expected to reach.
The hexagon instance is the smallest adaptive two-round window of a
honeycomb-style measurement schedule; the spacetime instance wraps a tiny
measurement circuit; the two syndrome windows differ only in the memory
their interrogator keeps; ``random_instance`` generates seeded
cross-validation fodder for the checker-equivalence properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

import numpy as np
import numpy.typing as npt

from .conditions import check_algebraic
from .model import (
    CheckInstrument,
    CodeSpace,
    ErrorModel,
    INITIAL_MEMORY,
    Interrogator,
    MemoryUpdate,
    StrategicCode,
    check_op,
    error_op,
)
from .tensor import LabeledOperator
from .tolerances import GRAM_SCHMIDT_FLOOR, P_FLOOR

__all__ = [
    "NamedInstance",
    "bitflip_code",
    "hexagon_honeycomb",
    "spacetime_toy_circuit",
    "random_instance",
    "syndrome_window",
    "instance_names",
    "build_instance",
]

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class NamedInstance:
    """A strategic code, its error model, and the expected verdict."""

    name: str
    code: StrategicCode
    errors: ErrorModel
    expected_correctable: bool
    note: str


def _pauli_string(n: int, placement: Mapping[int, npt.NDArray[np.complex128]]):
    """n-qubit operator with single-qubit factors at 1-based positions."""
    factors = [placement.get(i, _I2) for i in range(1, n + 1)]
    return reduce(np.kron, factors)


def _identity_error_round(r: int, dim: int) -> tuple[LabeledOperator, ...]:
    return (error_op(r, np.eye(dim, dtype=np.complex128)),)


# ----------------------------------------------------------------------
# bit-flip repetition code (static)
# ----------------------------------------------------------------------


def bitflip_code(variant: str = "x") -> NamedInstance:
    """Three-qubit repetition codespace with no check rounds.

    ``variant="x"`` pairs it with the uniform single-bit-flip error set
    {I, X1, X2, X3}/2 (correctable); ``variant="z"`` with {I, Z1}/sqrt(2)
    (not correctable: Z1 acts as logical phase flip).
    """
    basis = np.zeros((8, 2), dtype=np.complex128)
    basis[0, 0] = 1.0   # |000>
    basis[7, 1] = 1.0   # |111>
    codespace = CodeSpace(8, basis)
    code = StrategicCode(codespace, Interrogator((), MemoryUpdate(())))
    if variant == "x":
        ops = [
            _pauli_string(3, {}),
            _pauli_string(3, {1: _X}),
            _pauli_string(3, {2: _X}),
            _pauli_string(3, {3: _X}),
        ]
        errors = ErrorModel((tuple(error_op(0, m / 2.0) for m in ops),))
        return NamedInstance(
            name="bitflip",
            code=code,
            errors=errors,
            expected_correctable=True,
            note="uniform single-X error set on the repetition codespace, "
            "scaled to a trace-preserving channel",
        )
    if variant == "z":
        ops = [_pauli_string(3, {}), _pauli_string(3, {1: _Z})]
        errors = ErrorModel(
            (tuple(error_op(0, m / math.sqrt(2.0)) for m in ops),)
        )
        return NamedInstance(
            name="bitflip-z",
            code=code,
            errors=errors,
            expected_correctable=False,
            note="dephasing variant: Z1 is a logical operator on the "
            "repetition codespace, so no decoder can undo it",
        )
    raise ValueError(f"unknown bitflip variant {variant!r}")


# ----------------------------------------------------------------------
# hexagon honeycomb window (two adaptive projective rounds)
# ----------------------------------------------------------------------

_SIGNS = tuple(
    (s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
)


def _sign_label(signs: tuple[int, int, int]) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


def _pair_projector_kraus(
    pairs: tuple[tuple[int, int], ...],
    two_qubit: npt.NDArray[np.complex128],
) -> dict[str, npt.NDArray[np.complex128]]:
    """Joint-eigenspace projectors of three commuting two-qubit checks."""
    eye = np.eye(64, dtype=np.complex128)
    checks = [
        _pauli_string(6, {a: two_qubit, b: two_qubit}) for a, b in pairs
    ]
    out: dict[str, np.ndarray] = {}
    for signs in _SIGNS:
        proj = eye
        for s, c in zip(signs, checks):
            proj = proj @ (eye + s * c) / 2.0
        out[_sign_label(signs)] = proj
    return out


def _gram_schmidt_of_projector(proj: npt.NDArray[np.complex128], rank: int):
    """First ``rank`` orthonormal columns of a projector, scanned in
    standard-basis order so the choice is deterministic."""
    vecs: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        v = proj[:, j].copy()
        for w in vecs:
            v -= w * (w.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > GRAM_SCHMIDT_FLOOR:
            vecs.append(v / norm)
        if len(vecs) == rank:
            return vecs
    raise ValueError(f"projector has rank below {rank}")


def _hexagon_codespace() -> CodeSpace:
    """A deterministic orthonormal pair inside the joint +1 eigenspace of
    {X1X2, X3X4, X5X6, Z^6}.

    The +1 eigenspace is four-dimensional and splits into two sectors of
    the commuting observable Z1Z2.  Each codeword straddles both sectors
    symmetrically; this makes every first-round branch but all-+1 vanish
    on codestates and keeps all second-round interference terms exactly
    zero for the single-Z error pair below.
    """
    eye = np.eye(64, dtype=np.complex128)
    stabilizers = [
        _pauli_string(6, {1: _X, 2: _X}),
        _pauli_string(6, {3: _X, 4: _X}),
        _pauli_string(6, {5: _X, 6: _X}),
        _pauli_string(6, {i: _Z for i in range(1, 7)}),
    ]
    joint = eye
    for s in stabilizers:
        joint = joint @ (eye + s) / 2.0
    z12 = _pauli_string(6, {1: _Z, 2: _Z})
    plus = _gram_schmidt_of_projector(joint @ (eye + z12) / 2.0, 2)
    minus = _gram_schmidt_of_projector(joint @ (eye - z12) / 2.0, 2)
    basis = np.stack(
        [(p + n) / math.sqrt(2.0) for p, n in zip(plus, minus)], axis=1
    )
    return CodeSpace(64, basis)


def hexagon_honeycomb() -> NamedInstance:
    """Single hexagon of a honeycomb schedule: an XX round then a YY round.

    Six qubits around a hexagon; round 1 measures the XX pairs
    (1,2), (3,4), (5,6) and round 2 the YY pairs (2,3), (4,5), (6,1), each
    as an eight-outcome projective instrument.  The memory stores the full
    outcome history.  The error model applies Z on qubit 1 or qubit 2
    before the first round; the two flip disjoint outcome patterns, which
    is what makes them distinguishable despite the non-commuting rounds.
    """
    round1 = _pair_projector_kraus(((1, 2), (3, 4), (5, 6)), _X)
    round2 = _pair_projector_kraus(((2, 3), (4, 5), (6, 1)), _Y)
    outcomes = tuple(sorted(round1))
    table1 = {(o, INITIAL_MEMORY): o for o in outcomes}
    table2 = {(o2, m1): f"{m1}|{o2}" for o2 in outcomes for m1 in outcomes}
    update = MemoryUpdate((table1, table2))
    inst1 = {INITIAL_MEMORY: CheckInstrument({o: check_op(1, m) for o, m in round1.items()})}
    inst2 = dict.fromkeys(
        outcomes, CheckInstrument({o: check_op(2, mat) for o, mat in round2.items()})
    )
    code = StrategicCode(_hexagon_codespace(), Interrogator((inst1, inst2), update))
    scale = 1.0 / math.sqrt(2.0)
    errors = ErrorModel(
        (
            (
                error_op(0, scale * _pauli_string(6, {1: _Z})),
                error_op(0, scale * _pauli_string(6, {2: _Z})),
            ),
            _identity_error_round(1, 64),
            _identity_error_round(2, 64),
        )
    )
    return NamedInstance(
        name="hexagon",
        code=code,
        errors=errors,
        expected_correctable=True,
        note="codespace pair chosen deterministically as symmetric "
        "combinations across the two Z1Z2 sectors of the stabilizer "
        "eigenspace; the errors are scaled to a trace-preserving channel",
    )


# ----------------------------------------------------------------------
# spacetime toy circuit (CNOT layer, then a single-qubit measurement)
# ----------------------------------------------------------------------


def spacetime_toy_circuit() -> NamedInstance:
    """Two-qubit circuit as a strategic code: CNOT, then measure qubit 2.

    The unitary layer is a single-outcome round; the measurement layer has
    outcomes "0"/"1"; the memory stores the outcome string.  Error slots
    sit between layers, with a bit flip on qubit 1 before the circuit as
    the only nontrivial error: it flips the measured outcome, so the
    record localizes it.
    """
    basis = np.zeros((4, 2), dtype=np.complex128)
    basis[0, 0] = 1.0   # |00>
    basis[3, 1] = 1.0   # |11>
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    )
    p0 = _pauli_string(2, {2: np.array([[1, 0], [0, 0]], dtype=np.complex128)})
    p1 = _pauli_string(2, {2: np.array([[0, 0], [0, 1]], dtype=np.complex128)})
    update = MemoryUpdate(
        (
            {("u", INITIAL_MEMORY): "u"},
            {("0", "u"): "u|0", ("1", "u"): "u|1"},
        )
    )
    inst1 = {INITIAL_MEMORY: CheckInstrument({"u": check_op(1, cnot)})}
    inst2 = {"u": CheckInstrument({"0": check_op(2, p0), "1": check_op(2, p1)})}
    code = StrategicCode(
        CodeSpace(4, basis), Interrogator((inst1, inst2), update)
    )
    scale = 1.0 / math.sqrt(2.0)
    errors = ErrorModel(
        (
            (
                error_op(0, scale * np.eye(4, dtype=np.complex128)),
                error_op(0, scale * _pauli_string(2, {1: _X})),
            ),
            _identity_error_round(1, 4),
            _identity_error_round(2, 4),
        )
    )
    return NamedInstance(
        name="spacetime",
        code=code,
        errors=errors,
        expected_correctable=True,
        note="circuit layers packaged as single-outcome and projective "
        "check rounds; the X1 error before the circuit flips the recorded "
        "measurement outcome",
    )


# ----------------------------------------------------------------------
# syndrome window (memory decides correctability)
# ----------------------------------------------------------------------

WINDOW_ROUNDS = 3


def syndrome_window(
    rounds: int = WINDOW_ROUNDS, last_only: bool = False
) -> NamedInstance:
    """3-qubit repetition code under ``rounds`` {Z1Z2, Z2Z3} syndrome rounds.

    Each check round is the 4-outcome instrument of joint syndrome
    projectors; error rounds 0..rounds-1 each apply one of {I, X1, X2, X3}
    with amplitude 1/2, and the final error round is the identity.  Memory
    holds the full syndrome history, or with ``last_only`` the last
    syndrome only.  The checks and codespace are fixed; only the
    interrogator's classical memory differs, so the memory decides
    correctability, as in the instantaneous-stabilizer schedules of
    dynamical codes (Hastings and Haah, Quantum 5, 564, 2021), with the
    interrogator a quantum comb with classical memory (Chiribella,
    D'Ariano and Perinotti, PRL 101, 060401, 2008; PRA 80, 022339, 2009).

    Verdicts, derived by hand: with full history the instance is
    correctable, because each round's syndrome change names the single X
    applied in it (I, X1, X2, X3 have distinct syndromes 00, 10, 11, 01),
    so the cumulative error is known.  With the last syndrome only it is
    not correctable for two or more rounds: "X1 then X2" and "I then X3"
    both end in syndrome 01, and X1X2 and X3 differ by X1X2X3, a logical
    operator.  For one round the two memories coincide and are correctable.
    """
    if rounds < 1:
        raise ValueError(f"the window needs at least one round, got {rounds}")
    eye = np.eye(8, dtype=np.complex128)
    zz = (_pauli_string(3, {1: _Z, 2: _Z}), _pauli_string(3, {2: _Z, 3: _Z}))
    projectors = {
        f"{a}{b}": (eye + (-1) ** a * zz[0]) @ (eye + (-1) ** b * zz[1]) / 4
        for a in (0, 1)
        for b in (0, 1)
    }
    memories = [INITIAL_MEMORY]
    instruments, tables = [], []
    for r in range(1, rounds + 1):
        table = {
            (s, m): s if last_only else m + s for s in projectors for m in memories
        }
        syndrome = CheckInstrument({s: check_op(r, p) for s, p in projectors.items()})
        instruments.append(dict.fromkeys(memories, syndrome))
        tables.append(table)
        memories = sorted(set(table.values()))
    flips = [_pauli_string(3, {}) / 2.0] + [
        _pauli_string(3, {q: _X}) / 2.0 for q in (1, 2, 3)
    ]
    errors = ErrorModel(
        tuple(tuple(error_op(r, f) for f in flips) for r in range(rounds))
        + (_identity_error_round(rounds, 8),)
    )
    basis = np.zeros((8, 2), dtype=np.complex128)
    basis[0, 0] = basis[7, 1] = 1.0
    interrogator = Interrogator(tuple(instruments), MemoryUpdate(tuple(tables)))
    kind = "last" if last_only else "full"
    return NamedInstance(
        name=f"window-{kind}" if rounds == WINDOW_ROUNDS else f"window-{kind}-{rounds}",
        code=StrategicCode(CodeSpace(8, basis), interrogator),
        errors=errors,
        expected_correctable=not last_only or rounds == 1,
        note=f"{rounds} syndrome rounds on the repetition code with "
        + ("the last syndrome only" if last_only else "the full syndrome history")
        + " in memory; the memory alone decides correctability",
    )


# ----------------------------------------------------------------------
# seeded random instances
# ----------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, rows: int, cols: int):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_complete_kraus(rng: np.random.Generator, d: int, count: int):
    """``count`` operators with sum of K^dag K = I, via a random isometry."""
    q, _ = np.linalg.qr(_ginibre(rng, d * count, d))
    return [q[i * d : (i + 1) * d, :] for i in range(count)]


_RANDOM_OUTCOMES = ("a", "b")


def _random_instrument(rng: np.random.Generator, r: int, d: int) -> CheckInstrument:
    """Random complete round-r instrument on dimension d."""
    ops = _random_complete_kraus(rng, d, len(_RANDOM_OUTCOMES))
    return CheckInstrument({o: check_op(r, op) for o, op in zip(_RANDOM_OUTCOMES, ops)})


def _tp_normalize(ops: list[npt.NDArray[np.complex128]]):
    """Rescale a Kraus list to exact trace preservation."""
    total = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(total)
    if not np.min(vals) >= P_FLOOR:
        raise ValueError("Kraus list is too degenerate to normalize")
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [op @ inv_sqrt for op in ops]


def random_instance(
    seed: int,
    qubits: int = 1,
    rounds: int | None = None,
    adaptive: bool | None = None,
) -> NamedInstance:
    """Seeded random strategic code plus trace-preserving error model.

    One register of ``qubits`` qubits per round; the number of rounds and
    the adaptivity of the instruments are drawn from the seed when not
    pinned.  Adaptive instances draw a fresh instrument per memory state;
    non-adaptive instances share one instrument per round.  The memory
    stores the full outcome history either way, so every final memory
    state pins a single outcome sequence.  The expected verdict is
    computed at build time, so it is a property of the seed rather than
    a promise.
    """
    rng = np.random.default_rng(seed)
    n_rounds = int(rng.integers(0, 3)) if rounds is None else int(rounds)
    is_adaptive = bool(rng.integers(0, 2)) if adaptive is None else bool(adaptive)
    d = 2**qubits
    k = int(rng.integers(1, min(d, 2) + 1))
    basis, _ = np.linalg.qr(_ginibre(rng, d, k))
    codespace = CodeSpace(d, basis)

    instruments: list[dict[str, CheckInstrument]] = []
    tables: list[dict[tuple[str, str], str]] = []
    reachable = [INITIAL_MEMORY]
    for r in range(1, n_rounds + 1):
        table = {
            (o, m): f"{m}|{o}" if m else o
            for m in reachable
            for o in _RANDOM_OUTCOMES
        }
        if is_adaptive:
            instruments.append({m: _random_instrument(rng, r, d) for m in reachable})
        else:
            instruments.append(dict.fromkeys(reachable, _random_instrument(rng, r, d)))
        tables.append(table)
        reachable = sorted(set(table.values()))

    counts = []
    product = 1
    for _ in range(n_rounds + 1):
        c = int(rng.integers(1, 3))
        if product * c > 4:
            c = 1
        counts.append(c)
        product *= c
    kraus_rounds = []
    for r, c in enumerate(counts):
        ops = _tp_normalize([_ginibre(rng, d, d) for _ in range(c)])
        kraus_rounds.append(tuple(error_op(r, op) for op in ops))

    code = StrategicCode(
        codespace, Interrogator(tuple(instruments), MemoryUpdate(tuple(tables)))
    )
    errors = ErrorModel(tuple(kraus_rounds))
    verdict = check_algebraic(code, errors).correctable
    mode = "adaptive" if is_adaptive else "non-adaptive"
    return NamedInstance(
        name=f"random-{seed}",
        code=code,
        errors=errors,
        expected_correctable=verdict,
        note=f"seeded {mode} instance ({n_rounds} rounds, codespace dim {k}); "
        "expected verdict computed by the algebraic checker at build time",
    )


_REGISTRY: dict[str, Callable[[], NamedInstance]] = {
    "bitflip": bitflip_code,
    "bitflip-z": lambda: bitflip_code("z"),
    "hexagon": hexagon_honeycomb,
    "spacetime": spacetime_toy_circuit,
    "window-full": syndrome_window,
    "window-last": lambda: syndrome_window(last_only=True),
}


def instance_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_instance(name: str) -> NamedInstance:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown instance {name!r}; available: {', '.join(instance_names())}"
        ) from None
    return factory()
