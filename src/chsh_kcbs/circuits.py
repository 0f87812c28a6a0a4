"""Exact qutrit circuit simulation and the ancilla Fourier test.

The gate library covers the eight Gell-Mann generators, subspace
rotations, phase gates, the qutrit Fourier transform, and the
controlled power gate ``|a>|psi> -> |a> U^a |psi>``.  Circuits run on an
ordered list of qutrit registers.  The minimal state is prepared once on
the (alice, bob) pair with Alice's level 2 left empty; every correlator
of the hybrid protocol is then a Fourier test on that prepared state,
with Alice's 2x2 observables embedded into 3x3 by a unit on the dead
level.

The Fourier test turns the expectation of a Hermitian unitary U into
ancilla outcome probabilities: with U^2 = I the ancilla measures
P(0) = (5 + 4<U>)/9 and P(1) = P(2) = (2 - 2<U>)/9, inverted by the
estimators (9 P0 - 5)/4, (2 - 9 P1)/2, and (9 (P0 - P1 - P2) - 1)/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IndexOutOfRange, NotHermitian, NotUnitary
from .linalg import JointState, hermiticity_check, state_vector, tensor, unitarity_check
from .observables import Observable

GATE_UNITARY_TOL = 1e-10
FOURIER_INPUT_TOL = 1e-10
DEAD_LEVEL_TOL = 1e-12

_GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3),
)

SUBSPACES = ((0, 1), (0, 2), (1, 2))


def gell_mann(a: int) -> np.ndarray:
    """Gell-Mann matrix number a, 1 through 8."""
    if not 1 <= a <= 8:
        raise IndexOutOfRange(f"Gell-Mann index must be in [1, 8], got {a}")
    return _GELL_MANN[a - 1].copy()


def subspace_generator(subspace: tuple[int, int], axis: str) -> np.ndarray:
    """Pauli-like generator acting inside one two-level subspace of the qutrit."""
    if tuple(subspace) not in SUBSPACES:
        raise ValueError(f"subspace must be one of {SUBSPACES}, got {subspace!r}")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    table = {
        (0, 1): {"x": gell_mann(1), "y": gell_mann(2), "z": gell_mann(3)},
        (0, 2): {"x": gell_mann(4), "y": gell_mann(5),
                 "z": 0.5 * (gell_mann(3) + math.sqrt(3) * gell_mann(8))},
        (1, 2): {"x": gell_mann(6), "y": gell_mann(7),
                 "z": 0.5 * (-gell_mann(3) + math.sqrt(3) * gell_mann(8))},
    }
    return table[tuple(subspace)][axis]


def rotation(subspace: tuple[int, int], axis: str, theta: float) -> np.ndarray:
    """Qutrit rotation exp(-i theta/2 * generator) on one two-level subspace.

    The closed form is an SU(2) rotation embedded on the named levels with
    the spectator level untouched.
    """
    if tuple(subspace) not in SUBSPACES:
        raise ValueError(f"subspace must be one of {SUBSPACES}, got {subspace!r}")
    i, j = subspace
    half = theta / 2.0
    gate = np.eye(3, dtype=complex)
    if axis == "x":
        gate[i, i] = gate[j, j] = math.cos(half)
        gate[i, j] = gate[j, i] = -1j * math.sin(half)
    elif axis == "y":
        gate[i, i] = gate[j, j] = math.cos(half)
        gate[i, j] = -math.sin(half)
        gate[j, i] = math.sin(half)
    elif axis == "z":
        gate[i, i] = np.exp(-1j * half)
        gate[j, j] = np.exp(1j * half)
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return gate


def phase_gate(alpha: float, beta: float) -> np.ndarray:
    """Diagonal phase gate diag(1, e^{i alpha}, e^{i beta})."""
    return np.diag([1.0, np.exp(1j * alpha), np.exp(1j * beta)]).astype(complex)


def f3() -> np.ndarray:
    """Qutrit Fourier transform, entries omega^{jk}/sqrt(3) with omega = e^{2 pi i/3}."""
    idx = np.arange(3)
    return np.exp(2j * math.pi / 3 * np.outer(idx, idx)) / math.sqrt(3)


def x02() -> np.ndarray:
    """Level swap 0 <-> 2."""
    return np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def controlled_power(u) -> np.ndarray:
    """Controlled power gate: block diagonal (I, U, U^2) in control-level order."""
    u = np.asarray(u, dtype=complex)
    if not unitarity_check(u, GATE_UNITARY_TOL):
        raise NotUnitary("controlled gate needs a unitary within 1e-10")
    d = u.shape[0]
    out = np.zeros((3 * d, 3 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:2 * d, d:2 * d] = u
    out[2 * d:, 2 * d:] = u @ u
    return out


def embed_alice(a2) -> np.ndarray:
    """Embed a 2x2 Alice operator into the qutrit as a direct sum with 1.

    Alice's level 2 carries no amplitude in the protocol, so the unit
    entry changes no expectation value while keeping the operator both
    Hermitian and unitary whenever the input is.
    """
    a2 = np.asarray(a2, dtype=complex)
    out = np.eye(3, dtype=complex)
    out[:2, :2] = a2
    return out


def embed_joint_state(psi) -> np.ndarray:
    """Lift the 6 joint amplitudes onto the 9-dim (alice, bob) qutrit pair."""
    vec = state_vector(psi, dim=6)
    out = np.zeros(9, dtype=complex)
    out[:6] = vec
    return out


@dataclass(frozen=True)
class GateOp:
    """One gate application: a 3^k x 3^k matrix on k consecutive registers."""

    label: str
    matrix: np.ndarray
    first_register: int


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered registers plus an ordered list of gate applications."""

    registers: tuple[str, ...]
    ops: tuple[GateOp, ...]


def run_circuit(spec: CircuitSpec, initial=None) -> np.ndarray:
    """Simulate a circuit exactly, returning the final state vector.

    Every gate must be unitary within 1e-10 and the norm is re-checked
    after each application.  If a register named ``alice`` starts with
    its level 2 empty, it must stay empty after every gate; a breach
    raises RuntimeError since it means the circuit left the protocol's
    qubit subspace.
    """
    n_reg = len(spec.registers)
    dim = 3 ** n_reg
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = state_vector(initial, dim=dim, require_normalized=True).copy()

    alice = spec.registers.index("alice") if "alice" in spec.registers else None

    def alice_level2_weight(vec):
        view = vec.reshape((3,) * n_reg)
        return float(np.max(np.abs(np.take(view, 2, axis=alice))))

    guard_dead_level = alice is not None and alice_level2_weight(state) <= DEAD_LEVEL_TOL

    for op in spec.ops:
        gate = np.asarray(op.matrix, dtype=complex)
        if not unitarity_check(gate, GATE_UNITARY_TOL):
            raise NotUnitary(f"gate {op.label!r} is not unitary within 1e-10")
        span = round(math.log(gate.shape[0], 3))
        if 3 ** span != gate.shape[0] or op.first_register + span > n_reg:
            raise ValueError(f"gate {op.label!r} does not fit the register layout")
        pre = 3 ** op.first_register
        post = dim // (pre * gate.shape[0])
        view = state.reshape(pre, gate.shape[0], post)
        state = np.einsum("ij,ajb->aib", gate, view).reshape(dim)
        norm = float(np.sum(np.abs(state) ** 2))
        if abs(norm - 1.0) > GATE_UNITARY_TOL:
            raise RuntimeError(f"norm drifted to {norm!r} after gate {op.label!r}")
        if guard_dead_level and alice_level2_weight(state) > DEAD_LEVEL_TOL:
            raise RuntimeError(f"alice level 2 became populated after gate {op.label!r}")
    return state


def prepare_state1(theta: float, phi: float) -> JointState:
    """Prepare sin(theta/2)|00> + cos(theta/2) e^{i phi}|12> from |00> with three gates."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta!r}")
    spec = CircuitSpec(registers=("alice", "bob"), ops=(
        GateOp("R01y", rotation((0, 1), "y", math.pi - theta), 0),
        GateOp("D(phi,0)", phase_gate(phi, 0.0), 0),
        GateOp("CX02", controlled_power(x02()), 0),
    ))
    return JointState(run_circuit(spec)[:6])


@dataclass(frozen=True)
class FourierTestReport:
    """Ancilla outcome probabilities of one Fourier test plus the estimators.

    In exact mode ``shots``, ``counts`` and ``seed`` are None and the three
    estimators agree; after :func:`sample_shots` the estimators are
    recomputed from the empirical frequencies while p0, p1, p2 keep the
    exact values that generated the counts.
    """

    p0: float
    p1: float
    p2: float
    estimator_combined: float
    estimator_p0: float
    estimator_p1: float
    shots: int | None = None
    counts: tuple[int, int, int] | None = None
    seed: int | None = None


def _estimators(p0: float, p1: float, p2: float) -> tuple[float, float, float]:
    return ((9.0 * (p0 - p1 - p2) - 1.0) / 8.0,
            (9.0 * p0 - 5.0) / 4.0,
            (2.0 - 9.0 * p1) / 2.0)


def fourier_test_probabilities(u, psi) -> FourierTestReport:
    """Exact Fourier test of a Hermitian unitary U on a normalized state.

    Simulates F3 on the ancilla, the controlled power of U, and the
    inverse F3, then reads off the ancilla distribution.  U is checked
    before the state: Hermiticity here, unitarity by :func:`controlled_power`.
    """
    u = np.asarray(u, dtype=complex)
    if not hermiticity_check(u, FOURIER_INPUT_TOL):
        raise NotHermitian("Fourier test needs a Hermitian operator within 1e-10")
    controlled = controlled_power(u)
    d = u.shape[0]
    vec = state_vector(psi, dim=d, require_normalized=True)

    state = np.zeros(3 * d, dtype=complex)
    state[:d] = vec
    fourier = tensor(f3(), np.eye(d))
    state = fourier @ state
    state = controlled @ state
    state = fourier.conj().T @ state

    probs = [float(np.sum(np.abs(state[a * d:(a + 1) * d]) ** 2)) for a in range(3)]
    combined, from_p0, from_p1 = _estimators(*probs)
    return FourierTestReport(p0=probs[0], p1=probs[1], p2=probs[2],
                             estimator_combined=combined,
                             estimator_p0=from_p0, estimator_p1=from_p1)


def run_hybrid_protocol(state, alice_op, bob_op) -> FourierTestReport:
    """Fourier test of A (x) B on a prepared qubit-qutrit state.

    ``state`` is the joint state, typically from :func:`prepare_state1`;
    ``alice_op`` is a 2x2 observable (or matrix) on the qubit side and
    ``bob_op`` a 3x3 observable on the qutrit side.  Both lift onto the
    (alice, bob) qutrit pair, Alice's operator with a unit on her empty
    level 2.
    """
    a2 = alice_op.matrix if isinstance(alice_op, Observable) else alice_op
    b3 = bob_op.matrix if isinstance(bob_op, Observable) else bob_op
    return fourier_test_probabilities(tensor(embed_alice(a2), b3), embed_joint_state(state))


def sample_shots(report: FourierTestReport, shots: int, seed: int) -> FourierTestReport:
    """Draw multinomial counts from the report's exact probabilities.

    The estimators are recomputed from the empirical frequencies and the
    seed is recorded; identical (seed, shots, probabilities) always give
    identical counts.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = np.array([report.p0, report.p1, report.p2], dtype=float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(shots), probs)
    freqs = counts / float(shots)
    combined, from_p0, from_p1 = _estimators(*freqs)
    return replace(report,
                   estimator_combined=combined, estimator_p0=from_p0,
                   estimator_p1=from_p1, shots=int(shots),
                   counts=(int(counts[0]), int(counts[1]), int(counts[2])),
                   seed=int(seed))


def estimator_stddev(report: FourierTestReport, shots: int) -> float:
    """Shot-noise standard deviation of the combined estimator.

    The combined estimator is an affine map of the frequency difference
    f0 - f1 - f2, whose multinomial variance is (1 - (p0 - p1 - p2)^2)/shots
    because the outcome weights (+1, -1, -1) all square to one.
    """
    mean = report.p0 - report.p1 - report.p2
    variance = max(0.0, 1.0 - mean ** 2)
    return 9.0 / 8.0 * math.sqrt(variance / shots)
