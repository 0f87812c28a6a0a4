"""Exact qutrit circuit simulation and the ancilla Fourier test.

The gate library covers subspace rotations, phase gates, the qutrit
Fourier transform, and the controlled power gate
``|a>|psi> -> |a> U^a |psi>``.  Circuits run on an ordered list of
qutrit registers.  The minimal state is prepared once on the
(alice, bob) pair with Alice's level 2 left empty; every correlator of
the hybrid protocol is then a Fourier test on that prepared state, with
Alice's 2x2 observables embedded into 3x3 by a unit on the dead level.

:func:`fourier_tests` is the one Fourier-test readout.  It checks a
stack of k operators at once and simulates all k tests together on a
(k, 3 ancilla, d) state: F3 on the ancilla axis, U on ancilla block 1 and
U U on block 2, then the inverse F3.  :func:`run_hybrid_tests` stacks the
products A_k (x) B_k of one prepared state's correlators for it, so a
landscape cell is one simulation over a per-table bank of Bob's
operators; :func:`run_hybrid_protocol` is the one-product case, returning
a :class:`FourierTestReport`.

The Fourier test turns the expectation of a Hermitian unitary U into
ancilla outcome probabilities: with U^2 = I the ancilla measures
P(0) = (5 + 4<U>)/9 and P(1) = P(2) = (2 - 2<U>)/9, inverted by the
estimators (9 P0 - 5)/4, (2 - 9 P1)/2, and (9 (P0 - P1 - P2) - 1)/8.
:func:`sample_shot_stack` draws the shots of k tests as one stack from
one seeded generator; :func:`sample_shots` is its one-report case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotUnitary
from .linalg import JointState, Observable, hermiticity_check, state_vector, unitarity_check

GATE_UNITARY_TOL = 1e-10
FOURIER_INPUT_TOL = 1e-10
DEAD_LEVEL_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # the most a multinomial draw takes

SUBSPACES = ((0, 1), (0, 2), (1, 2))


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
        raise NotUnitary(f"controlled gate needs a unitary within {GATE_UNITARY_TOL:g}")
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
    Hermitian and unitary whenever the input is.  A stack of 2x2
    operators embeds entry by entry.
    """
    a2 = np.asarray(a2, dtype=complex)
    out = np.zeros(a2.shape[:-2] + (3, 3), dtype=complex)
    out[..., :2, :2] = a2
    out[..., 2, 2] = 1.0
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


def run_circuit(spec: CircuitSpec) -> np.ndarray:
    """Simulate a circuit exactly from every register in |0>, returning the final state vector.

    Every gate must be unitary within 1e-10 and the norm is re-checked
    after each application.  A register named ``alice`` starts with its
    level 2 empty and must keep it empty after every gate; a breach
    raises RuntimeError since it means the circuit left the protocol's
    qubit subspace.  Both checks fail on NaN.
    """
    n_reg = len(spec.registers)
    dim = 3 ** n_reg
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    alice = spec.registers.index("alice") if "alice" in spec.registers else None

    def alice_level2_weight(vec):
        view = vec.reshape((3,) * n_reg)
        return float(np.max(np.abs(np.take(view, 2, axis=alice))))

    for op in spec.ops:
        gate = np.asarray(op.matrix, dtype=complex)
        if not unitarity_check(gate, GATE_UNITARY_TOL):
            raise NotUnitary(f"gate {op.label!r} is not unitary within {GATE_UNITARY_TOL:g}")
        span = round(math.log(gate.shape[0], 3))
        if 3 ** span != gate.shape[0] or op.first_register + span > n_reg:
            raise ValueError(f"gate {op.label!r} does not fit the register layout")
        pre = 3 ** op.first_register
        post = dim // (pre * gate.shape[0])
        view = state.reshape(pre, gate.shape[0], post)
        state = np.einsum("ij,ajb->aib", gate, view).reshape(dim)
        norm = float(np.sum(np.abs(state) ** 2))
        if not abs(norm - 1.0) <= GATE_UNITARY_TOL:
            raise RuntimeError(f"norm drifted to {norm!r} after gate {op.label!r}")
        if alice is not None and not alice_level2_weight(state) <= DEAD_LEVEL_TOL:
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


def fourier_tests(ops, psi) -> np.ndarray:
    """Exact Fourier tests of a stack of Hermitian unitaries on one normalized state.

    ``ops`` has shape (k, d, d) and ``psi`` length d; row i of the (k, 3)
    result is the ancilla distribution (p0, p1, p2) of the test of
    ``ops[i]``.  The whole stack is checked before the state is read: its
    shape (``DimensionMismatch``), then Hermiticity and unitarity, where
    an error names the first failing entry.  The k tests then run as one
    simulation: F3 on the ancilla axis, U on ancilla block 1 and U U on
    block 2, then the inverse F3.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatch(
            f"Fourier test needs a (k, d, d) stack of square operators, got shape {ops.shape}")
    _first_failure(hermiticity_check, ops, FOURIER_INPUT_TOL, NotHermitian, "Hermitian")
    _first_failure(unitarity_check, ops, GATE_UNITARY_TOL, NotUnitary, "unitary")
    d = ops.shape[-1]
    vec = state_vector(psi, dim=d, require_normalized=True)

    fourier = f3()
    state = np.zeros((ops.shape[0], 3, d), dtype=complex)
    state[:, 0] = vec
    state = np.einsum("ab,kbi->kai", fourier, state)
    state[:, 1] = (ops @ state[:, 1, :, None])[..., 0]
    state[:, 2] = ((ops @ ops) @ state[:, 2, :, None])[..., 0]
    state = np.einsum("ab,kbi->kai", fourier.conj().T, state)
    return np.sum(np.abs(state) ** 2, axis=-1)


def _first_failure(check, ops, tol: float, error, what: str) -> None:
    bad = np.flatnonzero(~np.asarray(check(ops, tol)))
    if bad.size:
        raise error(f"Fourier test needs {what} operators within {tol:g}; entry {bad[0]} is not")


def run_hybrid_tests(state, alice_ops, bob_ops) -> np.ndarray:
    """Fourier tests of every A_k (x) B_k on one prepared qubit-qutrit state.

    ``alice_ops`` is a (k, 2, 2) stack of qubit operators and ``bob_ops``
    a (k, 3, 3) stack of qutrit operators.  Each A_k is embedded with a
    unit on Alice's empty level 2, the k products are stacked in one
    einsum, and :func:`fourier_tests` reads them all from ``state`` at
    once.  Returns the (k, 3) ancilla probabilities.
    """
    alice = embed_alice(alice_ops)
    bob = np.asarray(bob_ops, dtype=complex)
    k = alice.shape[0]
    ops = np.einsum("kij,kab->kiajb", alice, bob).reshape(k, 9, 9)
    return fourier_tests(ops, embed_joint_state(state))


def run_hybrid_protocol(state, alice_op, bob_op) -> FourierTestReport:
    """Fourier test of A (x) B on a prepared qubit-qutrit state.

    ``state`` is the joint state, typically from :func:`prepare_state1`;
    ``alice_op`` is a 2x2 observable (or matrix) on the qubit side and
    ``bob_op`` a 3x3 observable on the qutrit side.  This is the
    one-term case of :func:`run_hybrid_tests`.
    """
    a2 = alice_op.matrix if isinstance(alice_op, Observable) else alice_op
    b3 = bob_op.matrix if isinstance(bob_op, Observable) else bob_op
    probs = run_hybrid_tests(state, np.asarray(a2)[None], np.asarray(b3)[None])[0].tolist()
    return FourierTestReport(*probs, *_estimators(*probs))


def check_shots(shots) -> int:
    """A shot count as an int; anything but an integer in [1, MAX_SHOTS] raises ValueError."""
    if type(shots) is bool or not isinstance(shots, int | np.integer) or not 0 < shots <= MAX_SHOTS:
        raise ValueError(f"shots must be an integer in [1, {MAX_SHOTS}], got {shots!r}")
    return int(shots)


def sample_shot_stack(probs, shots: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial counts for a (k, 3) stack of ancilla distributions from one seeded generator.

    Every row is clipped at zero and normalised, and the stack is drawn by
    one ``np.random.default_rng(seed).multinomial`` call.  That equals its
    rows drawn in turn from one generator, which ``seed`` may itself be, so
    blocks of a stack drawn in turn give the same counts.  Returns the (k, 3)
    counts and the (k, 3) estimators (combined, from_p0, from_p1).
    """
    shots = check_shots(shots)
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return counts, np.column_stack(_estimators(*(counts / float(shots)).T))


def sample_shots(report: FourierTestReport, shots: int, seed: int) -> FourierTestReport:
    """Draw multinomial counts from the report's exact probabilities, as one row of a stack.

    The estimators are recomputed from the frequencies and the seed is recorded.
    """
    counts, estimators = sample_shot_stack([[report.p0, report.p1, report.p2]], shots, seed)
    return FourierTestReport(report.p0, report.p1, report.p2, *estimators[0],
                             shots=int(shots), counts=tuple(counts[0].tolist()), seed=int(seed))


def estimator_stddev(report: FourierTestReport, shots: int) -> float:
    """Shot-noise standard deviation of the combined estimator.

    The combined estimator is an affine map of the frequency difference
    f0 - f1 - f2, whose multinomial variance is (1 - (p0 - p1 - p2)^2)/shots
    because the outcome weights (+1, -1, -1) all square to one.
    """
    shots = check_shots(shots)
    mean = report.p0 - report.p1 - report.p2
    variance = np.maximum(0.0, 1.0 - mean ** 2)  # NaN propagates, unlike max()
    return 9.0 / 8.0 * math.sqrt(variance / shots)
