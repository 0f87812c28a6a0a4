"""Exact qutrit circuit simulation and the ancilla Fourier test.

The gates are the ones the protocol and its reference circuits run: the Y
rotation on levels (0, 1), the phase gate diag(1, e^{i alpha}, 1), the level
swap X02, the Fourier transform F3 and the controlled power gate
``|a>|psi> -> |a> U^a |psi>``.  Past the gates, every function takes and
returns stacks with leading row axes (one state, test or distribution is a
one-row stack), and a gate may be a (k, d, d) stack, so one run on an ordered
list of qutrit registers simulates k circuits.  Every gate and factor is checked
within 1e-10 by ``linalg.check_operators``, the package's one raising operator
check.  The minimal state is prepared on the (alice, bob) pair, Alice's level 2
left empty.  :func:`run_hybrid_tests`, the one Fourier-test entry point, reads
out the tests of A[i, j] (x) B[j] over a (cell, term) grid on the state reshaped
to 2x3, Psi: ancilla block a is F3[a, 0] times Psi, A Psi B^T and
A (A Psi B^T) B^T, then the inverse F3 acts.

With U^2 = I the Fourier test of U measures P(0) = (5 + 4<U>)/9 and P(1) = P(2) =
(2 - 2<U>)/9, inverted by the estimators (9 P0 - 5)/4, (2 - 9 P1)/2 and
(9 (P0 - P1 - P2) - 1)/8 (:func:`estimators`).  A cell draws from its own generator:
:func:`sample_outcome0` its tests' outcome-0 counts in one binomial call, all a
landscape reads, and :func:`sample_shot_stack` then the split of the other shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import STATE_BUILD_TOL, check_normalized, check_operators, state_vector
# Bound only for bench/tracer.py and bench/test_harness.py::test_tracer_self_time_and_restore,
# which read them from this module (ROADMAP item 4); nothing here calls them.
from .linalg import hermiticity_check, unitarity_check  # noqa: F401

GATE_UNITARY_TOL = 1e-10
FOURIER_INPUT_TOL = 1e-10
DEAD_LEVEL_TOL = 1e-12
MAX_SHOTS = int(np.iinfo(np.int64).max)  # the most a binomial draw takes: its count is an int64
# Rows per circuit simulation: cells per preparation group, pairs per KCBS block and (cell,
# term) rows per stack of run_hybrid_tests, so memory is bounded in n and in the grid.  Larger
# stacks buy nothing: reading a group's whole (cells, terms) grid in one readout kept every
# byte, but raised the peak RSS of the n = 21 10x10 grid at 1000 shots from 36.5 to 38.2 MiB
# and of the n = 97 11x11 grid from 36.8 to 44.7 MiB, and the 181x181 n = 5 grid ran no faster.
BLOCK_TERMS = 100


def rotation(theta) -> np.ndarray:
    """Qutrit rotation exp(-i theta/2 * Y) on levels (0, 1), level 2 left alone.

    An array of angles gives a stack of gates, one per angle.
    """
    half = np.asarray(theta, dtype=float) / 2.0
    gate = np.zeros(half.shape + (3, 3), dtype=complex)
    gate[..., 0, 0] = gate[..., 1, 1] = np.cos(half)
    gate[..., 0, 1] = -np.sin(half)
    gate[..., 1, 0] = np.sin(half)
    gate[..., 2, 2] = 1.0
    return gate


def phase_gate(alpha) -> np.ndarray:
    """Diagonal phase gate diag(1, e^{i alpha}, 1); an array of angles gives a stack."""
    alpha = np.asarray(alpha, dtype=float)
    gate = np.zeros(alpha.shape + (3, 3), dtype=complex)
    gate[..., 0, 0] = gate[..., 2, 2] = 1.0
    gate[..., 1, 1] = np.exp(1j * alpha)
    return gate


def f3() -> np.ndarray:
    """Qutrit Fourier transform, entries omega^{jk}/sqrt(3) with omega = e^{2 pi i/3}."""
    idx = np.arange(3)
    return np.exp(2j * math.pi / 3 * np.outer(idx, idx)) / math.sqrt(3)


# Entry (a, b) is F3^dag[a, b] F3[b, 0]: ancilla block b scaled by F3[b, 0], then the inverse F3.
_ANCILLA_WEIGHTS = (f3().conj().T * f3()[:, 0])[..., None, None]


def x02() -> np.ndarray:
    """Level swap 0 <-> 2."""
    return np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def controlled_power(u) -> np.ndarray:
    """Controlled power gate: block diagonal (I, U, U^2) in control-level order."""
    u = np.asarray(u, dtype=complex)
    check_operators(u, "controlled gate", unitary=GATE_UNITARY_TOL)
    d = u.shape[0]
    out = np.zeros((3 * d, 3 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:2 * d, d:2 * d] = u
    out[2 * d:, 2 * d:] = u @ u
    return out


def run_circuit(registers, ops) -> np.ndarray:
    """Simulate a circuit exactly from every register in |0>, returning a (k, 3^registers) stack.

    ``registers`` names the qutrit registers in order and ``ops`` is an ordered
    list of ``(label, gate, first_register)`` triples, each gate a 3^s x 3^s
    matrix on s consecutive registers from ``first_register``.  A gate may be
    a (k, d, d) stack: row r then applies entry r of every stacked gate and
    the one matrix of every other gate (k = 1 with none).  Every gate must be
    unitary within 1e-10, and after each gate every row's norm is re-checked
    and a register named ``alice`` must keep its level 2 empty, as the
    protocol's qubit needs; a breach raises RuntimeError.  Both checks fail
    on NaN, and every error names the gate's label and the first failing
    row, or entry of a stacked gate.
    """
    n_reg = len(registers)
    dim = 3 ** n_reg
    ops = [(label, np.asarray(gate, dtype=complex), first) for label, gate, first in ops]
    sizes = {gate.shape[0] for _, gate, _ in ops if gate.ndim == 3}
    if len(sizes) > 1:
        raise ValueError(f"stacked gates must share one stack size, got {sorted(sizes)}")
    rows = sizes.pop() if sizes else 1
    state = np.zeros((rows, dim), dtype=complex)
    state[:, 0] = 1.0
    alice = registers.index("alice") if "alice" in registers else None

    for label, gate, first in ops:
        check_operators(gate, f"gate {label!r}", unitary=GATE_UNITARY_TOL)
        size = gate.shape[-1]
        span = round(math.log(size, 3))
        if 3 ** span != size or first + span > n_reg:
            raise ValueError(f"gate {label!r} does not fit the register layout")
        pre = 3 ** first
        view = state.reshape(rows, pre, size, dim // (pre * size))
        subscripts = "kij,kajb->kaib" if gate.ndim == 3 else "ij,kajb->kaib"
        state = np.einsum(subscripts, gate, view).reshape(rows, dim)
        norm = np.sum(np.abs(state) ** 2, axis=1)
        ok = np.abs(norm - 1.0) <= GATE_UNITARY_TOL
        if not ok.all():
            bad = np.argmin(ok)
            raise RuntimeError(f"norm drifted to {float(norm[bad])!r} in row {bad} "
                               f"after gate {label!r}")
        if alice is not None:
            level2 = np.take(state.reshape((rows,) + (3,) * n_reg), 2, axis=1 + alice)
            ok = np.max(np.abs(level2.reshape(rows, -1)), axis=1) <= DEAD_LEVEL_TOL
            if not ok.all():
                raise RuntimeError(f"alice level 2 became populated in row {np.argmin(ok)} "
                                   f"after gate {label!r}")
    return state


def prepare_state1(theta, phi) -> np.ndarray:
    """Prepare sin(theta/2)|00> + cos(theta/2) e^{i phi}|12> from |00> with three gates.

    Arrays of k angles give a (k, 6) stack of states from one circuit run,
    one angle pair a (1, 6) stack; each row is normalized within 1e-12 and
    equals the state its angles prepare alone.
    """
    thetas = np.asarray(theta, dtype=float)
    outside = thetas[~((thetas >= 0.0) & (thetas <= math.pi))]
    if outside.size:
        raise ValueError(f"theta must be in [0, pi], got {float(outside[0])!r}")
    states = run_circuit(("alice", "bob"), [("R01y", rotation(math.pi - thetas), 0),
                                            ("D(phi,0)", phase_gate(phi), 0),
                                            ("CX02", controlled_power(x02()), 0)])[:, :6]
    check_normalized(states, STATE_BUILD_TOL)
    return states


@dataclass(frozen=True)
class FourierTestReport:
    """Exact probabilities and estimators of one Fourier test, for :func:`estimator_stddev`."""

    p0: float
    p1: float
    p2: float
    estimator_combined: float
    estimator_p0: float
    estimator_p1: float


def estimators(probs) -> np.ndarray:
    """Estimators (combined, from_p0, from_p1) along the last axis of a (..., 3) stack."""
    p0, p1, p2 = np.moveaxis(np.asarray(probs, dtype=float), -1, 0)
    return np.stack(((9.0 * (p0 - p1 - p2) - 1.0) / 8.0, from_p0(p0), (2.0 - 9.0 * p1) / 2.0), -1)


def from_p0(p0):
    """The estimator (9 P(0) - 5)/4 of <U>, which reads outcome 0 alone."""
    return (9.0 * p0 - 5.0) / 4.0


def run_hybrid_tests(states, alice_ops, bob_ops) -> np.ndarray:
    """(c, t, 3) ancilla distributions of A[i, j] (x) B[j] on state i, over a (cell, term) grid.

    ``states`` is (c, 6), ``alice_ops`` (c, t, 2, 2) or any leading shape that broadcasts to
    (c, t), such as one (1, 1, 2, 2) matrix, and ``bob_ops`` a (t, 3, 3) bank.  The shapes are
    checked first (``DimensionMismatch``), then each factor as given, once, Hermiticity then
    unitarity, then each state's norm.  No product of the two is checked or formed: each acts
    on the 2x3 states at its own shape, in stacks of ``max(1, BLOCK_TERMS // t)`` cells.
    """
    states, alice, bob = (np.asarray(x, dtype=complex) for x in (states, alice_ops, bob_ops))
    if (states.shape[1:] != (6,) or bob.shape[1:] != (3, 3) or alice.shape
            not in [(c, t, 2, 2) for c in {1, len(states)} for t in {1, len(bob)}]):
        raise DimensionMismatch(f"hybrid tests need (c, 6) states, (c, t, 2, 2) and (t, 3, 3) "
                                f"factors, got {states.shape}, {alice.shape} and {bob.shape}")
    for ops, name in ((alice, "Alice factor"), (bob, "Bob factor")):
        check_operators(ops, name, hermitian=FOURIER_INPUT_TOL, unitary=GATE_UNITARY_TOL)
    psi = state_vector(states, dim=6).reshape(-1, 1, 2, 3)
    step = max(1, BLOCK_TERMS // max(len(bob), 1))
    probs = np.empty((len(states), len(bob), 3))
    for cells in (slice(first, first + step) for first in range(0, len(states), step)):
        a = alice[cells] if len(alice) > 1 else alice  # one shared A serves every cell
        probs[cells] = _readout(a, psi[cells], bob)
    return probs


def _readout(alice, psi, bob) -> np.ndarray:
    """Ancilla distributions of checked A (..., 2, 2) and B (..., 3, 3) on 2x3 states Psi, all
    broadcast: (A (x) B) psi is A Psi B^T, written out so every entry is computed alike at any
    stack shape, and summed over one axis of 6, whose order memory layout cannot change."""
    b = bob[..., None, :, :]

    def act(x):
        ax = (alice[..., :, 0, None] * x[..., None, 0, :]
              + alice[..., :, 1, None] * x[..., None, 1, :])
        return (ax[..., :, None, 0] * b[..., 0] + ax[..., :, None, 1] * b[..., 1]
                + ax[..., :, None, 2] * b[..., 2])

    once = act(psi)
    w = _ANCILLA_WEIGHTS
    amps = (w[:, 0] * psi[..., None, :, :] + w[:, 1] * once[..., None, :, :]
            + w[:, 2] * act(once)[..., None, :, :])
    return np.sum(np.abs(amps.reshape(amps.shape[:-2] + (6,))) ** 2, axis=-1)


def check_shots(shots) -> int:
    """A shot count as an int; anything but an integer in [1, MAX_SHOTS] raises ValueError."""
    if type(shots) is bool or not isinstance(shots, int | np.integer) or not 0 < shots <= MAX_SHOTS:
        raise ValueError(f"shots must be an integer in [1, {MAX_SHOTS}], got {shots!r}")
    return int(shots)


def sample_outcome0(p0, shots: int, seeds) -> np.ndarray:
    """Outcome-0 counts of an (m, k) stack of P(0)s: m cells of k Fourier tests each.

    Cell i is one ``np.random.default_rng(seeds[i]).binomial(shots, p0[i])`` call on
    P(0)s clipped to [0, 1], for m seeds or generators; blocks of a cell's tests
    drawn in turn from one generator give the counts of one call.
    """
    shots = check_shots(shots)
    p0 = np.clip(np.asarray(p0, dtype=float), 0.0, 1.0)
    if p0.ndim != 2:
        raise DimensionMismatch(f"outcome-0 sampling needs an (m, k) stack, got shape {p0.shape}")
    return np.stack([np.random.default_rng(seed).binomial(shots, cell)
                     for seed, cell in zip(seeds, p0, strict=True)])


def sample_shot_stack(probs, shots: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Counts and estimators (combined, from_p0, from_p1) of an (m, k, 3) stack.

    Cell i draws from ``np.random.default_rng(seeds[i])`` its outcome-0 counts by
    :func:`sample_outcome0`, then in one more call how each test's other shots
    split between outcomes 1 and 2, at exactly 1/2 since P(1) = P(2).  Only P(0)
    is read, so no last-bit change in P(1) or P(2) moves a count.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 3 or probs.shape[-1] != 3:
        raise DimensionMismatch(f"shot sampling needs an (m, k, 3) stack, got shape {probs.shape}")
    generators = [np.random.default_rng(seed) for seed in seeds]
    first = sample_outcome0(probs[..., 0], shots, generators)  # checks the shot count
    second = np.stack([rng.binomial(rest, 0.5) for rng, rest in zip(generators, shots - first)])
    counts = np.stack([first, second, shots - first - second], axis=-1)
    return counts, estimators(counts / float(shots))


def estimator_stddev(report: FourierTestReport, shots: int) -> float:
    """Shot-noise standard deviation of the combined estimator.

    The combined estimator is an affine map of the frequency difference
    f0 - f1 - f2 = 2 f0 - 1, whose binomial variance 4 p0 (1 - p0)/shots is
    (1 - (p0 - p1 - p2)^2)/shots while the three probabilities sum to one.
    """
    shots = check_shots(shots)
    mean = report.p0 - report.p1 - report.p2
    variance = np.maximum(0.0, 1.0 - mean ** 2)  # NaN propagates, unlike max()
    return 9.0 / 8.0 * math.sqrt(variance / shots)
