"""Tests for the gate library, the register simulator, and the Fourier test."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from chsh_kcbs import (
    DimensionMismatch,
    FourierTestReport,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    chsh_coefficients,
    controlled_power,
    estimator_stddev,
    estimators,
    expectation,
    f3,
    landscape_scan,
    phase_gate,
    prepare_state1,
    rotation,
    run_circuit,
    run_hybrid_tests,
    sample_outcome0,
    sample_shot_stack,
    state1,
    tensor,
    x02,
)
from chsh_kcbs import circuits, linalg
from chsh_kcbs.observables import (alice_rotation, b0_closed_form, bm_bm1_closed_form, kcbs_pair,
                                   kcbs_pairs)
from helpers import fourier_test_circuit, three_register_probabilities


def _cell_bank(n):
    """Bob's factors of a landscape cell's n + 4 terms: B_m B_{m+1}, B_0, B_m B_{m+1}, B_0 for
    CHSH, then each KCBS pair B_j B_{j+1}."""
    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    return np.concatenate([[bm, b0, bm, b0], kcbs_pairs(n, 0, n)])


def test_rotation_identity_and_y_entries():
    assert np.allclose(rotation(0.0), np.eye(3), atol=0)
    theta = 0.77
    mat = rotation(theta)
    assert mat[0, 0] == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert mat[1, 0] == pytest.approx(math.sin(theta / 2), abs=1e-15)
    assert mat[0, 1] == pytest.approx(-math.sin(theta / 2), abs=1e-15)
    assert mat[2, 2] == 1.0


def test_rotation_matches_generator_exponential():
    # exp(-i theta/2 Y) via eigendecomposition of the Pauli-Y generator on levels (0, 1).
    generator = np.zeros((3, 3), dtype=complex)
    generator[0, 1], generator[1, 0] = -1j, 1j
    theta = 1.234
    vals, vecs = np.linalg.eigh(generator)
    expected = vecs @ np.diag(np.exp(-1j * theta / 2 * vals)) @ vecs.conj().T
    assert np.max(np.abs(rotation(theta) - expected)) <= 1e-12


def test_rotation_one_parameter_group():
    for alpha, beta in ((0.3, 1.2), (2.0, -0.7)):
        left = rotation(alpha) @ rotation(beta)
        assert np.max(np.abs(left - rotation(alpha + beta))) <= 1e-12


def test_phase_gate():
    assert np.array_equal(phase_gate(0.0), np.eye(3, dtype=complex))
    assert np.allclose(phase_gate(math.pi), np.diag([1, -1, 1]), atol=1e-15)
    rng = np.random.default_rng(2)
    for alpha in rng.uniform(0, 2 * math.pi, 5):
        gate = phase_gate(alpha)
        assert np.max(np.abs(gate @ gate.conj().T - np.eye(3))) <= 1e-12
        assert gate[2, 2] == 1.0


def test_fourier_transform_gate():
    gate = f3()
    assert np.allclose(gate @ np.array([1, 0, 0]), np.ones(3) / math.sqrt(3), atol=1e-15)
    assert np.max(np.abs(gate.conj().T @ gate - np.eye(3))) <= 1e-12
    omega = np.exp(2j * math.pi / 3)
    assert gate[1, 1] * math.sqrt(3) == pytest.approx(omega, abs=1e-12)


def test_level_swap():
    swap = x02()
    assert np.array_equal(swap @ swap, np.eye(3, dtype=complex))
    assert np.array_equal(swap @ np.array([1, 0, 0]), np.array([0, 0, 1], dtype=complex))


def test_controlled_power_blocks():
    assert np.array_equal(controlled_power(np.eye(3)), np.eye(9, dtype=complex))
    gate = controlled_power(x02())
    assert np.array_equal(gate[3:6, 3:6], x02())
    assert np.array_equal(gate[6:9, 6:9], np.eye(3, dtype=complex))
    assert np.array_equal(gate[0:3, 0:3], np.eye(3, dtype=complex))
    assert np.max(np.abs(gate[0:3, 3:6])) == 0
    with pytest.raises(NotUnitary):
        controlled_power(np.ones((3, 3)))


def test_prepare_state1_special_points():
    assert np.allclose(prepare_state1(math.pi, 0.0)[0], [1, 0, 0, 0, 0, 0], atol=1e-12)
    half = prepare_state1(math.pi / 2, 0.0)[0]
    target = np.zeros(6, dtype=complex)
    target[0] = target[5] = 1 / math.sqrt(2)
    assert abs(np.vdot(target, half)) == pytest.approx(1.0, abs=1e-12)


def test_prepare_state1_gate_by_gate_oracle():
    # Multiply the three gate matrices explicitly and compare with the
    # simulator output, including the tabulated coexistence angle.
    for theta_deg, phi in ((49.605, 0.0), (120.0, 1.9), (10.0, 4.4)):
        theta = math.radians(theta_deg)
        controlled = controlled_power(x02())
        step1 = tensor(rotation(math.pi - theta), np.eye(3))
        step2 = tensor(phase_gate(phi), np.eye(3))
        start = np.zeros(9, dtype=complex)
        start[0] = 1.0
        expected = (controlled @ step2 @ step1 @ start)[:6]
        got = prepare_state1(theta, phi)[0]
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert got[0] == pytest.approx(math.sin(theta / 2), abs=1e-12)
        assert abs(got[5]) == pytest.approx(math.cos(theta / 2), abs=1e-12)


@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.2, 2.0), (2.8, 5.5)])
def test_prepare_state1_fidelity(theta, phi):
    target = state1(theta, phi)
    prepared = prepare_state1(theta, phi)[0]
    assert abs(np.vdot(target, prepared)) == pytest.approx(1.0, abs=1e-12)


def test_run_circuit_targets_named_register():
    # X02 applied to the second register of |00> lifts only Bob's level.
    final = run_circuit(("alice", "bob"), [("swap", x02(), 1)])
    assert final.shape == (1, 9)
    expected = np.zeros(9, dtype=complex)
    expected[2] = 1.0
    assert np.allclose(final[0], expected, atol=1e-15)


def test_run_circuit_guards():
    with pytest.raises(NotUnitary, match="gate 'broken' is not unitary"):
        run_circuit(("alice",), [("broken", np.ones((3, 3), dtype=complex), 0)])
    # A gate wider than the registers after its first does not fit.
    with pytest.raises(ValueError, match="gate 'wide' does not fit the register layout"):
        run_circuit(("alice", "bob"), [("wide", np.eye(9), 1)])
    # A swap into Alice's level 2 must trip the dead-level guard.
    with pytest.raises(RuntimeError, match="alice level 2 became populated"):
        run_circuit(("alice", "bob"), [("lift", rotation(1.0), 0), ("leak", x02(), 0)])


def test_run_circuit_norm_guard_rejects_nan(monkeypatch):
    # Past a unitarity check that let it through, a NaN gate leaves a NaN norm,
    # which the norm-drift guard refuses.
    monkeypatch.setattr(linalg, "unitarity_check", lambda gate, tol: True)
    with pytest.raises(RuntimeError, match="norm drifted"):
        run_circuit(("alice", "bob"), [("nan", np.full((3, 3), np.nan, dtype=complex), 0)])


def test_stacked_prepare_state1_equals_per_angle_calls_to_the_bit():
    # One stacked run gives each cell the state its angles prepare alone,
    # theta = 0 and pi included, as a (k, 6) array; one angle pair is k = 1.
    rng = np.random.default_rng(23)
    thetas = np.concatenate([[0.0, math.pi, 0.0, math.pi], rng.uniform(0, math.pi, 60)])
    phis = np.concatenate([[0.0, 0.0, -1.3, 7.9], rng.uniform(-10, 10, 60)])
    stacked = prepare_state1(thetas, phis)
    assert stacked.shape == (64, 6)
    for row, theta, phi in zip(stacked, thetas.tolist(), phis.tolist()):
        assert row.tobytes() == prepare_state1(theta, phi)[0].tobytes()
    one = prepare_state1(np.array([0.7]), np.array([0.2]))
    assert one.shape == prepare_state1(0.7, 0.2).shape == (1, 6)
    assert one.tobytes() == prepare_state1(0.7, 0.2).tobytes()


def test_stacked_prepare_state1_refuses_an_angle_outside_the_range():
    with pytest.raises(ValueError, match=r"got 3\.5"):
        prepare_state1(np.array([0.1, 3.5, 0.2]), np.zeros(3))
    with pytest.raises(ValueError, match="got nan"):
        prepare_state1(np.array([0.1, math.nan]), np.zeros(2))


def test_stacked_run_circuit_names_the_failing_op_and_entry():
    gates = rotation(np.array([0.1, 0.2, 0.3, 0.4]))
    assert gates.shape == (4, 3, 3)
    gates[2, 0, 0] = 2.0
    with pytest.raises(NotUnitary, match="gate 'R' entry 2 is not unitary"):
        run_circuit(("alice", "bob"), [("swap", x02(), 1), ("R", gates, 0)])
    # Stacked gates must agree on the number of rows.
    with pytest.raises(ValueError, match="one stack size"):
        run_circuit(("alice",), [("a", gates[:2], 0), ("b", gates[:3], 0)])


def test_stacked_run_circuit_guards_fire_per_row(monkeypatch):
    # A swap into Alice's level 2 in row 2 trips the dead-level guard for that row alone.
    leaks = np.array([np.eye(3), np.eye(3), x02(), np.eye(3)])
    with pytest.raises(RuntimeError,
                       match="alice level 2 became populated in row 2 after gate 'leak'"):
        run_circuit(("alice", "bob"), [("lift", rotation(1.0), 0), ("leak", leaks, 0)])
    ops = [("lift", rotation(1.0), 0), ("leak", np.array([np.eye(3)] * 4), 0)]
    assert run_circuit(("alice", "bob"), ops).shape == (4, 9)
    # Past a unitarity check that let it through, a NaN gate in row 1 leaves a NaN norm there.
    monkeypatch.setattr(linalg, "unitarity_check",
                        lambda gate, tol: np.ones(gate.shape[:-2], bool))
    gates = np.array([np.eye(3), np.full((3, 3), np.nan), np.eye(3)], dtype=complex)
    with pytest.raises(RuntimeError, match="norm drifted to nan in row 1 after gate 'nan'"):
        run_circuit(("alice", "bob"), [("nan", gates, 0)])


def test_shot_stack_refuses_a_stack_that_is_not_cells_of_tests():
    # Only an (m, k, 3) stack with m seeds is drawn; a (k, 3) stack is refused.
    for probs in ([[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0], np.ones((1, 1, 1, 3)) / 3):
        with pytest.raises(DimensionMismatch, match="needs an \\(m, k, 3\\) stack"):
            sample_shot_stack(probs, 10, [1])
    assert sample_shot_stack([[[1.0, 0.0, 0.0]]], 10, [1])[0].tolist() == [[[10, 0, 0]]]


def _one_test(u, psi) -> np.ndarray:
    """(p0, p1, p2) of the Fourier test of one operator on one state, simulated as a circuit."""
    return np.array(fourier_test_circuit(u, psi))


def _exact_report(u, psi) -> FourierTestReport:
    """A report carrying one test's exact probabilities, for the shot-noise formula."""
    return FourierTestReport(*_one_test(u, psi).tolist(), 0.0, 0.0, 0.0)


def _one_product(state, alice, bob) -> np.ndarray:
    """(p0, p1, p2) of the Fourier test of one product A (x) B, as a one-cell, one-term grid."""
    a2 = alice.matrix if hasattr(alice, "matrix") else alice
    return run_hybrid_tests(state, np.asarray(a2)[None, None], bob.matrix[None])[0, 0]


def _near_oracle(got, expected) -> bool:
    """The factorised readout and the three-register circuit round differently: within 1e-15."""
    return np.max(np.abs(np.asarray(got) - np.asarray(expected))) <= 1e-15


def _scalar_estimators(p0, p1, p2):
    """The three estimators of one distribution, each formula written out."""
    return [(9.0 * (p0 - p1 - p2) - 1.0) / 8.0, (9.0 * p0 - 5.0) / 4.0, (2.0 - 9.0 * p1) / 2.0]


def test_fourier_probabilities_extreme_expectations():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    assert _one_test(np.eye(2), psi2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert _one_test(-np.eye(2), psi2) == pytest.approx((1 / 9, 4 / 9, 4 / 9), abs=1e-12)
    # <X> = 0 on |0>.
    probs = _one_test(np.array([[0, 1], [1, 0]], dtype=complex), psi2)
    assert probs == pytest.approx((5 / 9, 2 / 9, 2 / 9), abs=1e-12)


def test_fourier_probabilities_validation():
    state, bob = prepare_state1(0.3, 0.0), b0_closed_form(5)
    with pytest.raises(NotHermitian):
        _one_product(state, np.array([[0, 1], [0, 0]], dtype=complex), bob)
    with pytest.raises(NotUnitary):
        _one_product(state, np.diag([1.0, 0.0]), bob)
    with pytest.raises(NotNormalized):
        _one_product(2.0 * state, np.eye(2), bob)


def test_fourier_test_checks_the_operator_before_the_state():
    # A non-unitary U is reported even when the state is bad as well.
    bad_state, bob = 2.0 * prepare_state1(0.3, 0.0), b0_closed_form(5)
    with pytest.raises(NotUnitary):
        _one_product(bad_state, np.diag([1.0, 0.0]), bob)
    with pytest.raises(NotHermitian):
        _one_product(bad_state, np.array([[0, 1], [0, 0]], dtype=complex), bob)


def test_fourier_estimators_agree_in_exact_mode():
    rng = np.random.default_rng(12)
    for _ in range(10):
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = raw / np.linalg.norm(raw)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        reflection = 2 * np.outer(v, v.conj()) - np.eye(6)
        p0, p1, p2 = _one_test(reflection, psi)
        direct = expectation(psi, reflection)
        # The readout every estimator inverts: P0 = (5 + 4<U>)/9, P1 = P2 = (2 - 2<U>)/9.
        assert p0 == pytest.approx((5 + 4 * direct) / 9, abs=1e-12)
        assert p1 == pytest.approx((2 - 2 * direct) / 9, abs=1e-12)
        assert p2 == pytest.approx((2 - 2 * direct) / 9, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_hybrid_protocol_matches_analytic_correlators():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.choice([5, 7, 9]))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        psi = state1(theta, phi)
        co = chsh_coefficients(psi, n)
        alice = alice_rotation(float(rng.choice([co.omega0, co.omega2, 0.0])))
        pick = rng.integers(0, 3)
        if pick == 0:
            bob = b0_closed_form(n)
        elif pick == 1:
            bob = bm_bm1_closed_form(n)
        else:
            bob = kcbs_pair(n, int(rng.integers(0, n)))
        p0, p1, p2 = _one_product(prepare_state1(theta, phi), alice, bob)
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        assert estimators([[p0, p1, p2]])[0, 0] == pytest.approx(direct, abs=1e-10)
        assert p1 == pytest.approx(p2, abs=1e-12)


def test_hybrid_protocol_matches_three_register_circuit():
    # The protocol as one circuit on (ancilla, alice, bob): the three
    # preparation gates on Alice's register, then F3, C-U^a and F3^dag on
    # the ancilla, with run_circuit's dead-level guard watching Alice.
    # Preparing once and reading the test out on the prepared 2x3 state
    # gives the same ancilla probabilities within 1e-15.
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.choice([5, 7, 9]))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        alice = (alice_rotation(float(rng.uniform(0, 2 * math.pi))) if rng.uniform() < 0.75
                 else np.eye(2))
        bob = (b0_closed_form(n), bm_bm1_closed_form(n),
               kcbs_pair(n, int(rng.integers(0, n))))[int(rng.integers(0, 3))]
        a2 = alice.matrix if hasattr(alice, "matrix") else alice
        expected = three_register_probabilities(theta, phi, a2, bob.matrix)
        assert _near_oracle(_one_product(prepare_state1(theta, phi), a2, bob), expected)


def test_stacked_cell_matches_three_register_circuit():
    # Every term of a landscape cell, run as a one-cell grid against the Bob
    # bank, gives the three-register circuit's probabilities within 1e-15.
    rng = np.random.default_rng(41)
    for n in (5, 7, 9, 21):
        bank = _cell_bank(n)
        for theta in (0.0, math.pi, *rng.uniform(0, math.pi, 2).tolist()):
            phi = float(rng.uniform(0, 2 * math.pi))
            state = prepare_state1(theta, phi)
            co = chsh_coefficients(state[0], n)
            r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
            alice = np.array([r2, r2, r0, r0] + [np.eye(2)] * n)
            probs = run_hybrid_tests(state, alice[None], bank)
            assert probs.shape == (1, n + 4, 3)
            for term in range(n + 4):
                expected = three_register_probabilities(theta, phi, alice[term], bank[term])
                assert _near_oracle(probs[0, term], expected)


def test_cell_term_grid_equals_one_row_calls_and_the_three_register_circuit():
    # A (cells, terms) grid with theta = 0 and pi among its cells: entry (i, j)
    # is the test of A[i, j] (x) B[j] on state i, with the bits of that one
    # cell and term run alone, and within 1e-15 of the three-register circuit.
    rng = np.random.default_rng(43)
    n = 7
    bank = _cell_bank(n)
    thetas = np.array([0.0, math.pi, *rng.uniform(0, math.pi, 2)])
    phis = rng.uniform(0, 2 * math.pi, 4)
    states = prepare_state1(thetas, phis)
    alice = np.array([[alice_rotation(w).matrix for w in rng.uniform(0, 2 * math.pi, n + 3)]
                      + [np.eye(2)] for _ in range(4)])
    grid = run_hybrid_tests(states, alice, bank)
    assert grid.shape == (4, n + 4, 3)
    for i, (theta, phi) in enumerate(zip(thetas.tolist(), phis.tolist())):
        for j in range(n + 4):
            alone = run_hybrid_tests(states[i:i + 1], alice[i:i + 1, j:j + 1], bank[j:j + 1])
            assert grid[i, j].tobytes() == alone[0, 0].tobytes()
            expected = three_register_probabilities(theta, phi, alice[i, j], bank[j])
            assert _near_oracle(grid[i, j], expected)


@pytest.mark.parametrize("block_terms, terms", [(8, 3), (4, 9)])
def test_a_grid_of_more_than_block_terms_rows_runs_in_bounded_stacks(monkeypatch, block_terms,
                                                                       terms):
    # 7 cells by t terms is more than BLOCK_TERMS rows.  The grid is simulated in
    # stacks of BLOCK_TERMS // t cells, or of one cell when t > BLOCK_TERMS, and
    # every entry keeps the bits of its one-cell, one-term call.
    monkeypatch.setattr(circuits, "BLOCK_TERMS", block_terms)
    stacks, readout = [], circuits._readout

    def readout_spy(alice, psi, bob):
        stacks.append(np.broadcast_shapes(alice.shape[:-2], psi.shape[:-2], bob.shape[:-2]))
        return readout(alice, psi, bob)

    rng = np.random.default_rng(47)
    states = prepare_state1(rng.uniform(0, math.pi, 7), rng.uniform(0, 2 * math.pi, 7))
    alice = np.array([[alice_rotation(w).matrix for w in row]
                      for row in rng.uniform(0, 2 * math.pi, (7, terms))])
    bank = _cell_bank(7)[:terms]
    monkeypatch.setattr(circuits, "_readout", readout_spy)
    grid = run_hybrid_tests(states, alice, bank)
    cells = max(1, block_terms // terms)
    assert stacks == [(min(cells, 7 - first), terms) for first in range(0, 7, cells)]
    assert max(c * t for c, t in stacks) <= max(terms, block_terms)
    for i in range(7):
        for j in range(terms):
            alone = run_hybrid_tests(states[i:i + 1], alice[i:i + 1, j:j + 1], bank[j:j + 1])
            assert grid[i, j].tobytes() == alone[0, 0].tobytes()


def test_a_hundred_by_hundred_grid_traces_a_bounded_peak():
    # All 10000 (cell, term) products at once traced 30.8 MiB; stacks of at most
    # BLOCK_TERMS rows keep one call's peak below 4 MiB.
    states = prepare_state1(np.linspace(0, math.pi, 100), np.linspace(0, 2 * math.pi, 100))
    alice = np.array([[alice_rotation(0.01 * (i + j)).matrix for j in range(100)]
                      for i in range(100)], dtype=complex)
    bank = _cell_bank(97)[:100]
    tracemalloc.start()
    try:
        grid = run_hybrid_tests(states, alice, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (100, 100, 3)
    assert peak < 4 * 2**20


def test_a_circuit_landscape_checks_each_factor_stack_once_per_term_block(monkeypatch):
    # n = 97 on 11 x 11 cells: two preparation groups of 100 and 21 cells, each
    # running its 4 CHSH terms and its 97 KCBS pairs as one grid each.  Each
    # (group, grid) checks its Alice factor and its Bob bank once, however many
    # stacks it simulates: a CHSH grid its (c, 4) rotations, a KCBS grid one
    # shared identity, never a copy per cell or pair.
    checked, check = [], circuits.check_operators

    def check_spy(ops, name, **tols):
        if name.endswith("factor"):
            checked.append((name, np.shape(ops)))
        return check(ops, name, **tols)

    monkeypatch.setattr(circuits, "check_operators", check_spy)
    table = landscape_scan(97, np.linspace(0, 180, 11), np.linspace(0, 360, 11), mode="circuit",
                           shots=100, seed=3)
    assert sum(len(block) for block in table.blocks()) == 121
    assert checked == [check for c in (100, 21) for t, alice in ((4, (c, 4)), (97, (1, 1)))
                       for check in (("Alice factor", alice + (2, 2)), ("Bob factor", (t, 3, 3)))]


@pytest.mark.parametrize("factor, entry, bad, error", [
    ("Alice", 5, [[1.0, 0.5], [0.0, 1.0]], NotHermitian),
    ("Alice", 1, np.diag([1.0, 0.5]), NotUnitary),
    ("Alice", 4, np.full((2, 2), np.nan), NotHermitian),
    ("Bob", 2, np.triu(np.ones((3, 3))), NotHermitian),
    ("Bob", 1, np.diag([1.0, 1.0, 0.5]), NotUnitary),
])
def test_hybrid_tests_check_each_factor_before_the_states(factor, entry, bad, error):
    # A bad entry of either factor stack raises, naming the factor and the
    # entry (row-major over the (cell, term) grid for Alice), even when the
    # states are bad too; good factors with a bad state reach the norm check.
    states = prepare_state1([0.3, 1.2], [0.0, 0.5])
    alice = np.array([[alice_rotation(0.4).matrix, alice_rotation(1.9).matrix, np.eye(2)]] * 2)
    bob = np.array([b0_closed_form(5).matrix, bm_bm1_closed_form(5).matrix,
                    kcbs_pair(5, 2).matrix])
    bad_states = states * np.array([[1.0], [2.0]])
    with pytest.raises(NotNormalized, match="in row 1"):
        run_hybrid_tests(bad_states, alice, bob)
    stack = alice if factor == "Alice" else bob
    stack.reshape((-1,) + stack.shape[-2:])[entry] = bad
    for psi in (states, bad_states):
        with pytest.raises(error, match=f"{factor} factor entry {entry} is not"):
            run_hybrid_tests(psi, alice, bob)


@pytest.mark.parametrize("states, alice, bob", [
    ((2, 6), (2, 3, 3, 3), (3, 3, 3)),  # Alice already embedded
    ((2, 6), (6, 2, 2), (3, 3, 3)),  # Alice as (c t) rows
    ((2, 6), (3, 3, 2, 2), (3, 3, 3)),  # one Alice row of cells too many
    ((2, 6), (2, 2, 2, 2), (3, 3, 3)),  # one term too few
    ((2, 6), (2, 3, 2, 2), (3, 2, 2)),  # Bob as qubit operators
    ((2, 6), (2, 3, 2, 2), (1, 3, 3, 3)),  # Bob with a cell axis
    ((2, 6), (2, 3, 2, 2), (4, 3, 3)),  # one Bob term too many
    ((6,), (2, 3, 2, 2), (3, 3, 3)),  # a bare state
    ((2, 9), (2, 3, 2, 2), (3, 3, 3)),  # states already embedded
    ((1, 6), (2, 3, 2, 2), (3, 3, 3)),  # one state too few
    ((2, 6, 1), (2, 3, 2, 2), (3, 3, 3)),
    ((2, 6), (1, 2, 2, 2), (3, 3, 3)),  # a shared Alice row with a term count of its own
    ((2, 6), (1, 1, 3, 3), (3, 3, 3)),  # one shared Alice matrix, already embedded
    ((2, 6), (1, 2, 2), (3, 3, 3)),  # one shared Alice matrix with no cell axis
])
def test_hybrid_tests_refuse_misshaped_inputs(states, alice, bob):
    # Every shape problem is a DimensionMismatch naming the three shapes.
    with pytest.raises(DimensionMismatch, match=re.escape(f"got {states}, {alice} and {bob}")):
        run_hybrid_tests(np.zeros(states), np.zeros(alice), np.zeros(bob))


@pytest.mark.parametrize("block_terms", [100, 10, 4])
@pytest.mark.parametrize("shared", [(1, 1), (4, 1), (1, 5)])
def test_a_shared_alice_factor_gives_the_bits_of_its_materialised_grid(monkeypatch, block_terms,
                                                                        shared):
    # An Alice factor shared over the cells, the terms or both gives, entry by
    # entry, the bits of the same factor copied out to the whole (c, t) grid,
    # in one stack or in stacks of fewer cells.
    monkeypatch.setattr(circuits, "BLOCK_TERMS", block_terms)
    rng = np.random.default_rng(53)
    states = prepare_state1(rng.uniform(0, math.pi, 4), rng.uniform(0, 2 * math.pi, 4))
    alice = np.array([[alice_rotation(w).matrix for w in row]
                      for row in rng.uniform(0, 2 * math.pi, shared)])
    bank = _cell_bank(7)[2:7]
    grid = run_hybrid_tests(states, alice, bank)
    copied = run_hybrid_tests(states, np.array(np.broadcast_to(alice, (4, 5, 2, 2))), bank)
    assert grid.shape == (4, 5, 3)
    assert grid.tobytes() == copied.tobytes()


def test_a_shared_non_unitary_alice_factor_is_refused_before_any_state_is_read(monkeypatch):
    # The one (1, 1) factor is checked as given, so its error names entry 0, and
    # no state is read or normalised: bad states do not change the error.
    def no_state(psi, dim):
        raise AssertionError("a state was read before the factors were checked")

    monkeypatch.setattr(circuits, "state_vector", no_state)
    bob = np.array([b0_closed_form(5).matrix, kcbs_pair(5, 1).matrix, kcbs_pair(5, 4).matrix])
    states = prepare_state1([0.3, 1.2], [0.0, 0.5])
    for psi in (states, 2.0 * states, np.full((2, 6), np.nan)):
        with pytest.raises(NotUnitary, match="Alice factor entry 0 is not unitary"):
            run_hybrid_tests(psi, np.diag([1.0, 0.5])[None, None], bob)


def test_stack_checks_every_entry_before_the_state():
    rng = np.random.default_rng(5)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    good = 2 * np.outer(v, v.conj()) - np.eye(3)
    alice = np.array([[np.eye(2)] * 4])
    bad_state = 2.0 * prepare_state1(1.0, 0.2)
    stack = np.array([good, -good, np.eye(3), good])
    stack[2:, 0, 1] += 0.5
    with pytest.raises(NotHermitian, match="entry 2 "):
        run_hybrid_tests(bad_state, alice, stack)
    stack = np.array([good, -good, np.eye(3), np.diag([1.0, 1.0, 0.5])])
    with pytest.raises(NotUnitary, match="entry 3 "):
        run_hybrid_tests(bad_state, alice, stack)
    # A non-unitary Alice entry fails its factor's check, before the products are formed.
    alice = np.array([np.eye(2), np.diag([1.0, 0.5])])
    bob = np.array([b0_closed_form(5).matrix] * 2)
    with pytest.raises(NotUnitary, match="entry 1 "):
        run_hybrid_tests(prepare_state1(1.0, 0.2), alice[None], bob)
    # A good stack gives the one-operator readout row by row.
    state, alice = prepare_state1(1.0, 0.2), np.array([[np.eye(2)] * 2])
    rows = run_hybrid_tests(state, alice, np.array([good, -good]))[0]
    for row, u in zip(rows, (good, -good)):
        assert row.tolist() == run_hybrid_tests(state, alice[:, :1], u[None])[0, 0].tolist()


def test_fourier_tests_read_one_state_per_row():
    # Row r of a stack of states feeds the tests of cell r, with the bits of a
    # one-cell call: entry (r, r) of this grid is A_r (x) B_r on state r.
    rng = np.random.default_rng(29)
    states = prepare_state1(rng.uniform(0, math.pi, 5), rng.uniform(0, 2 * math.pi, 5))
    alice = np.array([alice_rotation(w).matrix for w in rng.uniform(0, 2 * math.pi, 5)])
    bob = np.array([b0_closed_form(7).matrix, bm_bm1_closed_form(7).matrix,
                    *(kcbs_pair(7, j).matrix for j in (0, 3, 6))])
    rows = run_hybrid_tests(states, np.array([alice] * 5), bob)
    for r in range(5):
        alone = run_hybrid_tests(states[r:r + 1], alice[None, r:r + 1], bob[r:r + 1])
        assert rows[r, r].tobytes() == alone[0, 0].tobytes()
    with pytest.raises(DimensionMismatch, match=r"got \(4, 6\), \(5, 5, 2, 2\) and \(5, 3, 3\)"):
        run_hybrid_tests(states[:4], np.array([alice] * 5), bob)
    # Each state's norm is checked, after the operators.
    bad = states.copy()
    bad[3] *= 2.0
    with pytest.raises(NotNormalized, match="in row 3"):
        run_hybrid_tests(bad, np.array([alice] * 5), bob)
    bob[1, 0, 1] += 0.5
    with pytest.raises(NotHermitian, match="entry 1 "):
        run_hybrid_tests(bad, np.array([alice] * 5), bob)


def test_shot_stack_of_cells_draws_each_cell_from_its_own_generator():
    # An (m, k, 3) stack with m seeds gives each cell the draw of its own call.
    rng = np.random.default_rng(31)
    probs = rng.dirichlet(np.ones(3), size=(4, 6))
    seeds = [3, 11, 2**40, 0]
    counts, estimates = sample_shot_stack(probs, 500, seeds)
    assert counts.shape == estimates.shape == (4, 6, 3)
    for cell, seed in enumerate(seeds):
        alone_counts, alone_estimates = sample_shot_stack(probs[cell:cell + 1], 500, [seed])
        assert counts[cell].tolist() == alone_counts[0].tolist()
        assert estimates[cell].tobytes() == alone_estimates[0].tobytes()
    # Generators continue their streams: two halves of the outcome-0 draw, drawn in
    # turn, give the whole, which leads each cell's stream in the three-count draw.
    generators = [np.random.default_rng(seed) for seed in seeds]
    first = sample_outcome0(probs[:, :2, 0], 500, generators)
    second = sample_outcome0(probs[:, 2:, 0], 500, generators)
    whole = sample_outcome0(probs[..., 0], 500, seeds)
    assert np.concatenate([first, second], axis=1).tolist() == whole.tolist()
    assert counts[..., 0].tolist() == whole.tolist()
    with pytest.raises(ValueError):
        sample_shot_stack(probs, 500, seeds[:3])
    with pytest.raises(ValueError):
        sample_outcome0(probs[..., 0], 500, seeds[:3])
    with pytest.raises(DimensionMismatch, match="needs an \\(m, k\\) stack"):
        sample_outcome0(probs, 500, seeds)


def test_identity_alice_setting():
    theta, phi, n = 1.1, 0.7, 5
    psi = state1(theta, phi)
    bob = kcbs_pair(n, 2)
    probs = _one_product(prepare_state1(theta, phi), np.eye(2), bob)
    direct = expectation(psi, tensor(np.eye(2), bob.matrix))
    assert estimators(probs[None])[0, 0] == pytest.approx(direct, abs=1e-10)


def test_a_product_acts_on_the_2x3_state_as_a_psi_b_transpose():
    # The readout's identity: (A (x) B) psi is A Psi B^T on the state reshaped to 2x3,
    # row j Alice's level and column k Bob's, so <A (x) B> is <Psi, A Psi B^T>.
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        omega = float(rng.uniform(0, 2 * math.pi))
        psi6 = state1(theta, phi)
        a2 = alice_rotation(omega).matrix
        b3 = kcbs_pair(7, int(rng.integers(0, 7))).matrix
        psi = psi6.reshape(2, 3)
        acted = a2 @ psi @ b3.T
        assert np.max(np.abs(acted.ravel() - tensor(a2, b3) @ psi6)) <= 1e-15
        assert np.vdot(psi, acted).real == pytest.approx(expectation(psi6, tensor(a2, b3)),
                                                         abs=1e-15)


def test_shot_stack_degenerate_and_reproducible():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    counts, sampled = sample_shot_stack(_one_test(np.eye(2), psi2)[None, None], 1, [123])
    assert counts.tolist() == [[[1, 0, 0]]]
    assert sampled.tolist() == [[_scalar_estimators(1.0, 0.0, 0.0)]]

    probs = _one_product(prepare_state1(0.9, 0.4), alice_rotation(0.3),
                         b0_closed_form(5))[None, None]
    first, _ = sample_shot_stack(probs, 4096, [7])
    second, _ = sample_shot_stack(probs, 4096, [7])
    assert first.tolist() == second.tolist()
    assert first.sum() == 4096
    third, _ = sample_shot_stack(probs, 4096, [8])
    assert third.tolist() != first.tolist()


def test_shot_stack_matches_rows_drawn_in_turn():
    # Scheme 3: a cell draws its rows' outcome-0 counts in turn, then splits each row's
    # other shots at exactly 1/2 in turn, from one generator; only P(0) is read.
    state = prepare_state1(0.9, 0.4)
    probs = run_hybrid_tests(state, np.array([[alice_rotation(0.3).matrix, np.eye(2)]]),
                             np.array([b0_closed_form(5).matrix, kcbs_pair(5, 1).matrix]))[0]
    # Add a degenerate row and a row whose tiny negative entry the clip removes.
    probs = np.vstack([probs, [1.0, 0.0, 0.0], [0.5, 0.5 + 1e-17, -1e-17]])
    for seed in (11, 2**40 + 3, 0):
        counts, estimates = sample_shot_stack(probs[None], 777, [seed])
        assert counts.shape == estimates.shape == (1, 4, 3)
        counts, estimates = counts[0], estimates[0]
        # Row 0's outcome-0 count, and so its from_p0 estimate, is the draw a one-row
        # stack makes at the same seed; its split comes later in this stack's stream.
        alone_counts, alone_estimators = sample_shot_stack(probs[None, :1], 777, [seed])
        assert counts[0, 0] == alone_counts[0, 0, 0]
        assert estimates[0, 1] == alone_estimators[0, 0, 1]
        # The stack is its rows' clipped P(0)s drawn in turn from one generator, then
        # each row's other shots split in turn.
        rng = np.random.default_rng(seed)
        first = [rng.binomial(777, min(max(p0, 0.0), 1.0)) for p0 in probs[:, 0].tolist()]
        second = [rng.binomial(777 - c0, 0.5) for c0 in first]
        assert counts.tolist() == [[c0, c1, 777 - c0 - c1] for c0, c1 in zip(first, second)]
        for row_counts, row_estimators in zip(counts, estimates):
            assert row_estimators.tolist() == _scalar_estimators(*(row_counts / 777.0).tolist())
        assert counts[2].tolist() == [777, 0, 0]
    with pytest.raises(ValueError):
        sample_shot_stack(probs[None], 0, [11])


def test_estimators_of_a_stack_are_the_scalar_formulas_to_the_bit():
    # Each row of the stack goes through the three formulas written out for
    # Python floats, a degenerate row and a NaN row included.
    rng = np.random.default_rng(19)
    probs = np.vstack([rng.dirichlet(np.ones(3), size=6), [1.0, 0.0, 0.0], [0.0, 0.5, 0.5],
                       [math.nan, 0.25, 0.25]])
    got = estimators(probs)
    assert got.shape == (9, 3)
    expected = np.array([_scalar_estimators(*row) for row in probs.tolist()])
    assert got.tobytes() == expected.tobytes()
    assert got[6].tolist() == [1.0, 1.0, 1.0]
    assert np.isnan(got[8, :2]).all() and got[8, 2] == -0.125


def test_sampled_estimator_within_five_sigma():
    # <Z> = 0.5 on cos(a)|0> + sin(a)|1> with cos(2a) = 1/2.
    a = 0.5 * math.acos(0.5)
    psi = np.array([math.cos(a), math.sin(a)], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    exact = _exact_report(z, psi)
    assert exact.p0 == pytest.approx((5 + 4 * 0.5) / 9, abs=1e-12)
    probs = [[[exact.p0, exact.p1, exact.p2]]]
    shots = 100_000
    sigma = estimator_stddev(exact, shots)
    inside = 0
    for seed in range(100):
        _, sampled = sample_shot_stack(probs, shots, [seed])
        if abs(sampled[0, 0, 0] - 0.5) <= 5 * sigma:
            inside += 1
    assert inside >= 99


def test_estimator_stddev_formula():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    exact = _exact_report(np.eye(2), psi2)
    assert estimator_stddev(exact, 1000) == pytest.approx(0.0, abs=1e-12)
    balanced = _exact_report(np.array([[0, 1], [1, 0]], dtype=complex), psi2)
    mean = balanced.p0 - balanced.p1 - balanced.p2
    expected = 9 / 8 * math.sqrt((1 - mean**2) / 1000)
    assert estimator_stddev(balanced, 1000) == pytest.approx(expected, abs=1e-15)
    # A NaN probability gives a NaN spread, not a noiseless 0.
    nan_report = FourierTestReport(math.nan, 0.1, 0.1, math.nan, math.nan, math.nan)
    assert math.isnan(estimator_stddev(nan_report, 1000))


def test_shot_counts_must_be_integers_of_at_least_one():
    report = _exact_report(np.eye(2), np.array([1.0, 0.0], dtype=complex))
    probs = [[[report.p0, report.p1, report.p2]]]
    for shots in (0.5, 0, -3, 100.0, "100", None, True, False, np.True_):
        with pytest.raises(ValueError):
            sample_shot_stack(probs, shots, [1])
        with pytest.raises(ValueError):
            estimator_stddev(report, shots)
    assert sample_shot_stack(probs, np.int64(3), [1])[0].sum() == 3
    # A binomial draw takes at most 2**63 - 1 shots; more is refused up front.
    assert sum(sample_shot_stack(probs, 2**63 - 1, [1])[0][0, 0].tolist()) == 2**63 - 1
    for shots in (2**63, 10**20, np.uint64(2**63)):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_shot_stack(probs, shots, [1])
        with pytest.raises(ValueError, match="shots must be an integer"):
            estimator_stddev(report, shots)
    # A circuit landscape refuses the same counts before computing any cell.
    for shots in (2.5, 0, None, True, 2**63):
        with pytest.raises(ValueError):
            landscape_scan(5, [0.0], [0.0], mode="circuit", shots=shots)
