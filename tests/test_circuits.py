"""Tests for the gate library, the register simulator, and the Fourier test."""

import math

import numpy as np
import pytest

from chsh_kcbs import (
    CircuitSpec,
    DimensionMismatch,
    FourierTestReport,
    GateOp,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    chsh_coefficients,
    controlled_power,
    embed_alice,
    embed_joint_state,
    estimator_stddev,
    estimators,
    expectation,
    f3,
    fourier_tests,
    landscape_scan,
    phase_gate,
    prepare_state1,
    rotation,
    run_circuit,
    run_hybrid_tests,
    sample_shot_stack,
    state1,
    tensor,
    x02,
)
from chsh_kcbs import circuits
from chsh_kcbs.experiments import _bob_bank
from chsh_kcbs.observables import alice_rotation, b0_closed_form, bm_bm1_closed_form, kcbs_pair
from helpers import three_register_probabilities


def test_rotation_identity_and_y_entries():
    for subspace in ((0, 1), (0, 2), (1, 2)):
        for axis in "xyz":
            assert np.allclose(rotation(subspace, axis, 0.0), np.eye(3), atol=0)
    theta = 0.77
    mat = rotation((0, 1), "y", theta)
    assert mat[0, 0] == pytest.approx(math.cos(theta / 2), abs=1e-15)
    assert mat[1, 0] == pytest.approx(math.sin(theta / 2), abs=1e-15)
    assert mat[0, 1] == pytest.approx(-math.sin(theta / 2), abs=1e-15)
    assert mat[2, 2] == 1.0


def test_rotation_matches_generator_exponential():
    # exp(-i theta/2 G) via eigendecomposition of the Pauli-type generator on levels (i, j).
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e_ij, e_ji, e_ii, e_jj = (np.zeros((3, 3), dtype=complex) for _ in range(4))
        e_ij[i, j] = e_ji[j, i] = e_ii[i, i] = e_jj[j, j] = 1.0
        generators = {"x": e_ij + e_ji, "y": -1j * e_ij + 1j * e_ji, "z": e_ii - e_jj}
        for axis, gen in generators.items():
            theta = 1.234
            vals, vecs = np.linalg.eigh(gen)
            expected = vecs @ np.diag(np.exp(-1j * theta / 2 * vals)) @ vecs.conj().T
            assert np.max(np.abs(rotation((i, j), axis, theta) - expected)) <= 1e-12


def test_rotation_one_parameter_group():
    for alpha, beta in ((0.3, 1.2), (2.0, -0.7)):
        left = rotation((1, 2), "y", alpha) @ rotation((1, 2), "y", beta)
        assert np.max(np.abs(left - rotation((1, 2), "y", alpha + beta))) <= 1e-12


def test_rotation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rotation((0, 3), "y", 0.1)
    with pytest.raises(ValueError):
        rotation((0, 1), "q", 0.1)


def test_phase_gate():
    assert np.array_equal(phase_gate(0.0, 0.0), np.eye(3, dtype=complex))
    assert np.allclose(phase_gate(math.pi, 0.0), np.diag([1, -1, 1]), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(5):
        alpha, beta = rng.uniform(0, 2 * math.pi, 2)
        gate = phase_gate(alpha, beta)
        assert np.max(np.abs(gate @ gate.conj().T - np.eye(3))) <= 1e-12


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
    assert np.allclose(prepare_state1(math.pi, 0.0).amplitudes, [1, 0, 0, 0, 0, 0], atol=1e-12)
    half = prepare_state1(math.pi / 2, 0.0).amplitudes
    target = np.zeros(6, dtype=complex)
    target[0] = target[5] = 1 / math.sqrt(2)
    assert abs(np.vdot(target, half)) == pytest.approx(1.0, abs=1e-12)


def test_prepare_state1_gate_by_gate_oracle():
    # Multiply the three gate matrices explicitly and compare with the
    # simulator output, including the tabulated coexistence angle.
    for theta_deg, phi in ((49.605, 0.0), (120.0, 1.9), (10.0, 4.4)):
        theta = math.radians(theta_deg)
        controlled = controlled_power(x02())
        step1 = tensor(rotation((0, 1), "y", math.pi - theta), np.eye(3))
        step2 = tensor(phase_gate(phi, 0.0), np.eye(3))
        start = np.zeros(9, dtype=complex)
        start[0] = 1.0
        expected = (controlled @ step2 @ step1 @ start)[:6]
        got = prepare_state1(theta, phi).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12
        assert got[0] == pytest.approx(math.sin(theta / 2), abs=1e-12)
        assert abs(got[5]) == pytest.approx(math.cos(theta / 2), abs=1e-12)


@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.2, 2.0), (2.8, 5.5)])
def test_prepare_state1_fidelity(theta, phi):
    target = state1(theta, phi).amplitudes
    prepared = prepare_state1(theta, phi).amplitudes
    assert abs(np.vdot(target, prepared)) == pytest.approx(1.0, abs=1e-12)


def test_run_circuit_targets_named_register():
    # X02 applied to the second register of |00> lifts only Bob's level.
    spec = CircuitSpec(("alice", "bob"), (GateOp("swap", x02(), 1),))
    final = run_circuit(spec)
    expected = np.zeros(9, dtype=complex)
    expected[2] = 1.0
    assert np.allclose(final, expected, atol=1e-15)


def test_run_circuit_guards():
    bad_gate = GateOp("broken", np.ones((3, 3), dtype=complex), 0)
    with pytest.raises(NotUnitary):
        run_circuit(CircuitSpec(("alice",), (bad_gate,)))
    # A rotation into Alice's level 2 must trip the dead-level guard.
    leak = GateOp("leak", rotation((1, 2), "x", 1.0), 0)
    spec = CircuitSpec(("alice", "bob"), (GateOp("lift", rotation((0, 1), "y", 1.0), 0), leak))
    with pytest.raises(RuntimeError):
        run_circuit(spec)


def test_run_circuit_norm_guard_rejects_nan(monkeypatch):
    # Past a unitarity check that let it through, a NaN gate leaves a NaN norm,
    # which the norm-drift guard refuses.
    monkeypatch.setattr(circuits, "unitarity_check", lambda gate, tol: True)
    nan_gate = GateOp("nan", np.full((3, 3), np.nan, dtype=complex), 0)
    with pytest.raises(RuntimeError, match="norm drifted"):
        run_circuit(CircuitSpec(("alice", "bob"), (nan_gate,)))


def _one_test(u, psi) -> np.ndarray:
    """(p0, p1, p2) of the Fourier test of one operator."""
    return fourier_tests(np.asarray(u, dtype=complex)[None], psi)[0]


def _exact_report(u, psi) -> FourierTestReport:
    """A report carrying one test's exact probabilities, for the shot-noise formula."""
    return FourierTestReport(*_one_test(u, psi).tolist(), 0.0, 0.0, 0.0)


def _one_product(state, alice, bob) -> np.ndarray:
    """(p0, p1, p2) of the Fourier test of one product A (x) B, as a one-row stack."""
    a2 = alice.matrix if hasattr(alice, "matrix") else alice
    return run_hybrid_tests(state, np.asarray(a2)[None], bob.matrix[None])[0]


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
    psi2 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NotHermitian):
        _one_test(np.array([[0, 1], [0, 0]], dtype=complex), psi2)
    with pytest.raises(NotUnitary):
        _one_test(np.diag([1.0, 0.0]), psi2)
    with pytest.raises(NotNormalized):
        _one_test(np.eye(2), np.array([1.0, 1.0]))


def test_fourier_test_refuses_a_stack_that_is_not_k_square_operators():
    # A shape problem is reported as one, naming the shape, before any other check.
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    for ops in (np.eye(3), np.zeros((2, 2, 3)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(DimensionMismatch, match=rf"got shape \({ops.shape[0]}, "):
            fourier_tests(ops, psi)


def test_fourier_test_checks_the_operator_before_the_state():
    # A non-unitary U is reported even when the state is bad as well.
    with pytest.raises(NotUnitary):
        _one_test(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(NotHermitian):
        _one_test(np.array([[0, 1], [0, 0]], dtype=complex), np.ones(3))


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
    # Preparing once and Fourier-testing the prepared state gives the
    # same ancilla probabilities to the bit.
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
        assert _one_product(prepare_state1(theta, phi), a2, bob).tolist() == expected


def test_stacked_cell_matches_three_register_circuit():
    # Every term of a landscape cell, run as one stack against the Bob
    # bank, gives the three-register circuit's probabilities to the bit.
    rng = np.random.default_rng(41)
    for n in (5, 7, 9, 21):
        bank = _bob_bank(n)
        for theta in (0.0, math.pi, *rng.uniform(0, math.pi, 2).tolist()):
            phi = float(rng.uniform(0, 2 * math.pi))
            state = prepare_state1(theta, phi)
            co = chsh_coefficients(state, n)
            r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
            alice = np.array([r2, r2, r0, r0] + [np.eye(2)] * n)
            probs = run_hybrid_tests(state, alice, bank)
            assert probs.shape == (n + 4, 3)
            for term in range(n + 4):
                expected = three_register_probabilities(theta, phi, alice[term], bank[term])
                assert probs[term].tolist() == expected


def test_stack_checks_every_entry_before_the_state():
    rng = np.random.default_rng(5)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    good = 2 * np.outer(v, v.conj()) - np.eye(4)
    bad_state = np.ones(7)
    stack = np.array([good, -good, np.eye(4), good])
    stack[2:, 0, 1] += 0.5
    with pytest.raises(NotHermitian, match="entry 2 "):
        fourier_tests(stack, bad_state)
    stack = np.array([good, -good, np.eye(4), np.diag([1.0, 1.0, 0.5, 1.0])])
    with pytest.raises(NotUnitary, match="entry 3 "):
        fourier_tests(stack, bad_state)
    # A non-unitary Alice entry fails the same check inside the product stack.
    alice = np.array([np.eye(2), np.diag([1.0, 0.5])])
    bob = np.array([b0_closed_form(5).matrix] * 2)
    with pytest.raises(NotUnitary, match="entry 1 "):
        run_hybrid_tests(prepare_state1(1.0, 0.2), alice, bob)
    # A good stack gives the one-operator readout row by row.
    psi = np.full(4, 0.5)
    rows = fourier_tests(np.array([good, -good]), psi)
    for row, u in zip(rows, (good, -good)):
        assert row.tolist() == _one_test(u, psi).tolist()


def test_identity_alice_setting():
    theta, phi, n = 1.1, 0.7, 5
    psi = state1(theta, phi)
    bob = kcbs_pair(n, 2)
    probs = _one_product(prepare_state1(theta, phi), np.eye(2), bob)
    direct = expectation(psi, tensor(np.eye(2), bob.matrix))
    assert estimators(probs[None])[0, 0] == pytest.approx(direct, abs=1e-10)


def test_alice_embedding_preserves_expectations():
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        omega = float(rng.uniform(0, 2 * math.pi))
        psi6 = state1(theta, phi)
        psi9 = embed_joint_state(psi6)
        a2 = alice_rotation(omega).matrix
        b3 = bm_bm1_closed_form(5).matrix
        small = expectation(psi6, tensor(a2, b3))
        large = expectation(psi9, tensor(embed_alice(a2), b3))
        assert small == pytest.approx(large, abs=1e-12)
        embedded = embed_alice(a2)
        assert embedded[2, 2] == 1.0
        assert np.max(np.abs(embedded[:2, :2] - a2)) == 0


def test_shot_stack_degenerate_and_reproducible():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    counts, sampled = sample_shot_stack(_one_test(np.eye(2), psi2)[None], 1, 123)
    assert counts.tolist() == [[1, 0, 0]]
    assert sampled.tolist() == [_scalar_estimators(1.0, 0.0, 0.0)]

    probs = _one_product(prepare_state1(0.9, 0.4), alice_rotation(0.3), b0_closed_form(5))[None]
    first, _ = sample_shot_stack(probs, 4096, 7)
    second, _ = sample_shot_stack(probs, 4096, 7)
    assert first.tolist() == second.tolist()
    assert first.sum() == 4096
    third, _ = sample_shot_stack(probs, 4096, 8)
    assert third.tolist() != first.tolist()


def test_shot_stack_matches_rows_drawn_in_turn():
    state = prepare_state1(0.9, 0.4)
    probs = run_hybrid_tests(state, np.array([alice_rotation(0.3).matrix, np.eye(2)]),
                             np.array([b0_closed_form(5).matrix, kcbs_pair(5, 1).matrix]))
    # Add a degenerate row and a row whose tiny negative entry the clip removes.
    probs = np.vstack([probs, [1.0, 0.0, 0.0], [0.5, 0.5 + 1e-17, -1e-17]])
    for seed in (11, 2**40 + 3, 0):
        counts, estimates = sample_shot_stack(probs, 777, seed)
        assert counts.shape == estimates.shape == (4, 3)
        # Row 0 is the draw a one-row stack makes at the same seed.
        alone_counts, alone_estimators = sample_shot_stack(probs[:1], 777, seed)
        assert counts[0].tolist() == alone_counts[0].tolist()
        assert estimates[0].tolist() == alone_estimators[0].tolist()
        # The stack is its clipped, normalised rows drawn in turn from one generator.
        rng = np.random.default_rng(seed)
        for row, row_counts, row_estimators in zip(probs, counts, estimates):
            clipped = np.clip(row, 0.0, None)
            assert row_counts.tolist() == rng.multinomial(777, clipped / clipped.sum()).tolist()
            assert row_estimators.tolist() == _scalar_estimators(*(row_counts / 777.0).tolist())
        assert counts[2].tolist() == [777, 0, 0] and counts[3, 2] == 0
    with pytest.raises(ValueError):
        sample_shot_stack(probs, 0, 11)


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
    probs = [[exact.p0, exact.p1, exact.p2]]
    shots = 100_000
    sigma = estimator_stddev(exact, shots)
    inside = 0
    for seed in range(100):
        _, sampled = sample_shot_stack(probs, shots, seed)
        if abs(sampled[0, 0] - 0.5) <= 5 * sigma:
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
    probs = [[report.p0, report.p1, report.p2]]
    for shots in (0.5, 0, -3, 100.0, "100", None, True, False, np.True_):
        with pytest.raises(ValueError):
            sample_shot_stack(probs, shots, 1)
        with pytest.raises(ValueError):
            estimator_stddev(report, shots)
    assert sample_shot_stack(probs, np.int64(3), 1)[0].sum() == 3
    # A multinomial draw takes at most 2**63 - 1 shots; more is refused up front.
    assert sum(sample_shot_stack(probs, 2**63 - 1, 1)[0][0].tolist()) == 2**63 - 1
    for shots in (2**63, 10**20, np.uint64(2**63)):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_shot_stack(probs, shots, 1)
        with pytest.raises(ValueError, match="shots must be an integer"):
            estimator_stddev(report, shots)
    # A circuit landscape refuses the same counts before computing any cell.
    for shots in (2.5, 0, None, True, 2**63):
        with pytest.raises(ValueError):
            landscape_scan(5, [0.0], [0.0], mode="circuit", shots=shots)
