"""Tests for the gate library, the register simulator, and the Fourier test."""

import math

import numpy as np
import pytest

from chsh_kcbs import (
    CircuitSpec,
    GateOp,
    IndexOutOfRange,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    chsh_coefficients,
    controlled_power,
    embed_alice,
    embed_joint_state,
    estimator_stddev,
    expectation,
    f3,
    fourier_test_probabilities,
    gell_mann,
    phase_gate,
    prepare_state1,
    rotation,
    run_circuit,
    run_hybrid_protocol,
    sample_shots,
    state1,
    tensor,
    x02,
)
from chsh_kcbs.observables import alice_rotation, b0_closed_form, bm_bm1_closed_form, kcbs_pair


def test_gell_mann_reference_matrices():
    assert np.array_equal(gell_mann(3), np.diag([1.0, -1.0, 0.0]).astype(complex))
    assert np.allclose(gell_mann(8), np.diag([1, 1, -2]) / math.sqrt(3), atol=1e-15)
    assert np.array_equal(gell_mann(1), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex))


def test_gell_mann_basis_properties():
    for a in range(1, 9):
        mat = gell_mann(a)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert abs(np.trace(mat)) <= 1e-12
    for a in range(1, 9):
        for b in range(1, 9):
            overlap = np.trace(gell_mann(a) @ gell_mann(b)).real
            assert overlap == pytest.approx(2.0 if a == b else 0.0, abs=1e-12)


def test_gell_mann_index_bounds():
    with pytest.raises(IndexOutOfRange):
        gell_mann(0)
    with pytest.raises(IndexOutOfRange):
        gell_mann(9)


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
    # exp(-i theta/2 G) via eigendecomposition of the Hermitian generator.
    from chsh_kcbs.circuits import subspace_generator
    for subspace in ((0, 1), (0, 2), (1, 2)):
        for axis in "xyz":
            theta = 1.234
            gen = subspace_generator(subspace, axis)
            vals, vecs = np.linalg.eigh(gen)
            expected = vecs @ np.diag(np.exp(-1j * theta / 2 * vals)) @ vecs.conj().T
            assert np.max(np.abs(rotation(subspace, axis, theta) - expected)) <= 1e-12


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
    start = np.zeros(9, dtype=complex)
    start[0] = 1.0
    final = run_circuit(spec, initial=start)
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


def test_fourier_probabilities_extreme_expectations():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    report = fourier_test_probabilities(np.eye(2), psi2)
    assert (report.p0, report.p1, report.p2) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    report = fourier_test_probabilities(-np.eye(2), psi2)
    assert (report.p0, report.p1, report.p2) == pytest.approx((1 / 9, 4 / 9, 4 / 9), abs=1e-12)
    # <X> = 0 on |0>.
    report = fourier_test_probabilities(np.array([[0, 1], [1, 0]], dtype=complex), psi2)
    assert (report.p0, report.p1, report.p2) == pytest.approx((5 / 9, 2 / 9, 2 / 9), abs=1e-12)
    assert report.estimator_combined == pytest.approx(0.0, abs=1e-12)


def test_fourier_probabilities_validation():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(NotHermitian):
        fourier_test_probabilities(np.array([[0, 1], [0, 0]], dtype=complex), psi2)
    with pytest.raises(NotUnitary):
        fourier_test_probabilities(np.diag([1.0, 0.0]), psi2)
    with pytest.raises(NotNormalized):
        fourier_test_probabilities(np.eye(2), np.array([1.0, 1.0]))


def test_fourier_test_checks_the_operator_before_the_state():
    # A non-unitary U is reported even when the state is bad as well.
    with pytest.raises(NotUnitary):
        fourier_test_probabilities(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(NotHermitian):
        fourier_test_probabilities(np.array([[0, 1], [0, 0]], dtype=complex), np.ones(3))


def test_fourier_estimators_agree_in_exact_mode():
    rng = np.random.default_rng(12)
    for _ in range(10):
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = raw / np.linalg.norm(raw)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        reflection = 2 * np.outer(v, v.conj()) - np.eye(6)
        report = fourier_test_probabilities(reflection, psi)
        direct = expectation(psi, reflection)
        assert report.estimator_combined == pytest.approx(direct, abs=1e-10)
        assert report.estimator_p0 == pytest.approx(direct, abs=1e-10)
        assert report.estimator_p1 == pytest.approx(direct, abs=1e-10)
        assert report.p1 == pytest.approx(report.p2, abs=1e-12)
        assert report.p0 + report.p1 + report.p2 == pytest.approx(1.0, abs=1e-12)


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
        report = run_hybrid_protocol(prepare_state1(theta, phi), alice, bob)
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        assert report.estimator_combined == pytest.approx(direct, abs=1e-10)
        assert report.p1 == pytest.approx(report.p2, abs=1e-12)


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
        ops = (GateOp("R01y", rotation((0, 1), "y", math.pi - theta), 1),
               GateOp("D(phi,0)", phase_gate(phi, 0.0), 1),
               GateOp("CX02", controlled_power(x02()), 1),
               GateOp("F3", f3(), 0),
               GateOp("C-U^a", controlled_power(tensor(embed_alice(a2), bob.matrix)), 0),
               GateOp("F3_inv", f3().conj().T, 0))
        final = run_circuit(CircuitSpec(("ancilla", "alice", "bob"), ops))
        expected = [float(np.sum(np.abs(final[a * 9:(a + 1) * 9]) ** 2)) for a in range(3)]
        report = run_hybrid_protocol(prepare_state1(theta, phi), alice, bob)
        assert [report.p0, report.p1, report.p2] == expected


def test_identity_alice_setting():
    theta, phi, n = 1.1, 0.7, 5
    psi = state1(theta, phi)
    bob = kcbs_pair(n, 2)
    report = run_hybrid_protocol(prepare_state1(theta, phi), np.eye(2), bob)
    direct = expectation(psi, tensor(np.eye(2), bob.matrix))
    assert report.estimator_combined == pytest.approx(direct, abs=1e-10)


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


def test_sample_shots_degenerate_and_reproducible():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    exact = fourier_test_probabilities(np.eye(2), psi2)
    sampled = sample_shots(exact, 1, 123)
    assert sampled.counts == (1, 0, 0)
    assert sampled.shots == 1
    assert sampled.seed == 123

    report = run_hybrid_protocol(prepare_state1(0.9, 0.4), alice_rotation(0.3), b0_closed_form(5))
    first = sample_shots(report, 4096, 7)
    second = sample_shots(report, 4096, 7)
    assert first.counts == second.counts
    assert sum(first.counts) == 4096
    third = sample_shots(report, 4096, 8)
    assert third.counts != first.counts


def test_sampled_estimator_within_five_sigma():
    # <Z> = 0.5 on cos(a)|0> + sin(a)|1> with cos(2a) = 1/2.
    a = 0.5 * math.acos(0.5)
    psi = np.array([math.cos(a), math.sin(a)], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    exact = fourier_test_probabilities(z, psi)
    assert exact.estimator_combined == pytest.approx(0.5, abs=1e-12)
    shots = 100_000
    sigma = estimator_stddev(exact, shots)
    inside = 0
    for seed in range(100):
        sampled = sample_shots(exact, shots, seed)
        if abs(sampled.estimator_combined - 0.5) <= 5 * sigma:
            inside += 1
    assert inside >= 99


def test_estimator_stddev_formula():
    psi2 = np.array([1.0, 0.0], dtype=complex)
    exact = fourier_test_probabilities(np.eye(2), psi2)
    assert estimator_stddev(exact, 1000) == pytest.approx(0.0, abs=1e-12)
    balanced = fourier_test_probabilities(np.array([[0, 1], [1, 0]], dtype=complex), psi2)
    mean = balanced.p0 - balanced.p1 - balanced.p2
    expected = 9 / 8 * math.sqrt((1 - mean**2) / 1000)
    assert estimator_stddev(balanced, 1000) == pytest.approx(expected, abs=1e-15)
