"""Tests for the closed-form engine, checked against direct matrix expectations."""

import math

import numpy as np
import pytest

from chsh_kcbs import (
    InvalidCycle,
    NotNormalized,
    asymptotic_margins,
    chsh_coefficients,
    chsh_value,
    coexistence_window,
    cycle_geometry,
    decompose,
    expectation,
    kcbs_value,
    p2_threshold,
    psi_n_state,
    state1,
    state1_margins,
    tensor,
    theta_opt_asymptotic,
)
from chsh_kcbs.observables import alice_rotation, b0_closed_form, bm_bm1_closed_form, s_operator


def chsh_operator(n, omega0, omega2):
    """The four-term CHSH operator as one dense 6x6 matrix."""
    b0 = b0_closed_form(n).matrix
    bm = bm_bm1_closed_form(n).matrix
    return (tensor(alice_rotation(omega0).matrix, bm - b0)
            + tensor(alice_rotation(omega2).matrix, bm + b0))


def matrix_chsh(psi, n, omega0, omega2):
    return expectation(psi, chsh_operator(n, omega0, omega2))


def random_states(rng, count):
    raw = rng.normal(size=(count, 6)) + 1j * rng.normal(size=(count, 6))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_chsh_coefficients_state1_quarter_turn():
    co = chsh_coefficients(state1(math.pi / 2, 0.0), 5)
    geo = cycle_geometry(5)
    s_minus = 4 * geo.s2 - 2
    s_plus = 4 * geo.s2 + 2
    # Exact closed forms first, then the six-decimal reference values.
    assert co.x0 == pytest.approx(-2 * geo.c / (1 + geo.c), abs=1e-12)
    assert co.y0 == pytest.approx(math.sqrt(geo.c) * s_minus / (1 + geo.c), abs=1e-12)
    assert co.x2 == pytest.approx((2 - 4 * geo.c) / (1 + geo.c), abs=1e-12)
    assert co.y2 == pytest.approx(math.sqrt(geo.c) * s_plus / (1 + geo.c), abs=1e-12)
    assert co.x0 == pytest.approx(-0.894427, abs=1e-5)
    assert co.y0 == pytest.approx(-0.379832, abs=1e-5)
    assert co.x2 == pytest.approx(-0.683281, abs=1e-5)
    assert co.y2 == pytest.approx(1.608988, abs=1e-5)
    assert co.s_opt == pytest.approx(2.71980, abs=1e-4)
    assert co.s_opt == pytest.approx(math.hypot(co.x0, co.y0) + math.hypot(co.x2, co.y2), abs=1e-12)


def test_chsh_optimum_matches_matrix_grid_maximum():
    # Brute-force oracle: scan the matrix expectation of the four-term
    # operator over a fine angle grid.  The two angles decouple, so the
    # grid maximum is the sum of the single-angle maxima.
    psi = state1(math.pi / 2, 0.0)
    n = 5
    angles = np.linspace(0.0, 2 * math.pi, 1500, endpoint=False)
    b0 = b0_closed_form(n).matrix
    bm = bm_bm1_closed_form(n).matrix
    branch0 = [expectation(psi, tensor(alice_rotation(w).matrix, bm - b0)) for w in angles]
    branch2 = [expectation(psi, tensor(alice_rotation(w).matrix, bm + b0)) for w in angles]
    grid_max = max(branch0) + max(branch2)
    s_opt = chsh_coefficients(psi, n).s_opt
    step = 2 * math.pi / 1500
    assert grid_max <= s_opt + 1e-12
    assert s_opt - grid_max <= 2 * step**2


def test_chsh_coefficients_phase_kills_coherence():
    co = chsh_coefficients(state1(math.pi / 2, math.pi / 2), 5)
    assert co.y0 == pytest.approx(0.0, abs=1e-12)
    assert co.y2 == pytest.approx(0.0, abs=1e-12)
    assert co.s_opt == pytest.approx(abs(co.x0) + abs(co.x2), abs=1e-12)
    assert co.s_opt == pytest.approx(1.577708, abs=1e-5)
    assert co.s_opt < 2


def test_product_state_cannot_violate():
    ket00 = np.zeros(6, dtype=complex)
    ket00[0] = 1.0
    co = chsh_coefficients(ket00, 5)
    assert co.s_opt <= 2
    # Grid probe agrees that no angle pair beats the classical bound.
    rng = np.random.default_rng(0)
    probes = [matrix_chsh(ket00, 5, *rng.uniform(0, 2 * math.pi, 2)) for _ in range(200)]
    assert max(probes) <= 2


def test_optimal_angles_use_maximizing_branch():
    # x0 < 0 for the minimal state, so the single-argument arctan of the
    # ratio would select the minimizing branch; the optimum must dominate.
    psi = state1(math.pi / 2, 0.0)
    co = chsh_coefficients(psi, 5)
    assert chsh_value(psi, 5, co.omega0, co.omega2) == pytest.approx(co.s_opt, abs=1e-12)
    wrong0 = math.atan(co.y0 / co.x0)
    assert chsh_value(psi, 5, wrong0, co.omega2) < co.s_opt - 0.5


@pytest.mark.parametrize("n", [5, 7, 9])
def test_chsh_value_matches_matrix_expectation(n):
    rng = np.random.default_rng(42 + n)
    for psi in random_states(rng, 40):
        omega0, omega2 = rng.uniform(0, 2 * math.pi, 2)
        assert chsh_value(psi, n, omega0, omega2) == pytest.approx(
            matrix_chsh(psi, n, omega0, omega2), abs=1e-10)


def test_chsh_value_examples_and_periodicity():
    psi = state1(math.pi / 2, 0.0)
    geo = cycle_geometry(5)
    at_zero = chsh_value(psi, 5, 0.0, 0.0)
    assert at_zero == pytest.approx((2 - 6 * geo.c) / (1 + geo.c), abs=1e-12)
    assert at_zero == pytest.approx(-1.577708, abs=1e-5)
    assert chsh_value(psi, 5, 0.7, 1.9) == pytest.approx(
        chsh_value(psi, 5, 0.7 + 2 * math.pi, 1.9 - 2 * math.pi), abs=1e-12)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_kcbs_value_matches_matrix_expectation(n):
    rng = np.random.default_rng(17 + n)
    op = tensor(np.eye(2), s_operator(n).matrix)
    geo = cycle_geometry(n)
    for psi in random_states(rng, 40):
        report = kcbs_value(psi, n)
        assert report.s_kcbs == pytest.approx(expectation(psi, op), abs=1e-10)
        assert geo.lambda1 - 1e-10 <= report.s_kcbs <= geo.lambda3 + 1e-10
        assert report.margin == pytest.approx(report.s_kcbs - (n - 2), abs=1e-12)


def test_kcbs_value_extreme_states():
    ket12 = np.zeros(6, dtype=complex)
    ket12[5] = 1.0
    report = kcbs_value(ket12, 5)
    assert report.p2 == pytest.approx(1.0, abs=1e-12)
    assert report.s_kcbs == pytest.approx(4 * math.sqrt(5) - 5, abs=1e-12)
    assert report.margin == pytest.approx(0.944272, abs=1e-6)

    ket00 = np.zeros(6, dtype=complex)
    ket00[0] = 1.0
    report = kcbs_value(ket00, 5)
    assert report.s_kcbs == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert report.margin < 0


def test_kcbs_margin_vanishes_at_threshold():
    for n in (5, 7, 9):
        threshold = p2_threshold(n)
        amps = np.zeros(6, dtype=complex)
        amps[0] = math.sqrt(1 - threshold)
        amps[2] = math.sqrt(threshold)
        assert kcbs_value(amps, n).margin == pytest.approx(0.0, abs=1e-10)


def test_p2_threshold_values_and_monotonicity():
    # Four-decimal reference points, then monotone growth toward 1.
    assert p2_threshold(5) == pytest.approx(0.7236, abs=1e-4)
    assert p2_threshold(7) == pytest.approx(0.7848, abs=1e-4)
    assert p2_threshold(9) == pytest.approx(0.8235, abs=1e-4)
    assert p2_threshold(11) == pytest.approx(0.8502, abs=1e-4)
    values = [p2_threshold(n) for n in range(5, 203, 2)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    assert values[-1] > 0.98


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_p2_threshold_matches_50_digit_reference(n):
    # Independent oracle: the textbook KCBS extremes n (3c - 1)/(1 + c) on
    # level 2 and n (1 - c)/(1 + c) on levels 0 and 1, set against the
    # classical bound n - 2, evaluated at 50 digits.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        c = mp.cos(mp.pi / n)
        top = n * (3 * c - 1) / (1 + c)
        low = n * (1 - c) / (1 + c)
        reference = (n - 2 - low) / (top - low)
        assert abs((p2_threshold(n) - reference) / reference) <= 1e-14


def test_state1_construction():
    assert np.allclose(state1(math.pi, 0.0).amplitudes,
                       [1, 0, 0, 0, 0, 0], atol=1e-12)
    zero_theta = state1(0.0, 0.9)
    assert abs(zero_theta.amplitudes[5]) == pytest.approx(1.0, abs=1e-12)
    assert np.angle(zero_theta.amplitudes[5]) == pytest.approx(0.9, abs=1e-12)
    half = state1(math.pi / 2, 0.0)
    assert half.amplitudes[0] == pytest.approx(0.707107, abs=1e-6)
    assert half.amplitudes[5] == pytest.approx(0.707107, abs=1e-6)
    with pytest.raises(ValueError):
        state1(-0.1, 0.0)
    with pytest.raises(ValueError):
        state1(math.pi + 0.1, 0.0)


def test_state1_margins_match_coefficient_paths():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.choice([5, 7, 9]))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        chsh_margin, kcbs_margin = state1_margins(theta, phi, n)
        psi = state1(theta, phi)
        assert chsh_margin == pytest.approx(chsh_coefficients(psi, n).s_opt - 2, abs=1e-10)
        assert kcbs_margin == pytest.approx(kcbs_value(psi, n).margin, abs=1e-10)


def test_state1_margins_reference_points():
    chsh_margin, kcbs_margin = state1_margins(math.radians(49.605), 0.0, 5)
    assert chsh_margin == pytest.approx(0.3431, abs=2e-4)
    assert kcbs_margin == pytest.approx(0.3431, abs=2e-4)
    assert abs(chsh_margin - kcbs_margin) <= 2e-4

    chsh_margin, kcbs_margin = state1_margins(math.pi / 2, 0.0, 5)
    geo = cycle_geometry(5)
    assert chsh_margin == pytest.approx(0.71980, abs=1e-4)
    expected = 5 / (1 + geo.c) * ((4 * geo.c - 2) * 0.5 - 2 * geo.c) + 2
    assert kcbs_margin == pytest.approx(expected, abs=1e-12)
    assert kcbs_margin < 0


def test_kcbs_margin_independent_of_phi():
    phis = np.linspace(0.0, 2 * math.pi, 91)
    _, kcbs = state1_margins(1.1, phis, 5)
    assert np.max(np.abs(kcbs - kcbs[0])) <= 1e-12


def test_state1_margins_broadcast_over_cycle_sizes():
    thetas = np.linspace(0.0, math.pi, 7)
    sizes = np.array([5, 9, 101])
    chsh, kcbs = state1_margins(thetas[:, None], 0.3, sizes[None, :])
    assert chsh.shape == kcbs.shape == (7, 3)
    for column, n in enumerate(sizes.tolist()):
        alone = state1_margins(thetas, 0.3, n)
        assert np.array_equal(chsh[:, column], alone[0])
        assert np.array_equal(kcbs[:, column], alone[1])
    with pytest.raises(InvalidCycle):
        state1_margins(0.5, 0.0, np.array([5, 6]))


def test_decompose_minimal_state():
    for theta, phi in ((0.7, 0.0), (1.3, 2.1), (math.pi / 2, math.pi / 2)):
        parts = decompose(state1(theta, phi), 5)
        assert parts.q0 == pytest.approx(1.0, abs=1e-12)
        assert parts.q1 == pytest.approx(0.0, abs=1e-12)
        assert parts.r1 == pytest.approx(0.0, abs=1e-12)
        assert parts.r2 == pytest.approx(0.0, abs=1e-12)
        assert parts.r4 == pytest.approx(0.0, abs=1e-12)
        assert parts.r3 == pytest.approx(0.5 * math.sin(theta) * math.cos(phi), abs=1e-12)

    ket00 = np.zeros(6, dtype=complex)
    ket00[0] = 1.0
    parts = decompose(ket00, 5)
    assert parts.q0 == pytest.approx(1.0, abs=1e-12)
    assert (parts.r1, parts.r2, parts.r3, parts.r4) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_decompose_reconstructs_chsh_coefficients(n):
    # Rebuild (x0, y0, x2, y2) from the decomposition's pieces and compare
    # with the direct amplitude algebra.
    rng = np.random.default_rng(31 + n)
    geo = cycle_geometry(n)
    c = geo.c
    scale = 2 * math.sqrt(c) / (1 + c)
    for psi in random_states(rng, 30):
        parts = decompose(psi, n)
        co = chsh_coefficients(psi, n)
        assert co.x0 == pytest.approx(
            -2 * c / (1 + c) * parts.q0 + 2 * parts.q1 + scale * parts.r1 * parts.s_minus, abs=1e-12)
        assert co.y0 == pytest.approx(
            -4 * c / (1 + c) * parts.r2 + 4 * parts.r4 + scale * parts.r3 * parts.s_minus, abs=1e-12)
        assert co.x2 == pytest.approx(
            (2 - 4 * c) / (1 + c) * parts.q0 + scale * parts.r1 * parts.s_plus, abs=1e-12)
        assert co.y2 == pytest.approx(
            (4 - 8 * c) / (1 + c) * parts.r2 + scale * parts.r3 * parts.s_plus, abs=1e-12)


def test_psi_n_state_amplitudes_and_margins():
    psi = psi_n_state(5, 0)
    assert psi.amplitudes[0] == pytest.approx(math.sqrt(2 / 9), abs=1e-12)
    assert psi.amplitudes[5] == pytest.approx(math.sqrt(7 / 9), abs=1e-12)
    assert psi.amplitudes[0] == pytest.approx(0.471405, abs=1e-6)
    assert psi.amplitudes[5] == pytest.approx(0.881917, abs=1e-6)

    theta = 2 * math.acos(math.sqrt(7 / 9))
    chsh_margin, kcbs_margin = state1_margins(theta, 0.0, 5)
    assert chsh_margin > 0 and kcbs_margin > 0
    assert kcbs_margin == pytest.approx(0.18506, abs=1e-3)
    assert chsh_margin == pytest.approx(0.45069, abs=1e-3)
    # Same margins through the coefficient path.
    assert chsh_coefficients(psi, 5).s_opt - 2 == pytest.approx(chsh_margin, abs=1e-10)
    assert kcbs_value(psi, 5).margin == pytest.approx(kcbs_margin, abs=1e-10)


def test_psi_n_state_sign_choice_is_immaterial():
    plus = psi_n_state(9, 0)
    minus = psi_n_state(9, 1)
    assert chsh_coefficients(plus, 9).s_opt == pytest.approx(
        chsh_coefficients(minus, 9).s_opt, abs=1e-12)
    assert kcbs_value(plus, 9).margin == pytest.approx(kcbs_value(minus, 9).margin, abs=1e-12)


def test_asymptotic_forms():
    kcbs_asym, chsh_asym = asymptotic_margins(5)
    assert kcbs_asym == 8 / 9
    assert chsh_asym == 56 / 81
    for n in range(5, 1000, 2):
        kcbs_asym, chsh_asym = asymptotic_margins(n)
        assert kcbs_asym > 0 and chsh_asym > 0
    assert theta_opt_asymptotic(5) == pytest.approx(0.9428, abs=1e-4)
    assert math.degrees(theta_opt_asymptotic(5)) == pytest.approx(54.0, abs=0.1)
    assert coexistence_window(5) == pytest.approx(2 * math.sqrt(2) / math.sqrt(5), abs=0)


def test_tsirelson_ceiling_on_random_states():
    rng = np.random.default_rng(99)
    ceiling = 2 * math.sqrt(2) + 1e-9
    for n in (5, 7, 9, 11):
        for psi in random_states(rng, 100):
            assert chsh_coefficients(psi, n).s_opt <= ceiling


def test_analytic_input_validation():
    bad = np.ones(6, dtype=complex)
    with pytest.raises(NotNormalized):
        chsh_coefficients(bad, 5)
    with pytest.raises(NotNormalized):
        kcbs_value(bad, 5)
    with pytest.raises(NotNormalized):
        decompose(bad, 5)
    good = np.zeros(6, dtype=complex)
    good[0] = 1.0
    with pytest.raises(InvalidCycle):
        chsh_coefficients(good, 4)
    with pytest.raises(InvalidCycle):
        p2_threshold(6)
    with pytest.raises(InvalidCycle):
        psi_n_state(3)
