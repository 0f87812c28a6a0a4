"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference values are frozen from independent oracles (direct matrix
expectations, elementwise assembly, brute-force grids, multinomial error
propagation) or from the tabulated coexistence points.  The criterion-2
thresholds are the reference table's three-decimal values of
(n c - 1 - c) / ((2c - 1) n), c = cos(pi/n): the p2 at which the KCBS sum
n (4c - 2)/(1 + c) p2 + n (1 - c)/(1 + c) meets the classical bound n - 2.
"""

import math
import time

import numpy as np
import pytest

from chsh_kcbs import (
    FourierTestReport,
    chsh_coefficients,
    chsh_value,
    cli,
    estimator_stddev,
    estimators,
    expectation,
    kcbs_pair,
    kcbs_value,
    landscape_scan,
    p2_threshold,
    prepare_state1,
    run_hybrid_tests,
    sample_shot_stack,
    state1,
    state1_margins,
    tensor,
)
from chsh_kcbs.analytic import asymptotic_margins
from chsh_kcbs.experiments import coexistence_points
from chsh_kcbs.observables import (
    alice_rotation,
    b0_closed_form,
    bm_bm1_closed_form,
    s_operator,
)
from helpers import read_csv

# Reference coexistence points: n -> (theta_opt in degrees, overlap).
COEXISTENCE_TABLE = {
    5: (49.605, 0.343069), 7: (46.568, 0.347839), 9: (42.804, 0.353697),
    11: (40.174, 0.328131), 13: (37.825, 0.311358), 15: (35.922, 0.289453),
    17: (34.24, 0.272828), 19: (32.802, 0.255515), 21: (31.515, 0.241466),
    23: (30.381, 0.227717), 25: (29.355, 0.216111), 27: (28.432, 0.205008),
    29: (27.588, 0.195383), 31: (26.818, 0.186256), 33: (26.107, 0.178192),
    35: (25.452, 0.170568), 37: (24.843, 0.163735), 39: (24.277, 0.157276),
    41: (23.747, 0.151422), 43: (23.252, 0.145882), 45: (22.785, 0.140814),
    47: (22.346, 0.136011), 49: (21.932, 0.131586), 51: (21.54, 0.127384),
    53: (21.168, 0.123487), 55: (20.815, 0.11978),
}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def random_states(rng, count):
    raw = rng.normal(size=(count, 6)) + 1j * rng.normal(size=(count, 6))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_criterion_1_coexistence_table(tmp_path):
    out = tmp_path / "coexist.csv"
    start = time.perf_counter()
    assert cli.main(["coexist", "--n", "5:55:2", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    _, rows, _ = read_csv(str(out))
    assert len(rows) == len(COEXISTENCE_TABLE)
    worst_theta, worst_overlap = 0.0, 0.0
    for row in rows:
        n = int(row[0])
        theta_ref, overlap_ref = COEXISTENCE_TABLE[n]
        worst_theta = max(worst_theta, abs(float(row[1]) - theta_ref))
        worst_overlap = max(worst_overlap, abs(float(row[2]) - overlap_ref))
    ok = worst_theta <= 0.01 and worst_overlap <= 1e-4 and elapsed < 5.0
    report(1, ok, f"{len(rows)} rows, max |dtheta| = {worst_theta:.2e} deg, "
                  f"max |doverlap| = {worst_overlap:.2e}, runtime = {elapsed:.2f} s")
    assert ok


# Erratum to the reference table, keyed by its printed (n, target) pair so the
# node ids stay as the table prints them.  The table's n = 9 entry 0.824 is a
# double rounding, 0.8234971 -> 0.8235 -> 0.824; rounded once it is 0.823
# (see the 50-digit check in test_analytic.py).
THRESHOLD_ERRATA = {(9, 0.824): 0.823}


@pytest.mark.parametrize("n,target", [(5, 0.724), (7, 0.785), (9, 0.824), (11, 0.850)])
def test_criterion_2_threshold_values(n, target):
    target = THRESHOLD_ERRATA.get((n, target), target)
    value = p2_threshold(n)
    ok = round(value, 3) == target and abs(value - target) <= 5e-4
    report(2, ok, f"n = {n}: threshold = {value:.7f}, target {target}, "
                  f"|diff| = {abs(value - target):.2e}")
    assert ok


def test_criterion_3_cycle_operator_identity():
    worst = 0.0
    for n in range(5, 23, 2):
        assembled = sum(kcbs_pair(n, j).matrix for j in range(n - 1))
        assembled = assembled - kcbs_pair(n, n - 1).matrix
        worst = max(worst, float(np.max(np.abs(assembled - s_operator(n).matrix))))
    ok = worst <= 1e-10
    report(3, ok, f"odd n in [5, 21], max entrywise gap = {worst:.2e}")
    assert ok


def test_criterion_4_closed_form_matrix_equivalence():
    rng = np.random.default_rng(2024)
    worst_chsh, worst_kcbs, worst_probe_excess = 0.0, 0.0, -math.inf
    for n in (5, 7, 9):
        b0 = b0_closed_form(n).matrix
        bm = bm_bm1_closed_form(n).matrix
        s_mat = tensor(np.eye(2), s_operator(n).matrix)
        for psi in random_states(rng, 200):
            omega0, omega2 = rng.uniform(0, 2 * math.pi, 2)
            operator = (tensor(alice_rotation(omega0).matrix, bm - b0)
                        + tensor(alice_rotation(omega2).matrix, bm + b0))
            worst_chsh = max(worst_chsh, abs(chsh_value(psi, n, omega0, omega2)
                                             - expectation(psi, operator)))
            worst_kcbs = max(worst_kcbs, abs(kcbs_value(psi, n).s_kcbs
                                             - expectation(psi, s_mat)))
            co = chsh_coefficients(psi, n)
            probes = rng.uniform(0, 2 * math.pi, size=(10_000, 2))
            values = (co.x0 * np.cos(probes[:, 0]) + co.y0 * np.sin(probes[:, 0])
                      + co.x2 * np.cos(probes[:, 1]) + co.y2 * np.sin(probes[:, 1]))
            worst_probe_excess = max(worst_probe_excess, float(values.max()) - co.s_opt)
    ok = worst_chsh <= 1e-10 and worst_kcbs <= 1e-10 and worst_probe_excess <= 1e-12
    report(4, ok, f"600 states: max CHSH gap = {worst_chsh:.2e}, max KCBS gap = "
                  f"{worst_kcbs:.2e}, max probe excess = {worst_probe_excess:.2e}")
    assert ok


def test_criterion_5_circuit_analytic_equivalence():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice((5, 7, 9)))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        psi = state1(theta, phi)
        co = chsh_coefficients(psi, n)
        alice = alice_rotation(float(rng.choice((co.omega0, co.omega2, 0.0))))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            bob = b0_closed_form(n)
        elif pick == 1:
            bob = bm_bm1_closed_form(n)
        else:
            bob = kcbs_pair(n, int(rng.integers(0, n)))
        exact = run_hybrid_tests(prepare_state1(theta, phi), alice.matrix[None], bob.matrix[None])
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        worst = max(worst, abs(estimators(exact)[0, 0] - direct))
    exact_ok = worst <= 1e-10

    theta = math.radians(49.605)
    probs = run_hybrid_tests(prepare_state1(theta, 0.0), alice_rotation(
        chsh_coefficients(state1(theta, 0.0), 5).omega0).matrix[None],
        bm_bm1_closed_form(5).matrix[None])
    config = FourierTestReport(*probs[0].tolist(), *estimators(probs)[0].tolist())
    shots = 100_000
    sigma = estimator_stddev(config, shots)
    inside = sum(
        abs(sample_shot_stack(probs, shots, seed)[1][0, 0]
            - config.estimator_combined) <= 5 * sigma
        for seed in range(100))
    sampled_ok = inside >= 99
    ok = exact_ok and sampled_ok
    report(5, ok, f"200 exact configs: max gap = {worst:.2e}; "
                  f"{inside}/100 sampled runs within 5 sigma")
    assert ok


def test_criterion_6_tsirelson_property():
    rng = np.random.default_rng(606)
    ceiling = 2 * math.sqrt(2) + 1e-9
    worst = 0.0
    for n in (5, 7, 9, 11):
        for psi in random_states(rng, 1000):
            worst = max(worst, chsh_coefficients(psi, n).s_opt)
    ok = worst <= ceiling
    report(6, ok, f"4000 state evaluations, max s_opt = {worst:.9f} <= {ceiling:.9f}")
    assert ok


def test_criterion_7_state1_optimum_grid():
    psi = state1(math.pi / 2, 0.0)
    co = chsh_coefficients(psi, 5)
    grid = np.linspace(0.0, 2 * math.pi, 2000, endpoint=False)
    branch0 = co.x0 * np.cos(grid) + co.y0 * np.sin(grid)
    branch2 = co.x2 * np.cos(grid) + co.y2 * np.sin(grid)
    grid_max = float(np.max(branch0[:, None] + branch2[None, :]))
    step = 2 * math.pi / 2000
    bound = 2 * step**2
    ok = (grid_max <= co.s_opt + 1e-12 and co.s_opt - grid_max <= bound
          and abs(co.s_opt - 2.7198) <= 1e-4)
    report(7, ok, f"s_opt = {co.s_opt:.6f}, 2000x2000 grid max = {grid_max:.6f}, "
                  f"gap = {co.s_opt - grid_max:.2e} <= {bound:.2e}")
    assert ok


def test_criterion_8_scaling_properties():
    min_margin = math.inf
    for n in range(5, 1000, 2):
        theta_n = 2 * math.acos(math.sqrt((n + 2) / (n + 4)))
        chsh_margin, kcbs_margin = state1_margins(theta_n, 0.0, n)
        min_margin = min(min_margin, chsh_margin, kcbs_margin)
    positive_ok = min_margin > 0

    sizes = np.arange(101, 1000, 2)
    overlaps = coexistence_points(sizes)["overlap"]
    slope = float(np.polyfit(np.log(sizes), np.log(overlaps), 1)[0])
    slope_ok = -1.2 <= slope <= -0.85

    asym_ok = all(asymptotic_margins(n) == (8 / (n + 4), 8 * (n + 2) / (n + 4) ** 2)
                  for n in (5, 7, 55, 999))
    ok = positive_ok and slope_ok and asym_ok
    report(8, ok, f"min family margin = {min_margin:.3e}, log-log slope = {slope:.4f}, "
                  f"asymptotic forms exact = {asym_ok}")
    assert ok


def test_criterion_9_landscape_structure():
    thetas = np.arange(0.0, 181.0, 1.0)
    phis = np.arange(0.0, 360.0, 1.0)
    blocks = list(landscape_scan(5, thetas, phis, mode="analytic").blocks())
    # The margins as written: a block's KCBS margin may be one number for all its cells.
    chsh = np.concatenate([b.data[3] for b in blocks]).reshape(thetas.size, phis.size)
    kcbs = np.concatenate([np.broadcast_to(b.data[4], len(b))
                           for b in blocks]).reshape(thetas.size, phis.size)

    peak = chsh.max()
    peak_cells = {(float(thetas[i]), float(phis[j]))
                  for i, j in zip(*np.nonzero(chsh >= peak - 1e-15))}
    cells_ok = peak_cells == {(90.0, 0.0), (90.0, 180.0)}
    flat = float(np.max(np.abs(kcbs - kcbs[:, :1])))
    flat_ok = flat <= 1e-12
    ok = cells_ok and flat_ok
    report(9, ok, f"CHSH peak cells = {sorted(peak_cells)}, "
                  f"KCBS phi variation = {flat:.2e}")
    assert ok
