"""The qutrit Fourier test, from exact probabilities to shot noise.

Run with: python demos/fourier_test_walkthrough.py
"""

import math

from chsh_kcbs import (
    FourierTestReport,
    chsh_coefficients,
    estimator_stddev,
    estimators,
    expectation,
    prepare_state1,
    run_hybrid_tests,
    sample_shot_stack,
    state1,
    tensor,
)
from chsh_kcbs.observables import alice_rotation, bm_bm1_closed_form

# ------------------------------------------------------------------
# 1. Prepare the minimal state by circuit and check it against the
#    closed form (they agree to machine precision).
# ------------------------------------------------------------------
theta = math.radians(49.605)
phi = 0.0
circuit_state = prepare_state1(theta, phi)
target = state1(theta, phi)
overlap = abs(sum(a.conjugate() * b for a, b in
                  zip(target.amplitudes, circuit_state.amplitudes)))
print(f"preparation fidelity: {overlap:.15f}")

# ------------------------------------------------------------------
# 2. One CHSH correlator through the ancilla, read from the prepared
#    state as a stack of one test: the three estimator readouts all
#    equal the direct expectation in exact mode.
# ------------------------------------------------------------------
co = chsh_coefficients(target, 5)
alice = alice_rotation(co.omega0)
bob = bm_bm1_closed_form(5)
probs = run_hybrid_tests(circuit_state, alice.matrix[None], bob.matrix[None])
(p0, p1, p2), (combined, from_p0, from_p1) = probs[0], estimators(probs)[0]
direct = expectation(target, tensor(alice.matrix, bob.matrix))
print(f"\nancilla probabilities: P0 = {p0:.6f}, P1 = {p1:.6f}, P2 = {p2:.6f}")
print(f"estimators: combined = {combined:.12f}, "
      f"from P0 = {from_p0:.12f}, from P1 = {from_p1:.12f}")
print(f"direct expectation:   {direct:.12f}")

# ------------------------------------------------------------------
# 3. Finite shots: the empirical estimator fluctuates with the
#    predicted multinomial standard deviation.
# ------------------------------------------------------------------
report = FourierTestReport(p0, p1, p2, combined, from_p0, from_p1)
print("\n shots      estimate     error      predicted sigma")
for shots in (100, 10_000, 1_000_000):
    _, sampled = sample_shot_stack(probs, shots, seed=42)
    sigma = estimator_stddev(report, shots)
    err = abs(sampled[0, 0] - direct)
    print(f" {shots:8d}   {sampled[0, 0]:+.6f}   {err:.2e}   {sigma:.2e}")

# ------------------------------------------------------------------
# 4. Same seed, same counts: sampling is reproducible by construction.
# ------------------------------------------------------------------
first, _ = sample_shot_stack(probs, 10_000, seed=42)
again, _ = sample_shot_stack(probs, 10_000, seed=42)
print(f"\nrepeat with seed 42: counts match -> {first.tolist() == again.tolist()}")
