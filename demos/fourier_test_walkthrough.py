"""The qutrit Fourier test, from exact probabilities to shot noise.

Run with: python demos/fourier_test_walkthrough.py
"""

import math

from chsh_kcbs import (
    chsh_coefficients,
    estimator_stddev,
    expectation,
    prepare_state1,
    run_hybrid_protocol,
    sample_shots,
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
#    state: the three estimator readouts all equal the direct
#    expectation in exact mode.
# ------------------------------------------------------------------
co = chsh_coefficients(target, 5)
alice = alice_rotation(co.omega0)
bob = bm_bm1_closed_form(5)
report = run_hybrid_protocol(circuit_state, alice, bob)
direct = expectation(target, tensor(alice.matrix, bob.matrix))
print(f"\nancilla probabilities: P0 = {report.p0:.6f}, "
      f"P1 = {report.p1:.6f}, P2 = {report.p2:.6f}")
print(f"estimators: combined = {report.estimator_combined:.12f}, "
      f"from P0 = {report.estimator_p0:.12f}, from P1 = {report.estimator_p1:.12f}")
print(f"direct expectation:   {direct:.12f}")

# ------------------------------------------------------------------
# 3. Finite shots: the empirical estimator fluctuates with the
#    predicted multinomial standard deviation.
# ------------------------------------------------------------------
print("\n shots      estimate     error      predicted sigma")
for shots in (100, 10_000, 1_000_000):
    sampled = sample_shots(report, shots, seed=42)
    sigma = estimator_stddev(report, shots)
    err = abs(sampled.estimator_combined - direct)
    print(f" {shots:8d}   {sampled.estimator_combined:+.6f}   {err:.2e}   {sigma:.2e}")

# ------------------------------------------------------------------
# 4. Same seed, same counts: sampling is reproducible by construction.
# ------------------------------------------------------------------
again = sample_shots(report, 10_000, seed=42)
print(f"\nrepeat with seed 42: counts match -> "
      f"{sample_shots(report, 10_000, seed=42).counts == again.counts}")
