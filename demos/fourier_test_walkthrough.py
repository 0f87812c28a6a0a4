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
    sample_outcome0,
    sample_shot_stack,
    state1,
    tensor,
)
from chsh_kcbs import circuits
from chsh_kcbs.observables import alice_rotation, bm_bm1_closed_form

# ------------------------------------------------------------------
# 1. Prepare the minimal state by circuit, a one-row (1, 6) stack, and
#    check it against the closed form (they agree to machine precision).
# ------------------------------------------------------------------
theta = math.radians(49.605)
phi = 0.0
circuit_state = prepare_state1(theta, phi)
target = state1(theta, phi)
overlap = abs(sum(a.conjugate() * b for a, b in zip(target, circuit_state[0])))
print(f"preparation fidelity: {overlap:.15f}")

# ------------------------------------------------------------------
# 2. One CHSH correlator through the ancilla, read from the prepared
#    state as a grid of one cell by one term: the three estimator
#    readouts all equal the direct expectation in exact mode.
# ------------------------------------------------------------------
co = chsh_coefficients(target, 5)
alice = alice_rotation(co.omega0)
bob = bm_bm1_closed_form(5)
probs = run_hybrid_tests(circuit_state, alice.matrix[None, None], bob.matrix[None])
(p0, p1, p2), (combined, from_p0, from_p1) = probs[0, 0], estimators(probs)[0, 0]
direct = expectation(target, tensor(alice.matrix, bob.matrix))
print(f"\nancilla probabilities: P0 = {p0:.6f}, P1 = {p1:.6f}, P2 = {p2:.6f}")
print(f"estimators: combined = {combined:.12f}, "
      f"from P0 = {from_p0:.12f}, from P1 = {from_p1:.12f}")
print(f"direct expectation:   {direct:.12f}")

# ------------------------------------------------------------------
# 3. Finite shots: the outcome-0 count is one binomial draw, and the
#    estimate it gives fluctuates with the predicted standard deviation.
#    Shots are drawn for a stack of cells, one seed each; here one cell
#    of one test.  The other shots split between outcomes 1 and 2 at
#    exactly 1/2, since P1 = P2.
# ------------------------------------------------------------------
report = FourierTestReport(p0, p1, p2, combined, from_p0, from_p1)
print("\n shots      estimate     error      predicted sigma")
for shots in (100, 10_000, 1_000_000):
    _, sampled = sample_shot_stack(probs, shots, seeds=[42])
    sigma = estimator_stddev(report, shots)
    err = abs(sampled[0, 0, 0] - direct)
    print(f" {shots:8d}   {sampled[0, 0, 0]:+.6f}   {err:.2e}   {sigma:.2e}")

# ------------------------------------------------------------------
# 4. A landscape reads outcome 0 alone: the same seed gives the same
#    outcome-0 count without the split, and its from_p0 estimate.
# ------------------------------------------------------------------
counts, _ = sample_shot_stack(probs, 10_000, seeds=[42])
outcome0 = sample_outcome0(probs[..., 0], 10_000, seeds=[42])
print(f"\noutcome-0 count {outcome0[0, 0]} (three-count draw: {counts[0, 0].tolist()}), "
      f"estimate {circuits.from_p0(outcome0[0, 0] / 10_000):+.6f}")

# ------------------------------------------------------------------
# 5. Same seed, same counts: sampling is reproducible by construction.
# ------------------------------------------------------------------
again, _ = sample_shot_stack(probs, 10_000, seeds=[42])
print(f"repeat with seed 42: counts match -> {counts.tolist() == again.tolist()}")
