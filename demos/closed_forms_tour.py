"""Tour of the closed-form layer: geometry, observables, thresholds, margins.

Run with: python demos/closed_forms_tour.py
"""

import math

import numpy as np

from chsh_kcbs import (
    chsh_coefficients,
    cycle_geometry,
    decompose,
    kcbs_value,
    p2_threshold,
    state1,
    state1_margins,
)
from chsh_kcbs.observables import b0_closed_form, bm_bm1_closed_form, s_operator

# ------------------------------------------------------------------
# 1. The odd cycle carries a handful of derived constants.  The diagonal
#    cycle operator S holds the floor of the cycle sum (levels 0 and 1)
#    and its quantum ceiling (level 2).
# ------------------------------------------------------------------
for n in (5, 7, 9, 11):
    floor, _, ceiling = np.diag(s_operator(n)).real
    print(f"n = {n:2d}: c = {cycle_geometry(n).c:.6f}  floor = {floor:.6f}  "
          f"ceiling = {ceiling:.6f}  classical bound = {n - 2}")

# ------------------------------------------------------------------
# 2. Contextuality needs population on the qutrit level 2 above a
#    threshold that rises toward 1 with the cycle size.
# ------------------------------------------------------------------
print("\nKCBS-violating population thresholds:")
for n in (5, 7, 9, 11, 21, 101):
    print(f"  n = {n:3d}: p2 > {p2_threshold(n):.6f}")

# ------------------------------------------------------------------
# 3. Bob's two CHSH observables in closed form.
# ------------------------------------------------------------------
np.set_printoptions(precision=6, suppress=True)
print("\nB_0 at n = 5:\n", b0_closed_form(5).matrix.real)
print("B_m B_m+1 at n = 5:\n", bm_bm1_closed_form(5).matrix.real)
print("cycle operator S:\n", s_operator(5).real)

# ------------------------------------------------------------------
# 4. The minimal state sin(theta/2)|00> + cos(theta/2) e^{i phi}|12>
#    reduces CHSH to four numbers and KCBS to one.
# ------------------------------------------------------------------
theta, phi = math.pi / 2, 0.0
psi = state1(theta, phi)
co = chsh_coefficients(psi, 5)
print(f"\ntheta = 90 deg, phi = 0: x0 = {co.x0:.6f}, y0 = {co.y0:.6f}, "
      f"x2 = {co.x2:.6f}, y2 = {co.y2:.6f}")
print(f"optimal angles omega0 = {math.degrees(co.omega0):.3f} deg, "
      f"omega2 = {math.degrees(co.omega2):.3f} deg, s_opt = {co.s_opt:.6f}")
print(f"KCBS value = {kcbs_value(psi, 5).s_kcbs:.6f} (bound 3): no contextuality here")

# The same state through the population/coherence lens.
parts = decompose(psi, 5)
print(f"decomposition: q0 = {parts.q0:.3f}, r3 = {parts.r3:.3f}, "
      f"s_plus = {parts.s_plus:.6f}, s_minus = {parts.s_minus:.6f}")

# ------------------------------------------------------------------
# 5. The two margins pull theta in opposite directions; both are
#    positive only in a narrow window.
# ------------------------------------------------------------------
print("\n theta(deg)   CHSH margin   KCBS margin")
for theta_deg in (0, 20, 40, 49.605, 60, 90):
    chsh_m, kcbs_m = state1_margins(theta_deg, 0.0, 5)
    print(f"   {theta_deg:7.3f}   {chsh_m:+.6f}    {kcbs_m:+.6f}")
