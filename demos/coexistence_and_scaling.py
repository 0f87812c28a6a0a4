"""Coexistence points and their large-n scaling.

Run with: python demos/coexistence_and_scaling.py
"""

import math

from chsh_kcbs import coexistence_points, psi_n_state, scaling_study
from chsh_kcbs.analytic import asymptotic_margins, kcbs_value, theta_opt_asymptotic

# ------------------------------------------------------------------
# 1. Where CHSH and KCBS margins cross at phi = 0.  The overlap peaks
#    at n = 9 and then shrinks roughly like 1/n.
# ------------------------------------------------------------------
print("  n   theta_opt(deg)   overlap     residual")
points = coexistence_points([5, 7, 9, 11, 21, 41, 55])
for n, theta, overlap, residual in zip(points["n"], points["theta_opt_deg"],
                                       points["overlap"], points["residual"]):
    print(f" {n:3d}   {theta:10.3f}   {overlap:.6f}   {residual:.1e}")

# ------------------------------------------------------------------
# 2. The explicit state family keeps both violations alive for every
#    odd n; its margins approach the leading-order laws.
# ------------------------------------------------------------------
print("\n  n    KCBS margin   8/(n+4)     CHSH asym 8(n+2)/(n+4)^2")
study, _ = scaling_study(range(5, 26, 2))
for n, kcbs, asym_kcbs, asym_chsh in zip(study["n"], study["psi_n_kcbs_margin"],
                                         study["asym_kcbs"], study["asym_chsh"]):
    print(f" {n:3d}    {kcbs:.6f}    {asym_kcbs:.6f}    {asym_chsh:.6f}")

# ------------------------------------------------------------------
# 3. The balance angle shrinks like sqrt(8/(n+4)).
# ------------------------------------------------------------------
print("\n  n   theta_opt(deg)   asymptotic sqrt(8/(n+4)) (deg)")
points = coexistence_points([25, 101, 401, 999])
for n, theta in zip(points["n"].tolist(), points["theta_opt_deg"]):
    print(f" {n:4d}   {theta:9.3f}        "
          f"{math.degrees(theta_opt_asymptotic(n)):9.3f}")

# ------------------------------------------------------------------
# 4. Overlap versus n on a log-log scale is a straight line of slope
#    close to -1.
# ------------------------------------------------------------------
_, wide_slope = scaling_study(range(101, 400, 2))
print(f"\nlog-log slope of overlap over odd n in [101, 399]: "
      f"{wide_slope:.4f}")

# A family member for reference: its level-2 weight sits just above the
# violation threshold.
psi = psi_n_state(101)
print(f"family state at n = 101: p2 = {kcbs_value(psi, 101).p2:.6f}, "
      f"margin = {kcbs_value(psi, 101).margin:.6f}")
