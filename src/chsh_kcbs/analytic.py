"""Closed-form engine for the hybrid CHSH-KCBS scenario.

The CHSH side reduces to four real coefficients (x0, y0, x2, y2) built
from populations and coherences of the joint state; the optimum over the
two measurement angles is then the sum of two Euclidean norms.  The KCBS
side depends on a single population parameter p2, the weight on the
qutrit level 2.  Both reductions are exact, and the module also carries
the minimal two-parameter state family, its violation margins, the
population/coherence/geometry decomposition, and the large-n laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import JointState, state_vector
from .observables import CycleGeometry, cycle_geometry


@dataclass(frozen=True)
class ChshCoefficients:
    """CHSH reduction of a joint state at cycle size n.

    The four coefficients enter the CHSH functional as
    ``x0 cos(omega0) + y0 sin(omega0) + x2 cos(omega2) + y2 sin(omega2)``;
    ``omega0`` and ``omega2`` are the maximizing settings and ``s_opt``
    the maximal value ``hypot(x0, y0) + hypot(x2, y2)``.
    """

    x0: float
    y0: float
    x2: float
    y2: float
    omega0: float
    omega2: float
    s_opt: float


@dataclass(frozen=True)
class KcbsReport:
    """KCBS cycle sum for one state: value, driving population, and margin."""

    s_kcbs: float
    p2: float
    classical_bound: float
    margin: float


@dataclass(frozen=True)
class ResourceDecomposition:
    """Population (q), coherence (r), and geometry (s) pieces of a state.

    These are exactly the ingredients of the CHSH coefficients:
    ``x0 = -2c/(1+c) q0 + 2 q1 + 2 sqrt(c)/(1+c) r1 s_minus`` and so on.
    """

    q0: float
    q1: float
    r1: float
    r2: float
    r3: float
    r4: float
    s_plus: float
    s_minus: float


def _geometry_weights(geo: CycleGeometry) -> tuple[float, float]:
    """The two geometric couplings 4*(-1)^m*s2 +/- 2."""
    base = 4.0 * (-1) ** geo.m * geo.s2
    return base + 2.0, base - 2.0


def chsh_coefficients(state, n: int) -> ChshCoefficients:
    """Reduce a normalized joint state to its CHSH coefficients at cycle size n.

    The optimal angle for each branch is the two-argument arctangent
    atan2(y_i, x_i); the single-argument arctan of the ratio would pick
    the minimizing branch whenever x_i < 0.  A branch with x_i = y_i = 0
    contributes nothing and gets angle 0 by convention.
    """
    d = decompose(state, n)
    c = cycle_geometry(n).c
    coh_scale = 2.0 * math.sqrt(c) / (1 + c)

    x0 = -2.0 * c / (1 + c) * d.q0 + 2.0 * d.q1 + coh_scale * d.r1 * d.s_minus
    y0 = -4.0 * c / (1 + c) * d.r2 + 4.0 * d.r4 + coh_scale * d.r3 * d.s_minus
    x2 = (2.0 - 4.0 * c) / (1 + c) * d.q0 + coh_scale * d.r1 * d.s_plus
    y2 = 2.0 * (2.0 - 4.0 * c) / (1 + c) * d.r2 + coh_scale * d.r3 * d.s_plus

    return ChshCoefficients(
        x0=x0, y0=y0, x2=x2, y2=y2,
        omega0=math.atan2(y0, x0),
        omega2=math.atan2(y2, x2),
        s_opt=math.hypot(x0, y0) + math.hypot(x2, y2),
    )


def chsh_value(state, n: int, omega0: float, omega2: float) -> float:
    """CHSH functional of a state at explicit measurement angles."""
    co = chsh_coefficients(state, n)
    return (co.x0 * math.cos(omega0) + co.y0 * math.sin(omega0)
            + co.x2 * math.cos(omega2) + co.y2 * math.sin(omega2))


def kcbs_value(state, n: int) -> KcbsReport:
    """KCBS cycle sum of a state; driven entirely by the level-2 population."""
    geo = cycle_geometry(n)
    amps = state_vector(state, dim=6, require_normalized=True)
    p2 = float(abs(amps[2]) ** 2 + abs(amps[5]) ** 2)
    c = geo.c
    s = geo.n * (4 * c - 2) / (1 + c) * p2 + geo.n * (1 - c) / (1 + c)
    bound = float(geo.n - 2)
    return KcbsReport(s_kcbs=s, p2=p2, classical_bound=bound, margin=s - bound)


def p2_threshold(n: int) -> float:
    """Level-2 population above which the KCBS inequality is violated."""
    geo = cycle_geometry(n)
    c = geo.c
    return (geo.n * c - 1 - c) / ((2 * c - 1) * geo.n)


def state1(theta: float, phi: float) -> JointState:
    """Minimal two-parameter state: sin(theta/2)|00> + cos(theta/2) e^{i phi}|12>.

    theta must lie in [0, pi]; phi is reduced mod 2*pi.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta!r}")
    phi = float(phi) % (2 * math.pi)
    amps = np.zeros(6, dtype=complex)
    amps[0] = math.sin(theta / 2)
    amps[5] = math.cos(theta / 2) * complex(math.cos(phi), math.sin(phi))
    return JointState(amps)


def state1_margins(theta, phi, n):
    """Closed-form violation margins of the minimal state family.

    Returns ``(chsh_margin, kcbs_margin)``.  The angles and the cycle
    size ``n`` all broadcast, so a grid of angles at one size, or one
    angle per size over an array of sizes, evaluates in one call; each
    size takes its constants from :func:`cycle_geometry`.  The CHSH
    margin grows with the interference weight sin^2(theta) cos^2(phi);
    the KCBS margin depends on theta only, through the population
    cos^2(theta/2).
    """
    sizes = np.asarray(n)
    constants = [(geo.n, geo.c, *_geometry_weights(geo))
                 for geo in map(cycle_geometry, sizes.ravel().tolist())]
    n_values, c, s_plus, s_minus = np.array(constants, dtype=float).T.reshape(
        (4,) + sizes.shape)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)

    interference = c * np.sin(theta) ** 2 * np.cos(phi) ** 2
    chsh = (np.sqrt(4 * c**2 + interference * s_minus**2)
            + np.sqrt((2 - 4 * c) ** 2 + interference * s_plus**2)) / (1 + c) - 2.0
    kcbs = n_values / (1 + c) * ((4 * c - 2) * np.cos(theta / 2) ** 2 - 2 * c) + 2.0
    kcbs = np.broadcast_to(kcbs, chsh.shape).copy()
    if chsh.ndim == 0:
        return float(chsh), float(kcbs)
    return chsh, kcbs


def decompose(state, n: int) -> ResourceDecomposition:
    """Split a normalized state into population, coherence, and geometry parts."""
    geo = cycle_geometry(n)
    amps = state_vector(state, dim=6, require_normalized=True)
    c00, c01, c02, c10, c11, c12 = amps
    s_plus, s_minus = _geometry_weights(geo)
    return ResourceDecomposition(
        q0=float((abs(c00) ** 2 - abs(c10) ** 2 - abs(c02) ** 2 + abs(c12) ** 2).real),
        q1=float((abs(c01) ** 2 - abs(c11) ** 2).real),
        r1=float((np.conj(c00) * c02 - np.conj(c10) * c12).real),
        r2=float((np.conj(c10) * c00 - np.conj(c12) * c02).real),
        r3=float((np.conj(c12) * c00 + np.conj(c02) * c10).real),
        r4=float((np.conj(c11) * c01).real),
        s_plus=s_plus,
        s_minus=s_minus,
    )


def psi_n_state(n: int, k: int = 0) -> JointState:
    """Member of the scaling family: sqrt(2/(n+4))|00> + sqrt((n+2)/(n+4)) (-1)^k |12>."""
    cycle_geometry(n)
    amps = np.zeros(6, dtype=complex)
    amps[0] = math.sqrt(2.0 / (n + 4))
    amps[5] = math.sqrt((n + 2.0) / (n + 4)) * (-1) ** int(k)
    return JointState(amps)


def asymptotic_margins(n: int) -> tuple[float, float]:
    """Leading large-n margins of the scaling family: (kcbs, chsh)."""
    cycle_geometry(n)
    return 8.0 / (n + 4), 8.0 * (n + 2) / (n + 4) ** 2


def theta_opt_asymptotic(n: int) -> float:
    """Large-n balance angle: theta with theta^2 = 8/(n+4)."""
    cycle_geometry(n)
    return math.sqrt(8.0 / (n + 4))


def coexistence_window(n: int) -> float:
    """Upper edge 2*sqrt(2)/sqrt(n) of the joint-violation window in theta."""
    cycle_geometry(n)
    return 2.0 * math.sqrt(2.0) / math.sqrt(n)
