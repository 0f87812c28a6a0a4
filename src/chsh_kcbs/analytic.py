"""Closed-form engine for the hybrid CHSH-KCBS scenario.

The CHSH side reduces to four real coefficients (x0, y0, x2, y2) built
from populations and coherences of the joint state; the optimum over the
two measurement angles is then the sum of two Euclidean norms.  The KCBS
side depends on a single population parameter p2, the weight on the
qutrit level 2.  Both reductions are exact, and the module also carries
the minimal two-parameter state family, its violation margins at angles
in degrees (sines and cosines exact at quarter turns), the
population/coherence/geometry decomposition, and the large-n laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import STATE_BUILD_TOL, check_normalized, check_one_state, state_vector
from .observables import cycle_geometry


@dataclass(frozen=True)
class ChshCoefficients:
    """CHSH reduction of a joint state at cycle size n: floats, or arrays for a stack of states.

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
    margin: float


@dataclass(frozen=True)
class ResourceDecomposition:
    """Population (q, p2), coherence (r), and geometry (c, s) pieces of a state or a stack.

    These are exactly the ingredients of the CHSH coefficients,
    ``x0 = -2c/(1+c) q0 + 2 q1 + 2 sqrt(c)/(1+c) r1 s_minus`` and so on,
    and of the KCBS sum, which reads the state through ``p2`` alone.
    """

    q0: float
    q1: float
    p2: float
    r1: float
    r2: float
    r3: float
    r4: float
    c: float
    s_plus: float
    s_minus: float


def chsh_coefficients(state, n: int) -> ChshCoefficients:
    """Reduce a normalized joint state, or a (k, 6) stack, to its CHSH coefficients at cycle size n.

    One state gives floats; a stack gives each field as a length-k array,
    every row computed as that state alone would be.  The optimal angle
    for each branch is the two-argument arctangent atan2(y_i, x_i); the
    single-argument arctan of the ratio would pick the minimizing branch
    whenever x_i < 0.  A branch with x_i = y_i = 0 contributes nothing and
    gets angle 0 by convention.
    """
    d = decompose(state, n)
    c = d.c
    coh_scale = 2.0 * math.sqrt(c) / (1 + c)

    x0 = -2.0 * c / (1 + c) * d.q0 + 2.0 * d.q1 + coh_scale * d.r1 * d.s_minus
    y0 = -4.0 * c / (1 + c) * d.r2 + 4.0 * d.r4 + coh_scale * d.r3 * d.s_minus
    x2 = (2.0 - 4.0 * c) / (1 + c) * d.q0 + coh_scale * d.r1 * d.s_plus
    y2 = 2.0 * (2.0 - 4.0 * c) / (1 + c) * d.r2 + coh_scale * d.r3 * d.s_plus
    fields = (x0, y0, x2, y2, np.arctan2(y0, x0), np.arctan2(y2, x2),
              np.hypot(x0, y0) + np.hypot(x2, y2))
    if np.ndim(x0) == 0:
        fields = [float(field) for field in fields]
    return ChshCoefficients(*fields)


def chsh_value(state, n: int, omega0: float, omega2: float) -> float:
    """CHSH functional of one state (a stack raises) at explicit measurement angles."""
    check_one_state(state, "chsh_value")
    co = chsh_coefficients(state, n)
    return (co.x0 * math.cos(omega0) + co.y0 * math.sin(omega0)
            + co.x2 * math.cos(omega2) + co.y2 * math.sin(omega2))


def kcbs_value(state, n: int) -> KcbsReport:
    """KCBS cycle sum of one state, read through the sum of its four weights off level 2.

    A (k, 6) stack, a one-row one included, raises DimensionMismatch.
    """
    check_one_state(state, "kcbs_value")
    (intercept, slope), bound = _kcbs_line(cycle_geometry(n)), float(int(n) - 2)
    w00, w01, w02, w10, w11, w12 = np.abs(state_vector(state, dim=6)) ** 2
    margin = float(intercept - slope * (w00 + w01 + w10 + w11))
    return KcbsReport(bound + margin, float(w02 + w12), margin)


def p2_threshold(n: int) -> float:
    """Level-2 population above which the KCBS inequality is violated."""
    return float(1.0 - np.divide(*_kcbs_line(cycle_geometry(n))))  # q = a / b at a zero margin


def _kcbs_line(geo):
    """Intercept a and slope b of the KCBS margin ``a - b q = 2 - n (2d + (4c - 2) q)/(1 + c)``.

    q is the population off level 2 and ``d = 1 - c = 2 s2^2``; nothing cancels or overflows.
    """
    n, c = np.asarray(geo.n, dtype=float), geo.c
    return 2.0 - n * (4.0 * (geo.s2 * geo.s2) / (1 + c)), n * ((4.0 * c - 2.0) / (1 + c))


def _psi_n_kcbs_margin(geo):
    """KCBS margin of the scaling family, at s = 2/(n+4): ``8/(n+4) - 2 n d (n+1)/((n+4)(1+c))``.

    The same value as :func:`_kcbs_line` at that s, where ``a - b s`` cancels about
    n/4-fold and keeps about n eps relative error; here the two terms are each
    O(1/n) and differ by a factor of about 1.6.  ``2 n d (n+1) = 4 (n s2)(s2 (n+1))``
    is taken in two O(1) factors, so nothing underflows or overflows.
    """
    n, s2 = np.asarray(geo.n, dtype=float), geo.s2
    return (8.0 - 4.0 * (n * s2) * (s2 * (n + 1.0)) / (1 + geo.c)) / (n + 4.0)


def state1(theta: float, phi: float) -> np.ndarray:
    """Minimal two-parameter state sin(theta/2)|00> + cos(theta/2) e^{i phi}|12>, read-only (6,).

    theta must lie in [0, pi]; phi is taken as given, as ``circuits.prepare_state1`` takes it.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta!r}")
    phi = phi if math.isfinite(phi) else math.nan  # a NaN state fails the norm check
    return _built_state(math.sin(theta / 2),
                        math.cos(theta / 2) * complex(math.cos(phi), math.sin(phi)))


def state1_margins(theta_deg, phi_deg, n):
    """Closed-form violation margins of the minimal state family, at angles in degrees.

    Returns ``(chsh_margin, kcbs_margin)``.  The angles and the cycle size ``n`` all
    broadcast, so a grid of angles at one size, or one angle per size over an array of
    sizes, evaluates in one call, once :func:`cycle_geometry` has checked every size.  The
    CHSH margin grows with the interference weight sin^2(theta) cos^2(phi) and takes the
    shape of all three; the KCBS margin depends on theta only, through the population
    sin^2(theta/2) off level 2, and takes the shape of theta and n alone.  Sines and cosines
    come from :func:`sincos_deg`, exact at quarter turns.  A 0-d margin is a float.
    """
    geo = cycle_geometry(n)
    # Squares multiply: numpy scalars would square through libm pow, which
    # can differ from an array's exact square in the last bit.
    sin_half, sin_theta = sincos_deg(np.divide(theta_deg, 2))[0], sincos_deg(theta_deg)[0]
    cos_phi = sincos_deg(phi_deg)[1]
    weight = (sin_theta * sin_theta) * (cos_phi * cos_phi)
    intercept, slope = _kcbs_line(geo)
    margins = _chsh_margin(weight, geo), intercept - slope * (sin_half * sin_half)
    return tuple(float(margin) if np.ndim(margin) == 0 else margin for margin in margins)


def sincos_deg(x_deg):
    """Sine and cosine of angles in degrees, exact wherever they are 0 or +-1.

    x is reduced mod 360 degrees with ``fmod`` and split as 90 q + r, q = rint(x / 90), both
    exactly; the sine and cosine of ``deg2rad(r)``, r in [-45, 45], are then swapped and
    negated by the quadrant q, so no multiple of 90 degrees leaves a conversion residue.
    A NaN angle gives NaN, quietly, as ``np.sin`` does.
    """
    x = np.fmod(x_deg, 360.0)
    quarters = np.rint(x / 90.0)
    r = np.deg2rad(x - 90.0 * quarters)
    sin, cos, quadrant = np.sin(r), np.cos(r), np.nan_to_num(quarters).astype(int) % 4
    return (np.choose(quadrant, (sin, cos, -sin, -cos)),
            np.choose(quadrant, (cos, -sin, -cos, sin)))


def _chsh_margin(weight, geo):
    """CHSH margin at the weight sin^2(theta) cos^2(phi), on checked sizes.

    Each ``sqrt(a^2 + x) - a`` (``a = 2c`` or ``4c - 2 > 0``) is written
    ``x / (sqrt(a^2 + x) + a)``.  The weight comes whole: as ``4 s (1 - s)`` of the
    population s it would cancel near theta = pi.
    """
    # -4d, 1 + c and per branch (a, a^2, coupling^2), formed once per geometry.
    chsh, scale, branches = geo.chsh_constants
    interference = geo.c * np.asarray(weight, dtype=float)
    for a, a_squared, coupling_squared in branches:
        x = interference * coupling_squared
        chsh = chsh + x / (np.sqrt(a_squared + x) + a)
    return chsh / scale


def decompose(state, n: int) -> ResourceDecomposition:
    """Split a normalized state, or a (k, 6) stack, into population, coherence and geometry parts.

    One state gives floats; a stack gives each state part as a length-k
    array, every row computed as that state alone would be.
    """
    geo = cycle_geometry(n)
    amps = state_vector(state, dim=6)
    columns = np.atleast_2d(amps).T
    c00, c01, c02, c10, c11, c12 = columns
    w00, w01, w02, w10, w11, w12 = np.abs(columns) ** 2
    parts = (w00 - w10 - w02 + w12, w01 - w11, w02 + w12,
             (np.conj(c00) * c02 - np.conj(c10) * c12).real,
             (np.conj(c10) * c00 - np.conj(c12) * c02).real,
             (np.conj(c12) * c00 + np.conj(c02) * c10).real,
             (np.conj(c11) * c01).real)
    if amps.ndim == 1:
        parts = [float(part[0]) for part in parts]
    return ResourceDecomposition(*parts, c=geo.c, s_plus=geo.s_plus, s_minus=geo.s_minus)


def psi_n_state(n: int, k: int = 0) -> np.ndarray:
    """Scaling-family member sqrt(2/(n+4))|00> + sqrt((n+2)/(n+4)) (-1)^k |12>, read-only (6,)."""
    cycle_geometry(n)
    return _built_state(math.sqrt(2.0 / (n + 4)), math.sqrt((n + 2.0) / (n + 4)) * (-1) ** int(k))


def _built_state(a00, a12) -> np.ndarray:
    """The state a00|00> + a12|12> as a read-only (6,) complex array, normalized within
    ``STATE_BUILD_TOL`` or refused with NotNormalized."""
    amps = np.zeros(6, dtype=complex)
    amps[0], amps[5] = a00, a12
    check_normalized(amps, STATE_BUILD_TOL)
    amps.setflags(write=False)
    return amps


def asymptotic_margins(n):
    """Leading large-n margins (kcbs, chsh) of the scaling family, for a size or an array."""
    size = np.asarray(cycle_geometry(n).n, dtype=float) + 4.0
    f, k = np.frexp(size)  # 8 (size - 2) / size^2 scaled by 2^-k, so no square overflows
    return 8.0 / size, np.ldexp(8.0 * np.ldexp(size - 2.0, -k) / (f * f), -k)


def theta_opt_asymptotic(n: int) -> float:
    """Large-n balance angle: theta with theta^2 = 8/(n+4)."""
    cycle_geometry(n)
    return math.sqrt(8.0 / (n + 4))
