"""Cycle geometry and the observable family of the hybrid scenario.

The odd n-cycle lives on a qutrit: unit vectors ``psi_j`` with adjacent
pairs orthogonal, sign-alternating reflections ``B_j`` built from their
projectors, and the closed-form matrices for ``B_0``, the middle product
``B_m B_{m+1}``, and the diagonal cycle operator ``S``.  Alice's side only
needs the one-parameter reflection ``R(omega)`` in the XZ plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidCycle
from .linalg import Observable


@dataclass(frozen=True)
class CycleGeometry:
    """Derived constants of the odd n-cycle.

    ``c = cos(pi/n)``, ``s2 = sin(pi/2n)``, ``m = (n-1)/2``, and the two
    distinct eigenvalues of the cycle operator, ``lambda1 = n(1-c)/(1+c)``
    and ``lambda3 = n(3c-1)/(1+c)``.
    """

    n: int
    c: float
    s2: float
    m: int
    lambda1: float
    lambda3: float


def cycle_geometry(n: int) -> CycleGeometry:
    """Build the geometry constants for an odd cycle size n >= 5."""
    if not isinstance(n, (int, np.integer)) or n % 2 == 0 or n < 5:
        raise InvalidCycle(f"cycle size must be an odd integer >= 5, got {n!r}")
    n = int(n)
    c = math.cos(math.pi / n)
    return CycleGeometry(
        n=n,
        c=c,
        s2=math.sin(math.pi / (2 * n)),
        m=(n - 1) // 2,
        lambda1=n * (1 - c) / (1 + c),
        lambda3=n * (3 * c - 1) / (1 + c),
    )


def kcbs_vector(n: int, j: int) -> np.ndarray:
    """Unit vector number j of the n-cycle, angle j*(n-1)*pi/n in the plane."""
    geo = cycle_geometry(n)
    if not 0 <= j < n:
        raise IndexOutOfRange(f"vector index must be in [0, {n - 1}], got {j}")
    angle = j * (n - 1) * math.pi / n
    return np.array([math.cos(angle), math.sin(angle), math.sqrt(geo.c)]) / math.sqrt(1 + geo.c)


def kcbs_observable(n: int, j: int) -> Observable:
    """Cycle observable B_j = (-1)^j (2 |psi_j><psi_j| - I)."""
    v = kcbs_vector(n, j)
    mat = (-1) ** j * (2.0 * np.outer(v, v) - np.eye(3))
    return Observable(matrix=mat, label=f"B_{j}")


def kcbs_pair(n: int, j: int) -> Observable:
    """Product B_j B_{j+1} (indices mod n); Hermitian since the two commute."""
    if not 0 <= j < n:
        raise IndexOutOfRange(f"pair index must be in [0, {n - 1}], got {j}")
    left = kcbs_observable(n, j)
    right = kcbs_observable(n, (j + 1) % n)
    return Observable(matrix=left.matrix @ right.matrix,
                      label=f"B_{j} B_{(j + 1) % n}")


def b0_closed_form(n: int) -> Observable:
    """Closed form of B_0 in the qutrit basis."""
    geo = cycle_geometry(n)
    c, sq = geo.c, math.sqrt(geo.c)
    mat = np.array([
        [(1 - c) / (1 + c), 0.0, 2 * sq / (1 + c)],
        [0.0, -1.0, 0.0],
        [2 * sq / (1 + c), 0.0, (c - 1) / (1 + c)],
    ])
    return Observable(matrix=mat, label="B_0")


def bm_bm1_closed_form(n: int) -> Observable:
    """Closed form of the middle product B_m B_{m+1}, m = (n-1)/2."""
    geo = cycle_geometry(n)
    c, sq = geo.c, math.sqrt(geo.c)
    off = 4 * (-1) ** geo.m * geo.s2 * sq / (1 + c)
    mat = np.array([
        [(1 - 3 * c) / (1 + c), 0.0, off],
        [0.0, 1.0, 0.0],
        [off, 0.0, (3 * c - 1) / (1 + c)],
    ])
    return Observable(matrix=mat, label=f"B_{geo.m} B_{geo.m + 1}")


def alice_rotation(omega: float) -> Observable:
    """Qubit reflection R(omega) = Z cos(omega) + X sin(omega)."""
    co, si = math.cos(omega), math.sin(omega)
    return Observable(matrix=np.array([[co, si], [si, -co]]), label=f"R({omega:.6g})")


def s_operator(n: int) -> Observable:
    """Diagonal cycle operator S = diag(lambda1, lambda1, lambda3)."""
    geo = cycle_geometry(n)
    return Observable(matrix=np.diag([geo.lambda1, geo.lambda1, geo.lambda3]), label="S")
