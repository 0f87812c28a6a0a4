"""Cycle geometry and the observable family of the hybrid scenario.

The odd n-cycle lives on a qutrit.  Its unit vectors ``psi_j`` (adjacent
pairs orthogonal) and sign-alternating reflections ``B_j`` are built once
per cycle as an (n, 3) and an (n, 3, 3) array, or for chosen rows only,
so a few rows of a large cycle cost O(rows), each from its reduced angle
j pi / n and exact to a few ulp at any size; beside them are the closed
forms of ``B_0``, the middle product ``B_m B_{m+1}`` and the diagonal cycle
operator ``S``.  Alice only needs the reflection ``R(omega)`` in the XZ plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange, InvalidCycle
from .linalg import Observable


@dataclass(frozen=True)
class CycleGeometry:
    """Derived constants of the odd n-cycle: numbers for one size, arrays for an array of sizes.

    ``c = cos(pi/n)``, ``s2 = sin(pi/2n)``, from which ``1 - c = 2 s2^2`` is
    formed without cancelling, ``m = (n-1)/2`` and the CHSH couplings
    ``s_plus, s_minus = 4 (-1)^m s2 +/- 2``.
    """

    n: int | np.ndarray
    c: float | np.ndarray
    s2: float | np.ndarray
    m: int | np.ndarray
    s_plus: float | np.ndarray
    s_minus: float | np.ndarray

    @cached_property
    def chsh_constants(self):
        """``analytic._chsh_margin``'s per-size constants, formed once for all its calls."""
        c, branches = self.c, ((2.0 * self.c, self.s_minus), (4.0 * self.c - 2.0, self.s_plus))
        return -8.0 * (self.s2 * self.s2), 1 + c, tuple((a, a * a, k * k) for a, k in branches)


def cycle_geometry(n) -> CycleGeometry:
    """Build the geometry constants for an odd cycle size n >= 5, or for each size in an array.

    Python ints beyond int64 are accepted, in an object array when a list
    mixes them with smaller ones, up to the largest float; floats, strings
    and an empty array are not.  An error names the first invalid size.
    """
    sizes = np.asarray(n)
    if sizes.dtype.kind == "f" and not isinstance(n, np.ndarray):  # a list of mixed-width ints
        sizes = np.asarray(n, dtype=object)
    bad = sizes.ravel()
    if np.issubdtype(sizes.dtype, np.integer) or sizes.dtype == object and all(
            isinstance(k, (int, np.integer)) for k in bad):
        bad = bad[(bad % 2 == 0) | (bad < 5) | (bad > sys.float_info.max)]
        n = bad.tolist()[0] if bad.size else n
    if sizes.size == 0 or bad.size:
        raise InvalidCycle(
            f"cycle size must be an odd integer in [5, {sys.float_info.max!r}], got {n!r}")
    n_float = sizes.astype(float)
    c = np.cos(np.pi / n_float)
    s2 = np.sin(np.pi / 2 / n_float)  # 2 * n_float would overflow near the largest float
    m = (sizes - 1) // 2
    coupling = np.where(m % 2 == 1, -4.0, 4.0) * s2
    fields = (sizes, c, s2, m, coupling + 2.0, coupling - 2.0)
    if sizes.ndim == 0:
        fields = [np.asarray(value).item() for value in fields]
    return CycleGeometry(*fields)


def kcbs_vectors(n: int, rows=None) -> np.ndarray:
    """The cycle's unit vectors as a read-only (n, 3) array, adjacent rows orthogonal.

    Row j is ``(cos a_j, sin a_j, sqrt(c)) / sqrt(1 + c)`` with ``a_j = j (n-1) pi / n``.
    For odd n, ``a_j = (j mod 2) pi - x`` (mod 2 pi) with ``x = j pi / n`` in [0, pi), so
    the row is built as ``((-1)^j cos x, -(-1)^j sin x, sqrt(c)) / sqrt(1 + c)``: no
    integer product is formed, and every row of every size in float range is within a
    few ulp of the exact angle.  ``rows``, a sequence of indices in [0, n), builds only
    those rows, in that order, each equal to its row of the whole cycle.
    """
    geo = cycle_geometry(n)
    index = np.arange(geo.n) if rows is None else np.asarray(rows).reshape(-1)
    if index.size and (int(index.min()) < 0 or int(index.max()) >= geo.n):
        raise IndexOutOfRange(f"cycle rows must be in [0, {geo.n - 1}], got {rows!r}")
    # j pi / n to the bit, quartered so j pi cannot overflow; indices past int64 are objects.
    x = index.astype(float) * (math.pi / 4) / (geo.n / 4)
    sign = np.where(index % 2 == 1, -1.0, 1.0)
    # Subtracting from 0.0 keeps row 0's y entry +0.0, as sin(0) gives it.
    vectors = np.stack([sign * np.cos(x), 0.0 - sign * np.sin(x),
                        np.full(index.size, math.sqrt(geo.c))], axis=1) / math.sqrt(1 + geo.c)
    vectors.setflags(write=False)
    return vectors


def kcbs_observables(n: int, rows=None) -> np.ndarray:
    """The cycle observables as a read-only (n, 3, 3) complex stack.

    Entry j is ``B_j = (-1)^j (2 |psi_j><psi_j| - I)``, with ``psi_j`` row j
    of :func:`kcbs_vectors`; ``rows`` builds only those entries, as there.
    """
    vectors = kcbs_vectors(n, rows)
    index = np.arange(len(vectors)) if rows is None else np.asarray(rows).reshape(-1)
    signs = np.where(index % 2 == 1, -1.0, 1.0)[:, None, None]
    stack = (signs * (2.0 * (vectors[:, :, None] * vectors[:, None, :]) - np.eye(3))).astype(complex)
    stack.setflags(write=False)
    return stack


def kcbs_pairs(n: int, start: int, stop: int) -> np.ndarray:
    """The products B_j B_{j+1} (indices mod n) for j in [start, stop), as one (pairs, 3, 3) stack.

    Only the cycle rows start..stop are built, row n read as row 0, so the
    memory grows with stop - start and not with n; each product is Hermitian
    since its two factors commute.
    """
    cycle = kcbs_observables(n, [j % n for j in range(start, stop + 1)])
    return cycle[:-1] @ cycle[1:]


def kcbs_pair(n: int, j: int) -> Observable:
    """Product B_j B_{j+1} (indices mod n), the one entry j of :func:`kcbs_pairs`."""
    if not 0 <= j < n:
        raise IndexOutOfRange(f"pair index must be in [0, {n - 1}], got {j}")
    return Observable(matrix=kcbs_pairs(n, j, j + 1)[0], label=f"B_{j} B_{(j + 1) % n}")


def b0_closed_form(n: int) -> Observable:
    """Closed form of B_0 in the qutrit basis."""
    c = cycle_geometry(n).c
    return _xz_reflection((1 - c) / (1 + c), 2 * math.sqrt(c) / (1 + c), -1.0, "B_0")


def bm_bm1_closed_form(n: int) -> Observable:
    """Closed form of the middle product B_m B_{m+1}, m = (n-1)/2."""
    geo = cycle_geometry(n)
    off = 4 * (-1) ** geo.m * geo.s2 * math.sqrt(geo.c) / (1 + geo.c)
    return _xz_reflection((1 - 3 * geo.c) / (1 + geo.c), off, 1.0, f"B_{geo.m} B_{geo.m + 1}")


def _xz_reflection(corner: float, off: float, middle: float, label: str) -> Observable:
    """``[[corner, 0, off], [0, middle, 0], [off, 0, -corner]]`` in the qutrit basis."""
    mat = np.array([[corner, 0.0, off], [0.0, middle, 0.0], [off, 0.0, -corner]])
    return Observable(matrix=mat, label=label)


def alice_rotation(omega: float) -> Observable:
    """Qubit reflection R(omega) = Z cos(omega) + X sin(omega)."""
    co, si = math.cos(omega), math.sin(omega)
    return Observable(matrix=np.array([[co, si], [si, -co]]), label=f"R({omega:.6g})")


def s_operator(n: int) -> np.ndarray:
    """Diagonal cycle operator S as a read-only complex (3, 3) matrix: floor n (1 - c)/(1 + c)
    twice, then ceiling n (3c - 1)/(1 + c)."""
    geo = cycle_geometry(n)
    # 1 - c as 2 s2^2; n multiplies each ratio, so neither overflows.
    floor, ceiling = (geo.n * (x / (1 + geo.c)) for x in (2 * geo.s2 * geo.s2, 3 * geo.c - 1))
    mat = np.diag([floor, floor, ceiling]).astype(complex)
    mat.setflags(write=False)
    return mat
