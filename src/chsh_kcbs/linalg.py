"""Dense complex linear algebra at the small fixed dimensions used here.

Matrices are plain numpy arrays or a checked :class:`Observable`, and
states are plain complex vectors: a builder checks the norm of what it
builds within ``STATE_BUILD_TOL``, and every reader checks the norm of
what it reads within ``STATE_INPUT_TOL``.  Every operation is a pure
function over double-precision values.  The joint qubit-qutrit index
convention is ``3*j + k`` with ``j`` the qubit level and ``k`` the
qutrit level; every tensor product in the package uses the same
left-major block ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ImaginaryResidue, NotHermitian, NotNormalized, NotUnitary

HERMITIAN_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-10
STATE_BUILD_TOL = 1e-12
# Looser than the construction tolerance so states deserialized from text
# (9 significant digits) still pass.
STATE_INPUT_TOL = 1e-9


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor as the major block index.

    Entry ((i, k), (j, l)) of the result is ``a[i, j] * b[k, l]``, so a
    qubit (x) qutrit product matches the ``3*j + k`` state indexing.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermiticity_check(m, tol: float):
    """True iff ``m`` is square and equals its adjoint within ``tol`` (max norm).

    A stack of matrices is checked entry by entry over its last two axes,
    giving a bool array over the leading axes.
    """
    return _within(m, lambda sq: sq - _adjoint(sq), tol)


def unitarity_check(m, tol: float):
    """True iff ``m`` is square and ``m m^dag = I`` within ``tol`` (max norm).

    A stack of matrices is checked entry by entry over its last two axes,
    giving a bool array over the leading axes.
    """
    return _within(m, lambda sq: sq @ _adjoint(sq) - np.eye(sq.shape[-1]), tol)


def _adjoint(sq: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, as a new array."""
    return np.conj(np.swapaxes(sq, -1, -2))


def _within(m, residual, tol: float):
    """Max-norm test of ``residual(m)`` per complex matrix; False for non-square input."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False if m.ndim <= 2 else np.zeros(m.shape[:-2], dtype=bool)
    ok = np.max(np.abs(residual(m)), axis=(-2, -1)) <= tol
    return bool(ok) if m.ndim == 2 else ok


def check_operators(ops, name: str, hermitian=None, unitary=None) -> None:
    """Refuse a matrix or stack not Hermitian within tolerance ``hermitian`` (checked first) or
    not unitary within ``unitary``; a property whose tolerance is None is not checked.

    The error names the operator and a stack's first failing entry, in row-major order.
    """
    for check, tol, error, what in ((hermiticity_check, hermitian, NotHermitian, "Hermitian"),
                                    (unitarity_check, unitary, NotUnitary, "unitary")):
        ok = np.asarray(tol is None or check(ops, tol))
        if not ok.all():
            entry = f" entry {np.flatnonzero(~ok)[0]}" if ok.ndim else ""
            raise error(f"{name}{entry} is not {what} within {tol:g}")


@dataclass(frozen=True)
class Observable:
    """A labelled Hermitian matrix; the matrix is stored read-only."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"observable {self.label!r} must be one square matrix, "
                                    f"got shape {mat.shape}")
        check_operators(mat, f"observable {self.label!r}", hermitian=HERMITIAN_TOL)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def check_normalized(vectors, tol: float) -> None:
    """Refuse a vector, or the first row of a (k, d) stack, whose squared norm is not 1 within tol.

    NaN and infinite entries fail too.
    """
    norm_sq = np.sum(np.abs(vectors) ** 2, axis=-1)
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= tol))
    if bad.size:
        row = f" in row {bad[0]}" if np.ndim(norm_sq) else ""
        raise NotNormalized(
            f"|psi|^2 = {float(norm_sq.flat[bad[0]])!r}{row} is not 1 within {tol:g}")


def check_one_state(psi, reader: str) -> None:
    """Refuse for ``reader`` anything but one state vector, a one-row (1, d) stack included."""
    if np.ndim(psi) != 1:
        raise DimensionMismatch(f"{reader} reads one state vector, got shape {np.shape(psi)}")


def state_vector(psi, dim: int) -> np.ndarray:
    """Coerce an array-like state into a complex vector of length ``dim`` and check its norm.

    A two-dimensional array is a stack of states and keeps its rows; any shape but
    (``dim``,) and (k, ``dim``) raises DimensionMismatch.  Each squared norm must be 1
    within ``STATE_INPUT_TOL`` (``NotNormalized``).
    """
    vec = np.array(psi, dtype=complex)
    if vec.ndim not in (1, 2) or vec.shape[-1] != dim:
        raise DimensionMismatch(f"expected a vector of length {dim} or a (k, {dim}) stack, "
                                f"got shape {vec.shape}")
    check_normalized(vec, STATE_INPUT_TOL)
    return vec


def expectation(psi, op) -> float:
    """Expectation value <psi|op|psi> of one state and a Hermitian matrix, as a real number.

    Raises DimensionMismatch if ``psi`` is not one vector (a (k, d) stack
    included) or ``op`` not a square matrix of its length, NotNormalized
    if ``|psi|^2`` is not 1 within 1e-9, NotHermitian if ``op`` fails the
    1e-12 Hermiticity tolerance, and ImaginaryResidue if the raw value has
    an imaginary part above 1e-10 in magnitude.
    """
    check_one_state(psi, "expectation")
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {mat.shape}")
    vec = state_vector(psi, dim=mat.shape[0])
    check_operators(mat, "operator", hermitian=HERMITIAN_TOL)
    value = complex(vec.conj() @ (mat @ vec))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ImaginaryResidue(f"imaginary residue {value.imag!r} exceeds {IMAG_RESIDUE_TOL:g}")
    return float(value.real)
