"""Test helpers: output readers, exact cycle rows, a per-size bisection and a circuit oracle."""

import math

import numpy as np
import pytest

from chsh_kcbs.analytic import state1_margins
from chsh_kcbs.circuits import (CircuitSpec, GateOp, controlled_power, embed_alice, f3, phase_gate,
                                rotation, run_circuit, x02)
from chsh_kcbs.linalg import tensor


def matrix_from_json(payload: dict) -> np.ndarray:
    """Inverse of ``serialize.matrix_to_json``."""
    rows, cols = int(payload["rows"]), int(payload["cols"])
    entries = payload["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def exact_cycle_rows(n: int, rows) -> list:
    """Rows of the n-cycle at the exact angle j (n - 1) pi / n, as 40-digit mpmath numbers.

    The angle is reduced mod 2 pi in integers, as (j (n - 1) mod 2n) pi / n.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = mpmath.cos(mpmath.pi / n)
        scale = mpmath.sqrt(1 + c)
        return [[mpmath.cos(a) / scale, mpmath.sin(a) / scale, mpmath.sqrt(c) / scale]
                for a in (j * (n - 1) % (2 * n) * mpmath.pi / n for j in rows)]


def worst_error(values, exact) -> float:
    """Largest |value - exact| over the entries of a float array and a like-shaped exact nest."""
    mpmath = pytest.importorskip("mpmath")
    pairs = zip(np.asarray(values).real.ravel().tolist(), np.asarray(exact, dtype=object).ravel())
    return max(float(abs(mpmath.mpf(value) - reference)) for value, reference in pairs)


def masked_bisection(sizes, tolerance: float) -> dict:
    """Coexistence columns from a bisection in which every size keeps its own stop test.

    Each size is active until its own bracket is within ``tolerance`` (or 200 steps),
    counts its own steps, and tests for a sign change by multiplying the two gaps.
    Sizes stay below about 1e150 here, so the product cannot overflow.
    """
    n = np.asarray(sizes)

    def gap(theta):
        chsh, kcbs = state1_margins(theta, 0.0, n)
        return chsh - kcbs

    lo, hi = np.full(n.shape, 1e-6), np.full(n.shape, math.pi / 2 - 1e-6)
    gap_lo = gap(lo)
    assert not np.any(gap_lo * gap(hi) > 0)
    iterations = np.zeros(n.shape, dtype=int)
    active = hi - lo > tolerance
    while active.any():
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        lower = gap_lo * gap_mid <= 0
        hi = np.where(active & lower, mid, hi)
        lo = np.where(active & ~lower, mid, lo)
        gap_lo = np.where(active & ~lower, gap_mid, gap_lo)
        iterations += active
        active &= (hi - lo > tolerance) & (iterations < 200)
    theta = 0.5 * (lo + hi)
    chsh, kcbs = state1_margins(theta, 0.0, n)
    return {"theta_opt_deg": np.degrees(theta), "overlap": 0.5 * (chsh + kcbs),
            "residual": np.abs(chsh - kcbs), "iterations": iterations}


def read_csv(path: str) -> tuple[list[str], list[list[str]], dict]:
    """Read back a CSV written by ``serialize.write_csv``.

    Returns (header, rows-as-strings, metadata).
    """
    metadata: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows, metadata


def three_register_probabilities(theta, phi, a2, b3):
    """Ancilla distribution of the whole protocol as one (ancilla, alice, bob) circuit."""
    ops = (GateOp("R01y", rotation((0, 1), "y", math.pi - theta), 1),
           GateOp("D(phi,0)", phase_gate(phi, 0.0), 1),
           GateOp("CX02", controlled_power(x02()), 1),
           GateOp("F3", f3(), 0),
           GateOp("C-U^a", controlled_power(tensor(embed_alice(a2), b3)), 0),
           GateOp("F3_inv", f3().conj().T, 0))
    final = run_circuit(CircuitSpec(("ancilla", "alice", "bob"), ops))[0]
    return [float(np.sum(np.abs(final[a * 9:(a + 1) * 9]) ** 2)) for a in range(3)]
