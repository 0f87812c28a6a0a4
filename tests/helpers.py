"""Test helpers: output readers, exact cycle rows and an independent circuit oracle."""

import math

import numpy as np
import pytest

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
