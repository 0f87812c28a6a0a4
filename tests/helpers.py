"""Test helpers: output readers, exact cycle rows, a per-size bisection and circuit oracles."""

import math

import numpy as np
import pytest

from chsh_kcbs.analytic import _chsh_margin, _kcbs_line
from chsh_kcbs.circuits import controlled_power, f3, phase_gate, rotation, run_circuit, x02
from chsh_kcbs.linalg import tensor
from chsh_kcbs.observables import cycle_geometry


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


def masked_bisection(sizes) -> dict:
    """Coexistence columns from an overlap bisection in which every size keeps its own stop test.

    Each size narrows its bracket to [F(F(0)), F(0)] with F(m) = chsh(s(m)), then sets the bits
    of its root's offset from the lower end from its own highest bit down, one halving per
    evaluation of chsh(s(m)) - m, counting its own steps, and reports the lower end.
    """
    geo = cycle_geometry(np.asarray(sizes))
    intercept, slope = _kcbs_line(geo)

    def gap(bits):
        m = bits.view(float)
        s = (intercept - m) / slope
        return _chsh_margin(4.0 * s * (1.0 - s), geo) - m

    upper = np.clip(gap(np.zeros(len(sizes), dtype=np.int64)).view(np.int64), 0,
                    intercept.view(np.int64))
    lower = np.clip((gap(upper) + upper.view(float)).view(np.int64), 0, upper)
    width = upper - lower
    steps = np.array([int(w).bit_length() for w in width.tolist()])
    offset, iterations = np.zeros_like(width), np.zeros(len(sizes), dtype=int)
    while (iterations < steps).any():
        active = iterations < steps
        trial = np.minimum(offset | np.left_shift(1, np.maximum(steps - iterations - 1, 0)), width)
        offset = np.where(active & (gap(lower + trial) > 0), trial, offset)
        iterations += active
    overlap = (lower + offset).view(float)
    theta = 2.0 * np.arcsin(np.sqrt((intercept - overlap) / slope))
    return {"theta_opt_deg": np.degrees(theta), "overlap": overlap,
            "residual": np.abs(gap(lower + offset)), "iterations": iterations}


def textbook_margins(mp, n: int, theta, phi=0):
    """(chsh, kcbs) margins of the minimal state at the working precision of ``mp``.

    The textbook forms: two square roots less 2 for CHSH, and for KCBS the
    cycle sum's floor n (1 - c)/(1 + c) on sin^2(theta/2) and ceiling
    n (3c - 1)/(1 + c) on cos^2(theta/2), less the classical bound n - 2.
    """
    c, s2 = mp.cos(mp.pi / n), mp.sin(mp.pi / (2 * n))
    coupling = (-4 if (n - 1) // 2 % 2 else 4) * s2
    weight = c * mp.sin(theta) ** 2 * mp.cos(phi) ** 2
    chsh = (mp.sqrt(4 * c * c + weight * (coupling - 2) ** 2)
            + mp.sqrt((2 - 4 * c) ** 2 + weight * (coupling + 2) ** 2)) / (1 + c) - 2
    kcbs = n * ((1 - c) * mp.sin(theta / 2) ** 2 + (3 * c - 1) * mp.cos(theta / 2) ** 2) / (1 + c)
    return chsh, kcbs - (n - 2)


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
    """Ancilla distribution of the whole protocol as one (ancilla, alice, bob) circuit.

    Alice's qubit factor acts on her qutrit as a direct sum with 1 on the empty level 2.
    """
    a3 = np.eye(3, dtype=complex)
    a3[:2, :2] = a2
    ops = [("R01y", rotation(math.pi - theta), 1),
           ("D(phi,0)", phase_gate(phi), 1),
           ("CX02", controlled_power(x02()), 1),
           ("F3", f3(), 0),
           ("C-U^a", controlled_power(tensor(a3, b3)), 0),
           ("F3_inv", f3().conj().T, 0)]
    final = run_circuit(("ancilla", "alice", "bob"), ops)[0]
    return [float(np.sum(np.abs(final[a * 9:(a + 1) * 9]) ** 2)) for a in range(3)]


def fourier_test_circuit(u, psi) -> list:
    """Ancilla distribution of the Fourier test of a d x d unitary on a d-dim state, as a circuit.

    U and the state are padded to the 3^k levels of k system registers, U by a unit on the
    extra levels.  The system is prepared from |0> by a Householder reflection onto the
    state (times the phase of its first amplitude), then the ancilla runs F3, C-U^a and F3^dag.
    """
    u, psi = np.asarray(u, dtype=complex), np.asarray(psi, dtype=complex)
    registers = max(1, math.ceil(math.log(len(psi), 3) - 1e-9))
    size = 3 ** registers
    padded = np.eye(size, dtype=complex)
    padded[:len(psi), :len(psi)] = u
    target = np.zeros(size, dtype=complex)
    target[:len(psi)] = psi
    phase = target[0] / abs(target[0]) if target[0] else 1.0
    w = np.eye(size)[0] - np.conj(phase) * target
    reflect = 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real if w.any() else 0.0
    prepare = phase * (np.eye(size) - reflect)
    ops = [("prepare", prepare, 1),
           ("F3", f3(), 0),
           ("C-U^a", controlled_power(padded), 0),
           ("F3_inv", f3().conj().T, 0)]
    names = ("ancilla",) + tuple(f"system{r}" for r in range(registers))
    final = run_circuit(names, ops)[0]
    return [float(np.sum(np.abs(final[a * size:(a + 1) * size]) ** 2)) for a in range(3)]
