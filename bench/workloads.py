"""Seeded benchmark workloads: the CLI arguments each one runs and its output check.

A workload seed changes the inputs but never their size: it shifts the
angle-grid endpoints (theta stays within [0, 180] degrees), sets the
circuit master seed and shifts the scaling range by an even amount.  The
program only ever sees the generated command-line arguments.

Every check returns a list of problems; an empty list means the file is
correct.  Checks recompute values through other code paths than the CLI
uses (``chsh_coefficients``/``kcbs_value`` on explicit states instead of
the ``state1_margins`` kernel), so a defect in the kernel or in the CSV
writer shows up as a failure.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from chsh_kcbs import analytic, circuits, experiments, observables
from chsh_kcbs.linalg import expectation, tensor

LANDSCAPE_HEADER = ["n", "theta_deg", "phi_deg", "chsh_margin", "kcbs_margin",
                    "mode", "shots", "seed"]
SCALING_HEADER = ["n", "theta_opt_deg", "overlap", "residual",
                  "psi_n_kcbs_margin", "psi_n_chsh_margin", "asym_kcbs", "asym_chsh"]

# A sampled circuit margin may sit this many shot-noise standard deviations
# from its analytic value before the cell counts as wrong.
CIRCUIT_SIGMA_MULTIPLE = 6.0
# Rows per file whose values are recomputed independently.
SAMPLED_ROWS = 400


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Split a CLI output file into (metadata, header, rows)."""
    metadata, header, rows = {}, [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return metadata, header, rows


def fmt9(value: float) -> str:
    return f"{value:.9g}"


def agrees_to_9_digits(text: str, want: float, slack: float = 1e-13) -> bool:
    """True iff ``text`` is ``want`` rounded to 9 significant digits, up to ``slack``.

    The bound is half a unit in the ninth significant digit, plus an
    absolute slack for the last-bit differences between two exact code
    paths.
    """
    got = float(text)
    scale = max(abs(got), abs(want))
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(scale)) - 8) if scale > 0 else 0.0
    return abs(got - want) <= half_unit + slack


def _sample(count: int, seed: int) -> list[int]:
    """Seeded row indices to recompute, always including the first and last row."""
    picks = random.Random(seed).sample(range(count), min(count, SAMPLED_ROWS))
    return sorted(set(picks) | {0, count - 1})


@dataclass(frozen=True)
class Landscape:
    """``landscape`` over an inclusive (theta, phi) grid in degrees."""

    n: int
    theta: tuple[float, float, int]
    phi: tuple[float, float, int]
    mode: str
    shots: int | None = None
    seed: int | None = None

    @property
    def units(self) -> int:
        """Cells for analytic mode; sampled correlators (4 CHSH + n KCBS per cell) for circuits."""
        cells = self.theta[2] * self.phi[2]
        return cells if self.mode == "analytic" else cells * (4 + self.n)

    def argv(self, out: str) -> list[str]:
        args = ["landscape", "--n", str(self.n),
                "--theta", "{}:{}:{}".format(*self.theta),
                "--phi", "{}:{}:{}".format(*self.phi), "--mode", self.mode]
        if self.mode == "circuit":
            args += ["--shots", str(self.shots), "--seed", str(self.seed)]
        return args + ["--out", out, "--no-timestamp"]

    def check(self, path, sample_seed: int) -> list[str]:
        _, header, rows = read_csv(path)
        if header != LANDSCAPE_HEADER:
            return [f"header {header} != {LANDSCAPE_HEADER}"]
        thetas = np.linspace(*self.theta)
        phis = np.linspace(*self.phi)
        if len(rows) != thetas.size * phis.size:
            return [f"{len(rows)} rows, expected {thetas.size * phis.size}"]
        problems = []
        indices = range(len(rows)) if self.mode == "circuit" else _sample(len(rows), sample_seed)
        for index in indices:
            row = rows[index]
            theta, phi = float(thetas[index // phis.size]), float(phis[index % phis.size])
            if (len(row) != len(LANDSCAPE_HEADER)
                    or row[:3] != [str(self.n), fmt9(theta), fmt9(phi)]
                    or row[5:7] != [self.mode, str(self.shots or "")]
                    or row[7].isdigit() != (self.mode == "circuit")):
                problems.append(f"row {index}: unexpected fields {row}")
                continue
            psi = analytic.state1(math.radians(theta), math.radians(phi))
            chsh = analytic.chsh_coefficients(psi, self.n).s_opt - 2.0
            kcbs = analytic.kcbs_value(psi, self.n).margin
            if self.mode == "analytic":
                ok = agrees_to_9_digits(row[3], chsh) and agrees_to_9_digits(row[4], kcbs)
            else:
                sigma_chsh, sigma_kcbs = _shot_noise(psi, self.n, self.shots)
                ok = (abs(float(row[3]) - chsh) <= CIRCUIT_SIGMA_MULTIPLE * sigma_chsh + 1e-9
                      and abs(float(row[4]) - kcbs) <= CIRCUIT_SIGMA_MULTIPLE * sigma_kcbs + 1e-9)
            if not ok:
                problems.append(f"row {index}: margins {row[3]}, {row[4]} vs "
                                f"expected {chsh!r}, {kcbs!r}")
        return problems


def _shot_noise(psi, n: int, shots: int) -> tuple[float, float]:
    """Standard deviations of the sampled CHSH and KCBS margins of one cell.

    Each margin sums independently seeded correlator estimates, so the
    variances add; each correlator's spread is ``estimator_stddev`` at the
    exact Fourier-test probabilities of its analytic expectation value.
    """
    co = analytic.chsh_coefficients(psi, n)
    alice = [observables.alice_rotation(co.omega0), observables.alice_rotation(co.omega2)]
    bob = [observables.b0_closed_form(n), observables.bm_bm1_closed_form(n)]

    def variance(a, b) -> float:
        u = expectation(psi, tensor(a, b))
        p12 = (2.0 - 2.0 * u) / 9.0
        report = circuits.FourierTestReport(p0=(5.0 + 4.0 * u) / 9.0, p1=p12, p2=p12,
                                            estimator_combined=u, estimator_p0=u,
                                            estimator_p1=u)
        return circuits.estimator_stddev(report, shots) ** 2

    chsh = sum(variance(a.matrix, b.matrix) for a in alice for b in bob)
    kcbs = sum(variance(np.eye(2), observables.kcbs_pair(n, j).matrix) for j in range(n))
    return math.sqrt(chsh), math.sqrt(kcbs)


@dataclass(frozen=True)
class Scaling:
    """``scaling`` over the odd cycle sizes start, start + 2, ..., stop."""

    start: int
    stop: int

    @property
    def sizes(self) -> list[int]:
        return list(range(self.start, self.stop + 1, 2))

    @property
    def units(self) -> int:
        return len(self.sizes)

    def argv(self, out: str) -> list[str]:
        return ["scaling", "--n", f"{self.start}:{self.stop}:2", "--out", out, "--no-timestamp"]

    def check(self, path, sample_seed: int) -> list[str]:
        metadata, header, rows = read_csv(path)
        if header != SCALING_HEADER:
            return [f"header {header} != {SCALING_HEADER}"]
        if [row[0] for row in rows] != [str(n) for n in self.sizes]:
            return [f"{len(rows)} rows, expected n = {self.start}..{self.stop} step 2"]
        problems = []
        try:
            if not math.isfinite(float(metadata["loglog_slope"])):
                problems.append(f"loglog_slope is {metadata['loglog_slope']}")
        except (KeyError, ValueError):
            problems.append("loglog_slope missing from the metadata")
        for row in rows:
            if float(row[3]) > experiments.RESIDUAL_TOL:
                problems.append(f"n = {row[0]}: residual {row[3]} > {experiments.RESIDUAL_TOL}")
            if row[0] == "5" and not (abs(float(row[1]) - 49.605) <= 0.01
                                      and abs(float(row[2]) - 0.343069) <= 1e-4):
                problems.append(f"n = 5: theta {row[1]}, overlap {row[2]}, "
                                "expected 49.605 deg, 0.343069")
        for index in _sample(len(rows), sample_seed):
            problems += _check_scaling_row(rows[index])
        return problems


def _check_scaling_row(row: list[str]) -> list[str]:
    """Recompute one scaling row: the crossing, the scaling family and the large-n laws."""
    n = int(row[0])
    theta_deg, overlap = float(row[1]), float(row[2])
    # Both margins at the written angle must equal the written overlap, up to
    # the error the 9-digit angle causes: |d kcbs / d theta| <= n sin(theta).
    theta = math.radians(theta_deg)
    d_theta = math.radians(0.5 * 10.0 ** (math.floor(math.log10(theta_deg)) - 8))
    tol = 2.0 * n * math.sin(theta) * d_theta + 5e-9 * overlap + 1e-12
    psi = analytic.state1(theta, 0.0)
    crossing = (analytic.chsh_coefficients(psi, n).s_opt - 2.0, analytic.kcbs_value(psi, n).margin)
    problems = []
    if any(abs(margin - overlap) > tol for margin in crossing):
        problems.append(f"n = {n}: margins {crossing} at theta_opt differ from overlap "
                        f"{overlap} by more than {tol:.2e}")
    # The scaling-family margins lose about n ulps to cancellation in either path.
    slack = 64 * n * np.finfo(float).eps
    family = analytic.psi_n_state(n)
    expected = (analytic.kcbs_value(family, n).margin,
                analytic.chsh_coefficients(family, n).s_opt - 2.0,
                8.0 / (n + 4), 8.0 * (n + 2) / (n + 4) ** 2)
    if not all(agrees_to_9_digits(text, want, slack) for text, want in zip(row[4:], expected)):
        problems.append(f"n = {n}: scaling-family columns {row[4:]} vs expected {expected}")
    return problems


def _analytic_grid(rng: random.Random, seed: int, small: bool) -> Landscape:
    t0, t1, p0 = rng.uniform(0, 5), 180 - rng.uniform(0, 5), rng.uniform(0, 360)
    counts = (13, 25) if small else (361, 721)
    return Landscape(n=5, theta=(round(t0, 3), round(t1, 3), counts[0]),
                     phi=(round(p0, 3), round(p0 + 360, 3), counts[1]), mode="analytic")


def _circuit_grid(rng: random.Random, seed: int, small: bool) -> Landscape:
    t0, p0 = rng.uniform(20, 40), rng.uniform(0, 180)
    count, shots = (2, 100) if small else (10, 1000)
    return Landscape(n=21, theta=(round(t0, 3), round(t0 + 60, 3), count),
                     phi=(round(p0, 3), round(p0 + 180, 3), count), mode="circuit",
                     shots=shots, seed=seed)


def _scaling_range(rng: random.Random, seed: int, small: bool) -> Scaling:
    shift = 2 * rng.randrange(50)
    return Scaling(start=5 + shift, stop=(49 if small else 999) + shift)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    make: Callable[[random.Random, int, bool], Landscape | Scaling]

    def inputs(self, seed: int, small: bool) -> Landscape | Scaling:
        """The seeded inputs of this workload; ``small`` shrinks them for harness tests."""
        return self.make(random.Random(f"{self.name}:{seed}"), seed, small)


WORKLOADS = {w.name: w for w in (
    Workload("landscape-analytic",
             "361x721 closed-form grid: cost is record building and CSV formatting, "
             "not the 10 ms kernel; shows per-cell memory",
             "cells", _analytic_grid),
    Workload("landscape-circuit",
             "n=21 10x10 grid at 1000 shots: circuit runs, gate validation and "
             "observable construction dominate; CSV writes 100 rows",
             "correlators", _circuit_grid),
    Workload("scaling",
             "498 scalar coexistence bisections: per-call overhead of the scalar "
             "kernel path; CSV formatting barely matters",
             "cycle sizes", _scaling_range),
)}
