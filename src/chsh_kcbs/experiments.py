"""Experiment drivers: violation landscapes, coexistence points, scaling laws.

Analytic mode evaluates the closed-form margins of the minimal state
family; circuit mode re-derives every correlator from sampled Fourier
tests so the two can be compared cell by cell.  The coexistence point at
cycle size n is the angle where the CHSH and KCBS margins cross at
phi = 0, found by one bisection over all requested sizes at once; its
common value is the overlap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, circuits, observables
from .errors import ChshKcbsError, EmptyGrid, NoIntersection
from .linalg import expectation, tensor

BISECTION_MAX_ITER = 200
BISECTION_THETA_TOL = 1e-14
RESIDUAL_TOL = 1e-9
# Cells per landscape block: bounds the memory of a landscape pass.
BLOCK_CELLS = 65536
# Circuit landscape metadata: scheme 2 draws all of a cell's terms from one generator.
SEED_SCHEME = 2


def _cell_seed(master_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed derived from the master seed."""
    return int(np.random.SeedSequence((int(master_seed), int(cell_index))).generate_state(1)[0])


def _bob_bank(n: int) -> np.ndarray:
    """Bob's operator for each of a cell's n + 4 correlators, in term order.

    The four CHSH terms pair B_m B_{m+1}, B_0, B_m B_{m+1}, B_0 with
    Alice's R(omega2), R(omega2), R(omega0), R(omega0); the n KCBS terms
    are the adjacent products B_j B_{j+1} against Alice's identity.
    """
    bm = observables.bm_bm1_closed_form(n).matrix
    b0 = observables.b0_closed_form(n).matrix
    cycle = observables.kcbs_observables(n)
    return np.concatenate([[bm, b0, bm, b0], cycle @ np.roll(cycle, -1, axis=0)])


def _circuit_margins(n, theta, phi, shots, cell_seed, bob_bank) -> tuple[float, float]:
    """Both margins of one cell from sampled Fourier tests.

    The state is prepared once by circuit and all n + 4 correlators are
    read from it in one stacked Fourier test against ``bob_bank``.  CHSH
    uses the four correlators at the analytic optimal angles; KCBS uses
    the n adjacent products with the cycle's minus sign on the
    wraparound term.  The n + 4 terms sample their shots in term order as
    one stack from one generator seeded by ``cell_seed``.
    """
    state = circuits.prepare_state1(theta, phi)
    co = analytic.chsh_coefficients(state, n)
    r0 = observables.alice_rotation(co.omega0).matrix
    r2 = observables.alice_rotation(co.omega2).matrix
    alice = np.empty((n + 4, 2, 2), dtype=complex)
    alice[:4] = (r2, r2, r0, r0)
    alice[4:] = np.eye(2)
    probs = circuits.run_hybrid_tests(state, alice, bob_bank)
    estimates = circuits.sample_shot_stack(probs, shots, cell_seed)[1][:, 0]

    chsh_sum = estimates[0] + estimates[1] + estimates[2] - estimates[3]
    # A running sum, in term order: np.sum's pairwise order would move the last bits.
    kcbs_sum = np.cumsum(np.append(estimates[4:-1], -estimates[-1]))[-1]
    return chsh_sum - 2.0, kcbs_sum - (n - 2.0)


@dataclass(frozen=True, eq=False)
class LandscapeTable:
    """Margins of the minimal state over a (theta, phi) grid, as columns.

    Cells run theta-major, phi-minor, and ``len`` is the cell count.  The
    margins are computed when the table is iterated, one block of at most
    ``BLOCK_CELLS`` cells at a time, so a pass costs O(block) memory
    however large the grid.  :meth:`blocks` is the one read path: the
    writer formats its rows and a caller reads its numbers, both from the
    same ``serialize.Columns``.  A circuit block builds Bob's operator bank
    once, and every pass samples the cells again, from the same seeds, so
    every pass gives the same values.
    """

    n: int
    thetas_deg: np.ndarray
    phis_deg: np.ndarray
    mode: str
    shots: int | None = None
    master_seed: int | None = None

    header = ("n", "theta_deg", "phi_deg", "chsh_margin", "kcbs_margin", "mode", "shots", "seed")
    kinds = (int, float, str, float, float, str, int, int)

    def __len__(self) -> int:
        return self.thetas_deg.size * self.phis_deg.size

    def blocks(self):
        """Yield the rows in cell order as ``serialize.Columns``, one per theta row of a block.

        n, theta, the mode and the shot count are constants of a row; the
        phi texts, made once per pass, and the CHSH margins vary.  The KCBS
        margin and the seed vary as :meth:`_margins` gives them.
        """
        from .serialize import FLOAT_FIELD, Columns  # here, so `import chsh_kcbs` skips it
        phi_texts = [FLOAT_FIELD % phi for phi in self.phis_deg.tolist()]
        n_phi = self.phis_deg.size
        rows, width = max(1, BLOCK_CELLS // n_phi), min(n_phi, BLOCK_CELLS)
        for i in range(0, self.thetas_deg.size, rows):
            thetas = self.thetas_deg[i:i + rows]
            for j in range(0, n_phi, width):
                phis = phi_texts[j:j + width]
                margins = self._margins(thetas, self.phis_deg[j:j + width], i * n_phi + j)
                for theta, chsh, kcbs, seed in zip(thetas.tolist(), *margins):
                    yield Columns(self.kinds, (self.n, theta, phis, chsh, kcbs, self.mode,
                                               self.shots, seed))

    def _margins(self, thetas, phis, first_cell):
        """CHSH margins, KCBS margins and seeds by theta row: (theta, phi) arrays in circuit mode.

        The analytic KCBS margin depends on theta alone: one number per row, and no seed.
        """
        if self.mode == "analytic":
            chsh, kcbs = analytic.state1_margins(np.deg2rad(thetas)[:, None],
                                                 np.deg2rad(phis)[None, :], self.n)
            return chsh, kcbs[:, 0].tolist(), [None] * thetas.size
        bob_bank = _bob_bank(self.n)
        seeds = [_cell_seed(self.master_seed, cell)
                 for cell in range(first_cell, first_cell + thetas.size * phis.size)]
        cells = itertools.product(thetas.tolist(), phis.tolist())
        chsh, kcbs = zip(*(_circuit_margins(self.n, math.radians(t), math.radians(p),
                                            self.shots, seed, bob_bank)
                           for seed, (t, p) in zip(seeds, cells)))
        return tuple(np.reshape(c, (thetas.size, phis.size)) for c in (chsh, kcbs, seeds))


def check_theta_deg(thetas_deg) -> None:
    """Refuse any theta outside [0, 180] degrees, NaN included."""
    thetas = np.array(thetas_deg, dtype=float, ndmin=1)
    outside = thetas[~((thetas >= 0.0) & (thetas <= 180.0))]
    if outside.size:
        raise ValueError(f"theta must lie in [0, 180] degrees, got {float(outside[0])!r}")


def landscape_scan(n, theta_grid_deg, phi_grid_deg, mode="analytic",
                   shots=None, seed=None) -> LandscapeTable:
    """Margins of the minimal state over a (theta, phi) grid in degrees.

    Every input is checked here, before any cell is computed: each grid
    must be one-dimensional, theta must lie in [0, 180] degrees and phi
    must be finite.  The returned table computes its cells block by block
    as it is iterated.  Circuit mode needs a shot count and a master seed
    that is None (0) or an integer >= 0; each cell samples with a seed
    derived from the master seed and the cell index, so results are
    reproducible and order-independent.
    """
    observables.cycle_geometry(n)
    thetas = np.array(theta_grid_deg, dtype=float, ndmin=1)
    phis = np.array(phi_grid_deg, dtype=float, ndmin=1)
    if thetas.ndim != 1 or phis.ndim != 1:
        raise ValueError(f"grids must be one-dimensional, got shapes {thetas.shape}, {phis.shape}")
    if thetas.size == 0 or phis.size == 0:
        raise EmptyGrid("theta and phi grids must both be nonempty")
    if mode not in ("analytic", "circuit"):
        raise ValueError(f"mode must be 'analytic' or 'circuit', got {mode!r}")
    check_theta_deg(thetas)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phi must be finite")

    if mode == "analytic":
        return LandscapeTable(n=n, thetas_deg=thetas, phis_deg=phis, mode="analytic")
    seed = 0 if seed is None else seed
    if type(seed) is bool or not isinstance(seed, int | np.integer) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return LandscapeTable(n=n, thetas_deg=thetas, phis_deg=phis, mode="circuit",
                          shots=circuits.check_shots(shots), master_seed=int(seed))


def coexistence_points(sizes) -> dict[str, np.ndarray]:
    """Angle where the CHSH and KCBS margins cross at phi = 0, for all cycle sizes at once.

    The KCBS margin is maximal at theta = 0 and decreasing while the CHSH
    margin rises from negative values, so their difference changes sign
    exactly once on (0, pi/2) for every valid n.  One bisection runs over
    all sizes, one kernel call per step, each size with its own bracket
    and stop test.  Returns the columns ``n``, ``theta_opt_deg``,
    ``overlap``, ``residual`` and ``iterations``.  Raises NoIntersection,
    naming the size, when a bracket shows no sign change, and
    ChshKcbsError when a residual |chsh - kcbs| exceeds ``RESIDUAL_TOL``.
    """
    if np.size(sizes) == 0:
        raise EmptyGrid("no cycle sizes given")
    n = np.atleast_1d(observables.cycle_geometry(sizes).n)

    def gap(theta):
        chsh, kcbs = analytic.state1_margins(theta, 0.0, n)
        return chsh - kcbs

    lo = np.full(n.shape, 1e-6)
    hi = np.full(n.shape, math.pi / 2 - 1e-6)
    gap_lo = gap(lo)
    no_crossing = gap_lo * gap(hi) > 0
    if no_crossing.any():
        raise NoIntersection(f"margins do not cross on (0, pi/2) for n = {n[no_crossing][0]}")

    iterations = np.zeros(n.shape, dtype=int)
    active = hi - lo > BISECTION_THETA_TOL
    while active.any():
        mid = 0.5 * (lo + hi)
        gap_mid = gap(mid)
        lower = gap_lo * gap_mid <= 0
        hi = np.where(active & lower, mid, hi)
        lo = np.where(active & ~lower, mid, lo)
        gap_lo = np.where(active & ~lower, gap_mid, gap_lo)
        iterations += active
        active &= (hi - lo > BISECTION_THETA_TOL) & (iterations < BISECTION_MAX_ITER)

    theta_opt = 0.5 * (lo + hi)
    chsh, kcbs = analytic.state1_margins(theta_opt, 0.0, n)
    residual = np.abs(chsh - kcbs)
    breach = residual > RESIDUAL_TOL
    if breach.any():
        raise ChshKcbsError(f"margins differ by {residual[breach][0]:.3g} at the crossing for "
                            f"n = {n[breach][0]}, above RESIDUAL_TOL = {RESIDUAL_TOL:g}")
    return {"n": n, "theta_opt_deg": np.degrees(theta_opt), "overlap": 0.5 * (chsh + kcbs),
            "residual": residual, "iterations": iterations}


def scaling_study(sizes) -> tuple[dict[str, np.ndarray], float | None]:
    """Coexistence points, scaling-family margins, and large-n laws per cycle size.

    Returns the :func:`coexistence_points` columns plus
    ``psi_n_kcbs_margin``, ``psi_n_chsh_margin``, ``asym_kcbs`` and
    ``asym_chsh``, and beside them the log-log slope of overlap against
    n over the given sizes (None when they hold fewer than two distinct
    values, since one size fixes no slope).
    """
    columns = coexistence_points(sizes)
    n = columns["n"]
    theta_n = np.array([2.0 * math.acos(math.sqrt((k + 2.0) / (k + 4.0))) for k in n.tolist()])
    columns["psi_n_chsh_margin"], columns["psi_n_kcbs_margin"] = analytic.state1_margins(
        theta_n, 0.0, n)
    columns["asym_kcbs"], columns["asym_chsh"] = analytic.asymptotic_margins(n)
    slope = None
    if np.unique(n).size >= 2:
        slope = float(np.polyfit(np.log(n), np.log(columns["overlap"]), 1)[0])
    return columns, slope


def _random_states(rng, count: int) -> np.ndarray:
    raw = rng.normal(size=(count, 6)) + 1j * rng.normal(size=(count, 6))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _chsh_operator(n, omega0, omega2) -> np.ndarray:
    b0 = observables.b0_closed_form(n).matrix
    bm = observables.bm_bm1_closed_form(n).matrix
    r0 = observables.alice_rotation(omega0).matrix
    r2 = observables.alice_rotation(omega2).matrix
    return tensor(r0, bm - b0) + tensor(r2, bm + b0)


def run_validation() -> list[tuple[str, float, float, bool]]:
    """Run the cross-module invariant suite as rows (name, value, tolerance, ok).

    Each value is the largest gap its check measures, taken with
    ``np.max`` so that a NaN gap makes the value NaN; a row is ok iff
    value <= tolerance, which a NaN value fails.  The signed values (probe
    excess, distance above the Tsirelson bound, excursion outside the KCBS
    range) are negative when the bound holds with room to spare.
    """
    rng = np.random.default_rng(20240917)
    rows = []

    def check(name, gaps, tolerance):
        value = float(np.max(gaps))
        rows.append((name, value, tolerance, value <= tolerance))

    # Cycle geometry: adjacent orthogonality and commutation (wraparound
    # included), the cycle operator identity, and B_j, B_0, B_m B_m+1 as involutions.
    dots, comms, identities, squares = [], [], [], []
    for n in range(5, 23, 2):
        vectors, cycle = observables.kcbs_vectors(n), observables.kcbs_observables(n)
        next_vectors, next_cycle = np.roll(vectors, -1, axis=0), np.roll(cycle, -1, axis=0)
        pairs = cycle @ next_cycle
        s_mat = observables.s_operator(n).matrix
        projector_sum = np.sum(vectors[:, :, None] * vectors[:, None, :], axis=0)
        family = np.concatenate([cycle, [observables.b0_closed_form(n).matrix,
                                         observables.bm_bm1_closed_form(n).matrix]])
        dots.append(np.max(np.abs(vectors[:, None] @ next_vectors[..., None])))
        comms.append(np.max(np.abs(pairs - next_cycle @ cycle)))
        identities += [np.max(np.abs(np.sum(pairs[:-1], axis=0) - pairs[-1] - s_mat)),
                       np.max(np.abs(4 * projector_sum - n * np.eye(3) - s_mat))]
        squares.append(np.max(np.abs(family @ family - np.eye(3))))
    check("adjacent orthogonality, max |<v_j|v_j+1>|", dots, 1e-12)
    check("adjacent commutation, max commutator entry", comms, 1e-12)
    check("cycle operator identity, max entry gap", identities, 1e-10)
    check("observable involutions, max |B^2 - I| entry", squares, 1e-10)

    # Closed form versus direct matrix expectations on random states.
    chsh_gaps, kcbs_gaps = [], []
    for n in (5, 7, 9):
        s_mat = tensor(np.eye(2), observables.s_operator(n).matrix)
        for amps in _random_states(rng, 50):
            om0, om2 = rng.uniform(0, 2 * math.pi, size=2)
            direct = expectation(amps, _chsh_operator(n, om0, om2))
            chsh_gaps.append(abs(direct - analytic.chsh_value(amps, n, om0, om2)))
            kcbs = analytic.kcbs_value(amps, n)
            kcbs_gaps.append(abs(expectation(amps, s_mat) - kcbs.s_kcbs))
    check("closed-form CHSH vs matrices, max gap", chsh_gaps, 1e-10)
    check("closed-form KCBS vs matrices, max gap", kcbs_gaps, 1e-10)

    # Optimality and the Tsirelson ceiling.
    excesses, s_opts = [], []
    for n in (5, 7, 9, 11):
        for amps in _random_states(rng, 50):
            co = analytic.chsh_coefficients(amps, n)
            angles = rng.uniform(0, 2 * math.pi, size=(200, 2))
            probes = (co.x0 * np.cos(angles[:, 0]) + co.y0 * np.sin(angles[:, 0])
                      + co.x2 * np.cos(angles[:, 1]) + co.y2 * np.sin(angles[:, 1]))
            excesses.append(probes.max() - co.s_opt)
            s_opts.append(co.s_opt)
    check("CHSH optimum vs random probes, max probe excess", excesses, 1e-12)
    check("Tsirelson ceiling, max s_opt - 2 sqrt 2", np.max(s_opts) - 2 * math.sqrt(2), 1e-9)

    # KCBS range and threshold consistency.
    excursions, mismatches = [], []
    for n in (5, 7, 9):
        geo = observables.cycle_geometry(n)
        threshold = analytic.p2_threshold(n)
        for amps in _random_states(rng, 50):
            kcbs = analytic.kcbs_value(amps, n)
            excursions += [geo.lambda1 - kcbs.s_kcbs, kcbs.s_kcbs - geo.lambda3]
            if abs(kcbs.p2 - threshold) > 1e-10:
                mismatches.append((kcbs.margin > 0) != (kcbs.p2 > threshold))
    check("KCBS value, max excursion outside [lambda1, lambda3]", excursions, 1e-10)
    check("KCBS margin sign vs p2 threshold, mismatches", np.sum(mismatches), 0)

    # Minimal-state coefficient structure at phi = 0 and pi/3.
    gaps = []
    for n in (5, 7):
        geo = observables.cycle_geometry(n)
        for theta in (0.3, 1.1, 2.4):
            for phi in (0.0, math.pi / 3):
                co = analytic.chsh_coefficients(analytic.state1(theta, phi), n)
                coh = math.sqrt(geo.c) * math.sin(theta) * math.cos(phi) / (1 + geo.c)
                gaps += [abs(co.x0 + 2 * geo.c / (1 + geo.c)),
                         abs(co.x2 - (2 - 4 * geo.c) / (1 + geo.c)),
                         abs(co.y0 - coh * geo.s_minus),
                         abs(co.y2 - coh * geo.s_plus)]
    check("minimal-state coefficients, max gap", gaps, 1e-12)

    # Circuit pipeline: exact Fourier tests reproduce analytic correlators.
    gaps = []
    for _ in range(20):
        n = int(rng.choice((5, 7, 9)))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        psi = analytic.state1(theta, phi)
        co = analytic.chsh_coefficients(psi, n)
        alice = observables.alice_rotation(float(rng.choice((co.omega0, co.omega2, 0.0))))
        bob = (observables.b0_closed_form(n) if rng.uniform() < 0.5
               else observables.bm_bm1_closed_form(n))
        probs = circuits.run_hybrid_tests(circuits.prepare_state1(theta, phi),
                                          alice.matrix[None], bob.matrix[None])
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        gaps += [abs(circuits.estimators(probs)[0, 0] - direct), abs(probs[0, 1] - probs[0, 2])]
    check("Fourier test vs analytic correlators, max gap", gaps, 1e-10)

    # Sampling determinism.
    base = circuits.run_hybrid_tests(circuits.prepare_state1(0.9, 0.4),
                                     observables.alice_rotation(0.3).matrix[None],
                                     observables.b0_closed_form(5).matrix[None])
    counts_a, _ = circuits.sample_shot_stack(base, 5000, 11)
    counts_b, _ = circuits.sample_shot_stack(base, 5000, 11)
    check("seeded sampling, max count difference between reruns", np.abs(counts_a - counts_b), 0)

    # Coexistence residuals and the tabulated n = 5 point.
    points = coexistence_points(range(5, 17, 2))
    check("coexistence residual |chsh - kcbs| for n = 5..15", points["residual"], RESIDUAL_TOL)
    check("n = 5 coexistence angle, |theta - 49.605 deg|",
          abs(points["theta_opt_deg"][0] - 49.605), 0.01)
    check("n = 5 coexistence overlap, |overlap - 0.343069|",
          abs(points["overlap"][0] - 0.343069), 1e-4)

    # Landscape symmetry in phi.
    thetas = np.deg2rad(np.linspace(0, 180, 13))
    phis = np.deg2rad(np.linspace(0, 360, 25))
    chsh, kcbs = analytic.state1_margins(thetas[:, None], phis[None, :], 5)
    check("phi reflection symmetry, max CHSH margin asymmetry",
          np.abs(chsh - chsh[:, ::-1]), 1e-12)
    check("KCBS margin vs phi, max variation", np.abs(kcbs - kcbs[:, :1]), 1e-12)
    return rows
