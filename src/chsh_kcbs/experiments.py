"""Experiment drivers: violation landscapes, coexistence points, scaling laws.

Analytic mode evaluates the closed-form margins of the minimal state
family, one ``analytic.state1_margins`` call per block on the degrees as
given; circuit mode re-derives every correlator from sampled Fourier
tests so the two can be compared cell by cell.  The coexistence point at
cycle size n is where the CHSH and KCBS margins cross at phi = 0: one
bisection for the overlap steps every size in lockstep on one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, circuits, observables
from .errors import ChshKcbsError, EmptyGrid, NoIntersection
from .linalg import expectation, tensor

RESIDUAL_TOL = 1e-9
BLOCK_CELLS = 65536  # cells per landscape block
# Circuit landscape metadata: scheme 3 draws each term's outcome-0 count, one binomial per term.
SEED_SCHEME = 3


def _cell_seed(master_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed derived from the master seed."""
    return int(np.random.SeedSequence((int(master_seed), int(cell_index))).generate_state(1)[0])


def _alice_rotations(co) -> np.ndarray:
    """Alice's R(omega2), R(omega2), R(omega0), R(omega0) per cell, as a (cells, 4, 2, 2) stack."""
    omegas = np.column_stack([co.omega2, co.omega2, co.omega0, co.omega0])
    cos, sin = np.cos(omegas), np.sin(omegas)
    return np.stack([np.stack([cos, sin], -1), np.stack([sin, -cos], -1)], -2)


def _term_sums(n: int, thetas, phis, seeds, shots) -> tuple[np.ndarray, np.ndarray]:
    """Running CHSH and KCBS sums of a group of at most ``circuits.BLOCK_TERMS`` cells.

    The group is prepared in one run.  Its 4 CHSH terms are one (cell, term) grid, Alice's
    R(omega2), R(omega2), R(omega0), R(omega0) against B_m B_{m+1}, B_0, B_m B_{m+1}, B_0, the
    fourth with a minus sign; its n KCBS pairs follow in blocks of at most ``BLOCK_TERMS``, each
    one grid of one (1, 1) identity against the products B_j B_{j+1}, the wraparound pair with
    a minus sign.  Each cell draws its outcome-0 counts in term order from one generator seeded
    by its cell seed, the CHSH terms with the first block, and sums their from_p0 estimates.
    """
    states = circuits.prepare_state1(thetas, phis)
    rotations = _alice_rotations(analytic.chsh_coefficients(states, n))
    generators = [np.random.default_rng(seed) for seed in seeds]
    bm, b0 = observables.bm_bm1_closed_form(n).matrix, observables.b0_closed_form(n).matrix
    p0 = circuits.run_hybrid_tests(states, rotations, np.array([bm, b0, bm, b0]))[..., 0]
    chsh = kcbs = np.zeros(len(states))
    sign = np.array([1.0, 1.0, 1.0, -1.0])  # the CHSH terms lead the first block's draw
    for start in range(0, n, circuits.BLOCK_TERMS):
        stop = min(start + circuits.BLOCK_TERMS, n)
        probs = circuits.run_hybrid_tests(states, np.eye(2)[None, None],
                                          observables.kcbs_pairs(n, start, stop))
        p0 = np.hstack([p0, probs[..., 0]])
        sign = np.append(sign, np.where(np.arange(start, stop) == n - 1, -1.0, 1.0))
        terms = sign * circuits.from_p0(circuits.sample_outcome0(p0, shots, generators) / shots)
        chsh = _running_sums(chsh, terms[:, :start - stop])  # no CHSH term after the first
        kcbs, p0, sign = _running_sums(kcbs, terms[:, start - stop:]), p0[:, :0], sign[:0]
    return chsh, kcbs


def _running_sums(sums, terms) -> np.ndarray:
    """Each row's running sum carried on through its terms, in term order, to the bit."""
    # np.sum's pairwise order would move the last bits; accumulate is sequential.
    return np.cumsum(np.column_stack([sums, terms]), axis=1)[:, -1]


@dataclass(frozen=True, eq=False)
class LandscapeTable:
    """Margins of the minimal state over a (theta, phi) grid, read in blocks of plain columns.

    Cells run theta-major, phi-minor, and ``len`` is the cell count.  :meth:`blocks`, the
    one read path, computes the margins of at most ``BLOCK_CELLS`` cells at a time, so a
    pass costs O(block) memory however large the grid; circuit cells are summed by
    :func:`_term_sums` in O(``circuits.BLOCK_TERMS``) rows however large n is, no value
    depends on the blocking, and every pass samples again from the same seeds.
    """

    n: int
    thetas_deg: np.ndarray
    phis_deg: np.ndarray
    mode: str
    shots: int | None = None
    master_seed: int | None = None

    header = ("n", "theta_deg", "phi_deg", "chsh_margin", "kcbs_margin", "mode", "shots", "seed")

    def __len__(self) -> int:
        return self.thetas_deg.size * self.phis_deg.size

    def blocks(self):
        """Yield the rows in cell order as tuples of column values, one per kernel block: n,
        mode and shots constant, theta (theta, 1), phi the 1-D slice every theta row shares,
        the margins and seeds (theta, phi), but in analytic mode the KCBS margin (theta, 1)
        and no seed.  A block is whole theta rows, or a slice of a row wider than a block."""
        width = self.phis_deg.size
        step, span = max(1, BLOCK_CELLS // width), min(width, BLOCK_CELLS)
        for rows in (slice(i, i + step) for i in range(0, self.thetas_deg.size, step)):
            for cells in (slice(j, j + span) for j in range(0, width, span)):
                chsh, kcbs, seeds = self._margins(rows, cells)
                yield (self.n, self.thetas_deg[rows, None], self.phis_deg[cells], chsh, kcbs,
                       self.mode, self.shots, seeds)

    def _margins(self, rows: slice, cells: slice):
        """CHSH margins, KCBS margins and seeds of a block as (theta, phi) arrays, but in
        analytic mode no seed and the KCBS margin, a function of theta alone, as (theta, 1)."""
        if self.mode == "analytic":
            chsh, kcbs = analytic.state1_margins(self.thetas_deg[rows, None],
                                                 self.phis_deg[cells], self.n)
            return chsh, kcbs, None
        thetas, phis = np.deg2rad(self.thetas_deg[rows]), phi_radians(self.phis_deg[cells])
        n, shape, group = self.n, (thetas.size, phis.size), circuits.BLOCK_TERMS
        first = rows.start * self.phis_deg.size + cells.start
        seeds = [_cell_seed(self.master_seed, first + k) for k in range(thetas.size * phis.size)]
        cell_thetas, cell_phis = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
        sums = [_term_sums(n, cell_thetas[c], cell_phis[c], seeds[c], self.shots)
                for c in (slice(g, g + group) for g in range(0, len(seeds), group))]
        chsh, kcbs = (np.concatenate(parts).reshape(shape) for parts in zip(*sums))
        return chsh - 2.0, kcbs - (n - 2.0), np.reshape(seeds, shape)


def check_theta_deg(thetas_deg) -> None:
    """Refuse any theta outside [0, 180] degrees, NaN included."""
    thetas = np.array(thetas_deg, dtype=float, ndmin=1)
    outside = thetas[~((thetas >= 0.0) & (thetas <= 180.0))]
    if outside.size:
        raise ValueError(f"theta must lie in [0, 180] degrees, got {float(outside[0])!r}")


def phi_radians(phi_deg):
    """phi in radians, reduced mod 360 degrees first, exactly, so a huge phi names its angle."""
    return np.deg2rad(np.fmod(phi_deg, 360.0))


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
    """The overlap m where the CHSH and KCBS margins meet at phi = 0, for all cycle sizes at once.

    The KCBS margin is affine in the population s off level 2, so the root of ``chsh(s(m)) - m``
    on ``[0, kcbs(s = 0)]`` is as well conditioned as the margins, as the root in theta is not.
    ``F(m) = chsh(s(m))`` falls as m grows, so the root lies in ``[F(F(0)), F(0)]``.  The checked
    sizes are solved in lockstep on one geometry, one kernel call per step: the root's offset in
    bits from ``F(F(0))`` is found bit by bit, each bit one halving, until each bracket's ends
    are adjacent floats.  Returns the columns ``n``, ``theta_opt_deg``, ``overlap``,
    ``residual`` (``|chsh - m|``) and ``iterations`` (each size's halvings).  Raises
    NoIntersection, naming the size, when ``[0, kcbs(s = 0)]`` shows no sign change, and
    ChshKcbsError when a residual exceeds ``RESIDUAL_TOL``.
    """
    return _coexistence(sizes)[0]


def _coexistence(sizes) -> tuple[dict[str, np.ndarray], observables.CycleGeometry]:
    if np.size(sizes) == 0:
        raise EmptyGrid("no cycle sizes given")
    geo = observables.cycle_geometry(sizes)
    n, (intercept, slope) = np.atleast_1d(geo.n), np.atleast_1d(*analytic._kcbs_line(geo))

    def gap(bits):
        """chsh(s(m)) - m at the overlaps m whose float64 bit patterns are given."""
        s = (intercept - bits.view(float)) / slope  # the population whose KCBS margin is m
        return analytic._chsh_margin(4.0 * s * (1.0 - s), geo) - bits.view(float)

    # A sign change must show across [0, kcbs(s = 0)]; a NaN gap fails the check.
    top = intercept.view(np.int64)
    upper = gap(np.zeros_like(top))  # F(0), which bounds the root from above
    crossing = (upper >= 0) & (gap(top) <= 0)
    if not crossing.all():
        raise NoIntersection(f"margins do not cross at an overlap in [0, kcbs(theta = 0)] "
                             f"for n = {n[~crossing][0]}")
    upper = np.clip(upper.view(np.int64), 0, top)
    lower = np.clip((gap(upper) + upper.view(float)).view(np.int64), 0, upper)
    width, offset = upper - lower, np.zeros_like(lower)
    for bit in reversed(range(int(width.max()).bit_length())):
        trial = np.minimum(offset | (1 << bit), width)
        offset = np.where(gap(lower + trial) > 0, trial, offset)
    overlap, residual = (lower + offset).view(float), np.abs(gap(lower + offset))
    breach = ~(residual <= RESIDUAL_TOL)
    if breach.any():
        raise ChshKcbsError(f"margins differ by {residual[breach][0]:.3g} at the crossing for "
                            f"n = {n[breach][0]}, above RESIDUAL_TOL = {RESIDUAL_TOL:g}")
    theta_opt = 2.0 * np.arcsin(np.sqrt((intercept - overlap) / slope))
    return {"n": n, "theta_opt_deg": np.degrees(theta_opt), "overlap": overlap,
            "residual": residual, "iterations": np.frexp(width)[1]}, geo  # halvings: bits of width


def scaling_study(sizes) -> tuple[dict[str, np.ndarray], float | None]:
    """Coexistence points, scaling-family margins, and large-n laws per cycle size.

    Returns the :func:`coexistence_points` columns plus ``psi_n_kcbs_margin``,
    ``psi_n_chsh_margin`` (at s = 2/(n+4)), ``asym_kcbs`` and ``asym_chsh`` on the solved
    sizes, and beside them the log-log slope of overlap against n over the given sizes
    (None when they hold fewer than two distinct values, since one size fixes no slope).
    """
    columns, geo = _coexistence(sizes)
    n = columns["n"].astype(float)  # sizes beyond int64 come as an object array
    s = 2.0 / (n + 4.0)
    columns["psi_n_chsh_margin"] = analytic._chsh_margin(4.0 * s * (1.0 - s), geo)
    columns["psi_n_kcbs_margin"] = analytic._psi_n_kcbs_margin(geo)
    columns["asym_kcbs"], columns["asym_chsh"] = analytic.asymptotic_margins(columns["n"])
    slope = None
    if n.min() != n.max():
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
        s_mat = observables.s_operator(n)
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
        s_mat = tensor(np.eye(2), observables.s_operator(n))
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
        floor, _, ceiling = np.diag(observables.s_operator(n)).real
        threshold = analytic.p2_threshold(n)
        for amps in _random_states(rng, 50):
            kcbs = analytic.kcbs_value(amps, n)
            excursions += [floor - kcbs.s_kcbs, kcbs.s_kcbs - ceiling]
            if abs(kcbs.p2 - threshold) > 1e-10:
                mismatches.append((kcbs.margin > 0) != (kcbs.p2 > threshold))
    check("KCBS value, max excursion outside [floor, ceiling] of S", excursions, 1e-10)
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
                                          alice.matrix[None, None], bob.matrix[None])[0, 0]
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        gaps += [abs(circuits.estimators(probs)[0] - direct), abs(probs[1] - probs[2])]
    check("Fourier test vs analytic correlators, max gap", gaps, 1e-10)

    # Sampling determinism.
    base = circuits.run_hybrid_tests(circuits.prepare_state1(0.9, 0.4),
                                     observables.alice_rotation(0.3).matrix[None, None],
                                     observables.b0_closed_form(5).matrix[None])
    counts_a, counts_b = (circuits.sample_shot_stack(base, 5000, [11])[0] for _ in range(2))
    check("seeded sampling, max count difference between reruns", np.abs(counts_a - counts_b), 0)

    # Coexistence residuals, the n = 5 point and the laws overlap ~ 8/n, theta ~ sqrt(8/n).
    n, points = 10**12 + 1, coexistence_points([*range(5, 17, 2), 10**12 + 1])
    check("coexistence residual |chsh - kcbs| for n = 5..15 and 1e12+1", points["residual"],
          RESIDUAL_TOL)
    check("n = 5 coexistence angle, |theta - 49.605 deg|",
          abs(points["theta_opt_deg"][0] - 49.605), 0.01)
    check("n = 5 coexistence overlap, |overlap - 0.343069|",
          abs(points["overlap"][0] - 0.343069), 1e-4)
    check("n = 1e12+1 overlap law, |overlap n - 8|", abs(points["overlap"][-1] * n - 8.0), 1e-9)
    check("n = 1e12+1 angle law, |theta_opt sqrt(n) - sqrt(8)|",
          abs(math.radians(points["theta_opt_deg"][-1]) * math.sqrt(n) - math.sqrt(8.0)), 1e-10)

    # Landscape symmetry in phi.
    chsh, kcbs = analytic.state1_margins(np.linspace(0, 180, 13)[:, None],
                                         np.linspace(0, 360, 25), 5)
    check("phi reflection symmetry, max CHSH margin asymmetry",
          np.abs(chsh - chsh[:, ::-1]), 1e-12)
    check("KCBS margin vs phi, max variation", np.abs(kcbs - kcbs[:, :1]), 1e-12)
    return rows
