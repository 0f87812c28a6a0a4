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


def _cell_seed(master_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed derived from the master seed."""
    return int(np.random.SeedSequence((int(master_seed), int(cell_index))).generate_state(1)[0])


def _sampled_estimate(state, alice_op, bob_op, shots, cell_seed, term_index) -> float:
    report = circuits.run_hybrid_protocol(state, alice_op, bob_op)
    term_seed = int(np.random.SeedSequence((cell_seed, int(term_index))).generate_state(1)[0])
    return circuits.sample_shots(report, shots, term_seed).estimator_combined


def _circuit_margins(n, theta, phi, shots, cell_seed) -> tuple[float, float]:
    """Both margins of one cell from sampled Fourier tests.

    The state is prepared once by circuit and every correlator is read
    from it.  CHSH uses the four correlators at the analytic optimal
    angles; KCBS uses the n adjacent products with the cycle's minus
    sign on the wraparound term.  Term seeds derive from the cell seed.
    """
    state = circuits.prepare_state1(theta, phi)
    co = analytic.chsh_coefficients(state, n)
    r0 = observables.alice_rotation(co.omega0)
    r2 = observables.alice_rotation(co.omega2)
    b0 = observables.b0_closed_form(n)
    bm = observables.bm_bm1_closed_form(n)

    chsh_sum = (_sampled_estimate(state, r2, bm, shots, cell_seed, 0)
                + _sampled_estimate(state, r2, b0, shots, cell_seed, 1)
                + _sampled_estimate(state, r0, bm, shots, cell_seed, 2)
                - _sampled_estimate(state, r0, b0, shots, cell_seed, 3))

    eye2 = np.eye(2)
    kcbs_sum = 0.0
    for j in range(n):
        sign = -1.0 if j == n - 1 else 1.0
        pair = observables.kcbs_pair(n, j)
        kcbs_sum += sign * _sampled_estimate(state, eye2, pair, shots, cell_seed, 4 + j)
    return chsh_sum - 2.0, kcbs_sum - (n - 2.0)


@dataclass(frozen=True, eq=False)
class LandscapeTable:
    """Margins of the minimal state over a (theta, phi) grid, as columns.

    Cells run theta-major, phi-minor, and ``len`` is the cell count.  The
    margins are computed when the table is iterated, one block of at most
    ``BLOCK_CELLS`` cells at a time, so a pass costs O(block)
    memory however large the grid; :meth:`columns` gathers the whole
    grid.  Circuit cells are sampled again on every pass, from the same
    seeds, so every pass gives the same values.
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

    @property
    def kinds(self) -> tuple:
        """Per header field: ``float``/``int`` for a column, else the table's constant value."""
        seed = int if self.mode == "circuit" else None
        return (self.n, float, float, float, float, self.mode, self.shots, seed)

    def blocks(self):
        """Yield (theta_deg, phi_deg, chsh_margin, kcbs_margin[, seed]) column blocks in cell order.

        A block is a run of whole theta rows, or a slice of one row when a
        single row holds more than a block of cells.
        """
        n_phi = self.phis_deg.size
        rows, cols = max(1, BLOCK_CELLS // n_phi), min(n_phi, BLOCK_CELLS)
        for i in range(0, self.thetas_deg.size, rows):
            thetas = self.thetas_deg[i:i + rows]
            for j in range(0, n_phi, cols):
                phis = self.phis_deg[j:j + cols]
                yield (np.repeat(thetas, phis.size), np.tile(phis, thetas.size),
                       *self._margins(thetas, phis, i * n_phi + j))

    def _margins(self, thetas, phis, first_cell):
        if self.mode == "analytic":
            chsh, kcbs = analytic.state1_margins(np.deg2rad(thetas)[:, None],
                                                 np.deg2rad(phis)[None, :], self.n)
            return chsh.ravel(), kcbs.ravel()
        chsh, kcbs, seeds = [], [], []
        for cell, (t, p) in enumerate(itertools.product(thetas.tolist(), phis.tolist()),
                                      start=first_cell):
            cell_seed = _cell_seed(self.master_seed, cell)
            ch, kc = _circuit_margins(self.n, math.radians(t), math.radians(p),
                                      self.shots, cell_seed)
            chsh.append(ch)
            kcbs.append(kc)
            seeds.append(cell_seed)
        return chsh, kcbs, seeds

    def columns(self) -> dict[str, np.ndarray]:
        """Every varying column over the whole grid, keyed by header field."""
        names = [name for name, kind in zip(self.header, self.kinds) if kind in (float, int)]
        blocks = list(self.blocks())
        return {name: np.concatenate([block[k] for block in blocks])
                for k, name in enumerate(names)}


def check_theta_deg(thetas_deg) -> None:
    """Refuse any theta outside [0, 180] degrees, NaN included."""
    thetas = np.array(thetas_deg, dtype=float, ndmin=1)
    outside = thetas[~((thetas >= 0.0) & (thetas <= 180.0))]
    if outside.size:
        raise ValueError(f"theta must lie in [0, 180] degrees, got {float(outside[0])!r}")


def landscape_scan(n, theta_grid_deg, phi_grid_deg, mode="analytic",
                   shots=None, seed=None) -> LandscapeTable:
    """Margins of the minimal state over a (theta, phi) grid in degrees.

    Every input is checked here, before any cell is computed: theta must
    lie in [0, 180] degrees and phi must be finite.  The returned table
    computes its cells block by block as it is iterated.  Circuit mode
    needs a positive shot count; each cell samples with a seed derived
    from the master seed and the cell index, so results are reproducible
    and independent of evaluation order.
    """
    observables.cycle_geometry(n)
    thetas = np.array(theta_grid_deg, dtype=float, ndmin=1)
    phis = np.array(phi_grid_deg, dtype=float, ndmin=1)
    if thetas.size == 0 or phis.size == 0:
        raise EmptyGrid("theta and phi grids must both be nonempty")
    if mode not in ("analytic", "circuit"):
        raise ValueError(f"mode must be 'analytic' or 'circuit', got {mode!r}")
    if mode == "circuit" and (shots is None or int(shots) < 1):
        raise ValueError("circuit mode requires a positive shot count")
    check_theta_deg(thetas)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phi must be finite")

    if mode == "analytic":
        return LandscapeTable(n=n, thetas_deg=thetas, phis_deg=phis, mode="analytic")
    return LandscapeTable(n=n, thetas_deg=thetas, phis_deg=phis, mode="circuit",
                          shots=int(shots), master_seed=0 if seed is None else int(seed))


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
    n = np.array(sizes, ndmin=1)
    if n.size == 0:
        raise EmptyGrid("no cycle sizes given")

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
    n over the given sizes (None when fewer than two).
    """
    columns = coexistence_points(sizes)
    n = columns["n"]
    theta_n = np.array([2.0 * math.acos(math.sqrt((k + 2.0) / (k + 4.0))) for k in n.tolist()])
    columns["psi_n_chsh_margin"], columns["psi_n_kcbs_margin"] = analytic.state1_margins(
        theta_n, 0.0, n)
    columns["asym_kcbs"], columns["asym_chsh"] = np.array(
        [analytic.asymptotic_margins(k) for k in n.tolist()]).T
    slope = None
    if n.size >= 2:
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


def run_validation(report=print) -> bool:
    """Run the cross-module invariant suite; True iff every check passes.

    One line per check goes through ``report``.
    """
    rng = np.random.default_rng(20240917)
    checks: list[tuple[str, bool, str]] = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # Cycle geometry: adjacent orthogonality (wraparound included) and
    # commutation of adjacent observables.
    worst_dot, worst_comm = 0.0, 0.0
    for n in range(5, 23, 2):
        vecs = [observables.kcbs_vector(n, j) for j in range(n)]
        obs = [observables.kcbs_observable(n, j).matrix for j in range(n)]
        for j in range(n):
            worst_dot = max(worst_dot, abs(float(vecs[j] @ vecs[(j + 1) % n])))
            comm = obs[j] @ obs[(j + 1) % n] - obs[(j + 1) % n] @ obs[j]
            worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
    add("adjacent orthogonality <= 1e-12", worst_dot <= 1e-12, f"max |<psi_j|psi_j+1>| = {worst_dot:.2e}")
    add("adjacent commutation <= 1e-12", worst_comm <= 1e-12, f"max commutator entry = {worst_comm:.2e}")

    # Cycle operator identity: assembled sum equals the diagonal closed form.
    worst = 0.0
    for n in range(5, 23, 2):
        assembled = sum(observables.kcbs_pair(n, j).matrix for j in range(n - 1))
        assembled = assembled - observables.kcbs_pair(n, n - 1).matrix
        worst = max(worst, float(np.max(np.abs(assembled - observables.s_operator(n).matrix))))
        projector_sum = sum(np.outer(observables.kcbs_vector(n, j), observables.kcbs_vector(n, j))
                            for j in range(n))
        worst = max(worst, float(np.max(np.abs(
            4 * projector_sum - n * np.eye(3) - observables.s_operator(n).matrix))))
    add("cycle operator identity <= 1e-10", worst <= 1e-10, f"max entry gap = {worst:.2e}")

    # Involutions: every B_j, B_0, B_m B_m+1 squares to the identity.
    worst = 0.0
    for n in (5, 7, 9):
        mats = [observables.kcbs_observable(n, j).matrix for j in range(n)]
        mats += [observables.b0_closed_form(n).matrix, observables.bm_bm1_closed_form(n).matrix]
        for mat in mats:
            worst = max(worst, float(np.max(np.abs(mat @ mat - np.eye(3)))))
    add("observable involutions <= 1e-10", worst <= 1e-10, f"max |B^2 - I| = {worst:.2e}")

    # Closed form versus direct matrix expectations on random states.
    worst_chsh, worst_kcbs = 0.0, 0.0
    for n in (5, 7, 9):
        s_mat = tensor(np.eye(2), observables.s_operator(n).matrix)
        for amps in _random_states(rng, 50):
            om0, om2 = rng.uniform(0, 2 * math.pi, size=2)
            direct = expectation(amps, _chsh_operator(n, om0, om2))
            worst_chsh = max(worst_chsh, abs(direct - analytic.chsh_value(amps, n, om0, om2)))
            kcbs = analytic.kcbs_value(amps, n)
            worst_kcbs = max(worst_kcbs, abs(expectation(amps, s_mat) - kcbs.s_kcbs))
    add("closed-form CHSH matches matrices <= 1e-10", worst_chsh <= 1e-10, f"max gap = {worst_chsh:.2e}")
    add("closed-form KCBS matches matrices <= 1e-10", worst_kcbs <= 1e-10, f"max gap = {worst_kcbs:.2e}")

    # Optimality and the Tsirelson ceiling.
    worst_excess, worst_sopt = -math.inf, 0.0
    for n in (5, 7, 9, 11):
        for amps in _random_states(rng, 50):
            co = analytic.chsh_coefficients(amps, n)
            angles = rng.uniform(0, 2 * math.pi, size=(200, 2))
            probes = (co.x0 * np.cos(angles[:, 0]) + co.y0 * np.sin(angles[:, 0])
                      + co.x2 * np.cos(angles[:, 1]) + co.y2 * np.sin(angles[:, 1]))
            worst_excess = max(worst_excess, float(probes.max()) - co.s_opt)
            worst_sopt = max(worst_sopt, co.s_opt)
    add("optimum dominates random probes", worst_excess <= 1e-12, f"max probe excess = {worst_excess:.2e}")
    add("Tsirelson ceiling", worst_sopt <= 2 * math.sqrt(2) + 1e-9, f"max s_opt = {worst_sopt:.12f}")

    # KCBS range and threshold consistency.
    ok_range, ok_threshold = True, True
    for n in (5, 7, 9):
        geo = observables.cycle_geometry(n)
        threshold = analytic.p2_threshold(n)
        for amps in _random_states(rng, 50):
            kcbs = analytic.kcbs_value(amps, n)
            ok_range &= geo.lambda1 - 1e-10 <= kcbs.s_kcbs <= geo.lambda3 + 1e-10
            if abs(kcbs.p2 - threshold) > 1e-10:
                ok_threshold &= (kcbs.margin > 0) == (kcbs.p2 > threshold)
    add("KCBS value within [lambda1, lambda3]", ok_range)
    add("margin sign matches threshold", ok_threshold)

    # Minimal-state coefficient structure at phi = 0 and pi/3.
    worst = 0.0
    for n in (5, 7):
        geo = observables.cycle_geometry(n)
        s_plus, s_minus = analytic._geometry_weights(geo)
        for theta in (0.3, 1.1, 2.4):
            for phi in (0.0, math.pi / 3):
                co = analytic.chsh_coefficients(analytic.state1(theta, phi), n)
                coh = math.sqrt(geo.c) * math.sin(theta) * math.cos(phi) / (1 + geo.c)
                worst = max(worst,
                            abs(co.x0 + 2 * geo.c / (1 + geo.c)),
                            abs(co.x2 - (2 - 4 * geo.c) / (1 + geo.c)),
                            abs(co.y0 - coh * s_minus),
                            abs(co.y2 - coh * s_plus))
    add("minimal-state coefficients <= 1e-12", worst <= 1e-12, f"max gap = {worst:.2e}")

    # Circuit pipeline: exact Fourier tests reproduce analytic correlators.
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice((5, 7, 9)))
        theta = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, 2 * math.pi))
        psi = analytic.state1(theta, phi)
        co = analytic.chsh_coefficients(psi, n)
        alice = observables.alice_rotation(float(rng.choice((co.omega0, co.omega2, 0.0))))
        bob = (observables.b0_closed_form(n) if rng.uniform() < 0.5
               else observables.bm_bm1_closed_form(n))
        report_exact = circuits.run_hybrid_protocol(circuits.prepare_state1(theta, phi),
                                                    alice, bob)
        direct = expectation(psi, tensor(alice.matrix, bob.matrix))
        worst = max(worst, abs(report_exact.estimator_combined - direct),
                    abs(report_exact.p1 - report_exact.p2))
    add("Fourier test matches analytic correlators <= 1e-10", worst <= 1e-10, f"max gap = {worst:.2e}")

    # Sampling determinism.
    base = circuits.run_hybrid_protocol(circuits.prepare_state1(0.9, 0.4),
                                        observables.alice_rotation(0.3),
                                        observables.b0_closed_form(5))
    sample_a = circuits.sample_shots(base, 5000, 11)
    sample_b = circuits.sample_shots(base, 5000, 11)
    add("seeded sampling is reproducible", sample_a.counts == sample_b.counts,
        f"counts = {sample_a.counts}")

    # Coexistence residuals and the tabulated n = 5 point.
    points = coexistence_points(range(5, 17, 2))
    ok_residual = bool(np.all(points["residual"] <= RESIDUAL_TOL))
    theta5, overlap5 = float(points["theta_opt_deg"][0]), float(points["overlap"][0])
    ok_point = abs(theta5 - 49.605) <= 0.01 and abs(overlap5 - 0.343069) <= 1e-4
    add("coexistence residuals <= 1e-9", ok_residual)
    add("n = 5 coexistence point", ok_point,
        f"theta = {theta5:.4f} deg, overlap = {overlap5:.6f}")

    # Landscape symmetry in phi.
    thetas = np.deg2rad(np.linspace(0, 180, 13))
    phis = np.deg2rad(np.linspace(0, 360, 25))
    chsh, kcbs = analytic.state1_margins(thetas[:, None], phis[None, :], 5)
    sym = float(np.max(np.abs(chsh - chsh[:, ::-1])))
    flat = float(np.max(np.abs(kcbs - kcbs[:, :1])))
    add("phi reflection symmetry <= 1e-12", sym <= 1e-12, f"max asymmetry = {sym:.2e}")
    add("KCBS margin independent of phi <= 1e-12", flat <= 1e-12, f"max variation = {flat:.2e}")

    all_ok = True
    for name, ok, detail in checks:
        all_ok &= ok
        suffix = f" ({detail})" if detail else ""
        report(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    report(f"{sum(ok for _, ok, _ in checks)}/{len(checks)} checks passed")
    return all_ok
