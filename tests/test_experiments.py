"""Tests for the landscape, coexistence, and scaling drivers."""

import math

import numpy as np
import pytest

from chsh_kcbs import (
    EmptyGrid,
    FourierTestReport,
    InvalidCycle,
    NoIntersection,
    coexistence_points,
    estimator_stddev,
    estimators,
    landscape_scan,
    prepare_state1,
    run_hybrid_tests,
    run_validation,
    scaling_study,
    state1_margins,
)
from chsh_kcbs import experiments
from chsh_kcbs.observables import alice_rotation, b0_closed_form, bm_bm1_closed_form, kcbs_pair
from chsh_kcbs.analytic import chsh_coefficients, state1

TABLE_POINTS = {5: (49.605, 0.343069), 23: (30.381, 0.227717), 55: (20.815, 0.11978)}


def _columns(table):
    """The table's columns over the whole grid, keyed by header field, read from its blocks.

    These are the ``serialize.Columns`` the writer formats: a block's
    constant is repeated over its rows, and phi is its written text.
    """
    blocks = [[np.broadcast_to(value, len(block)) for value in block.data]
              for block in table.blocks()]
    return {name: np.concatenate(parts) for name, *parts in zip(table.header, *blocks)}


def _cells(table):
    """Per-cell dicts of the table's columns, in cell order."""
    return _rows(_columns(table))


def _rows(columns):
    """Per-row dicts of a dict of equal-length columns, in row order."""
    return [dict(zip(columns, values))
            for values in zip(*(np.asarray(column).tolist() for column in columns.values()))]


def _point(n):
    """The coexistence point of one cycle size, as a dict of scalars."""
    return _rows(coexistence_points([n]))[0]


def test_landscape_analytic_reference_cells():
    table = landscape_scan(5, [90.0, 0.0], [0.0, 45.0], mode="analytic")
    records = _cells(table)
    by_cell = {(r["theta_deg"], r["phi_deg"]): r for r in records}
    peak = by_cell[(90.0, "0")]
    assert peak["chsh_margin"] == pytest.approx(0.7198, abs=1e-4)
    assert peak["kcbs_margin"] < 0
    flat = by_cell[(0.0, "0")]
    assert flat["kcbs_margin"] == pytest.approx(0.944272, abs=1e-6)
    assert flat["chsh_margin"] < 0
    assert flat["kcbs_margin"] == pytest.approx(by_cell[(0.0, "45")]["kcbs_margin"], abs=1e-12)
    # mode, shots and seed are constants of every block: "analytic" and two empty fields.
    assert len(table) == len(records) == 4
    assert all(block.data[5:] == ("analytic", None, None) for block in table.blocks())
    assert all(r["seed"] is None for r in records)


def test_landscape_record_order_is_theta_major():
    records = _cells(landscape_scan(5, [10.0, 20.0], [0.0, 90.0, 180.0], mode="analytic"))
    cells = [(r["theta_deg"], r["phi_deg"]) for r in records]
    assert cells == [(10.0, "0"), (10.0, "90"), (10.0, "180"),
                     (20.0, "0"), (20.0, "90"), (20.0, "180")]


def test_landscape_matches_margin_function():
    thetas = np.linspace(0, 180, 7)
    phis = np.linspace(0, 360, 5)
    records = _cells(landscape_scan(7, thetas, phis, mode="analytic"))
    for record in records:
        # Every phi of this grid is exact in its written text.
        chsh, kcbs = state1_margins(math.radians(record["theta_deg"]),
                                    math.radians(float(record["phi_deg"])), 7)
        assert record["chsh_margin"] == pytest.approx(chsh, abs=0)
        assert record["kcbs_margin"] == pytest.approx(kcbs, abs=0)


def test_landscape_input_validation():
    with pytest.raises(EmptyGrid):
        landscape_scan(5, [], [0.0], mode="analytic")
    with pytest.raises(EmptyGrid):
        landscape_scan(5, [0.0], [], mode="analytic")
    with pytest.raises(ValueError):
        landscape_scan(5, [0.0], [0.0], mode="circuit")
    with pytest.raises(ValueError):
        landscape_scan(5, [0.0], [0.0], mode="typo")
    with pytest.raises(InvalidCycle):
        landscape_scan(4, [0.0], [0.0])
    # Shot counts, the theta range and finite angles are checked at the call,
    # in both modes, before any cell is computed.
    for shots in (0, -5, 2**63):
        with pytest.raises(ValueError):
            landscape_scan(5, [0.0], [0.0], mode="circuit", shots=shots)
    # So is the master seed: an integer >= 0, not a bool, a float or a string.
    for seed in (2.7, -1, np.int64(-1), True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            landscape_scan(5, [0.0], [0.0], mode="circuit", shots=10, seed=seed)
    for seed in (None, 0, np.uint64(2**64 - 1), 2**70):
        table = landscape_scan(5, [0.0], [0.0], mode="circuit", shots=10, seed=seed)
        assert _columns(table)["seed"].size == 1
    for mode in ("analytic", "circuit"):
        for thetas in ([200.0, 300.0], [-1e-9], [90.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                landscape_scan(5, thetas, [0.0], mode=mode, shots=100)
        with pytest.raises(ValueError):
            landscape_scan(5, [90.0], [0.0, math.nan], mode=mode, shots=100)
    assert len(landscape_scan(5, [0.0, 180.0], [-720.0, 720.0])) == 4
    # A nested grid is refused, not flattened against the other axis.
    for thetas, phis in (([[0.0, 90.0]], [0.0, 45.0]), ([0.0, 90.0], [[0.0], [45.0]])):
        for mode in ("analytic", "circuit"):
            with pytest.raises(ValueError, match="one-dimensional"):
                landscape_scan(5, thetas, phis, mode=mode, shots=100)


def _spy_on_margins(monkeypatch):
    """Record the cell count of every state1_margins call the landscape makes."""
    sizes = []
    kernel = experiments.analytic.state1_margins

    def spy(theta, phi, n):
        chsh, kcbs = kernel(theta, phi, n)
        sizes.append(np.size(chsh))
        return chsh, kcbs

    monkeypatch.setattr(experiments.analytic, "state1_margins", spy)
    return sizes


@pytest.mark.parametrize("block, thetas, phis", [
    (experiments.BLOCK_CELLS, np.linspace(0, 180, 97), np.linspace(0, 360, 1001)),
    (7, np.linspace(0, 180, 5), np.linspace(-30, 330, 16)),
    (7, np.linspace(0, 180, 9), np.linspace(0, 360, 3)),
    (7, np.array([45.0]), np.array([0.0])),
])
def test_landscape_blocks_are_bounded_and_match_full_grid(monkeypatch, block, thetas, phis):
    monkeypatch.setattr(experiments, "BLOCK_CELLS", block)
    sizes = _spy_on_margins(monkeypatch)
    table = landscape_scan(5, thetas, phis, mode="analytic")
    assert sizes == []  # nothing is computed before the table is iterated
    columns = _columns(table)
    assert sizes and max(sizes) <= block
    assert sum(sizes) == len(table) == thetas.size * phis.size
    # Analytic blocks are serialize.Columns, one per theta row of a kernel block.
    assert all(len(b) <= block for b in table.blocks())

    chsh, kcbs = state1_margins(np.deg2rad(thetas)[:, None], np.deg2rad(phis)[None, :], 5)
    assert np.array_equal(columns["theta_deg"], np.repeat(thetas, phis.size))
    assert columns["phi_deg"].tolist() == ["%.9g" % phi for phi in phis] * thetas.size
    assert np.array_equal(columns["chsh_margin"], chsh.ravel())
    assert np.array_equal(columns["kcbs_margin"], kcbs.ravel())


def test_both_modes_yield_blocks_of_one_kinds_tuple():
    # The mode changes what a block's data holds, never its kinds.
    analytic = landscape_scan(5, [0.0, 90.0], [0.0, 45.0, 90.0])
    circuit = landscape_scan(5, [0.0, 90.0], [0.0, 45.0], mode="circuit", shots=10, seed=1)
    kinds = {block.kinds for table in (analytic, circuit) for block in table.blocks()}
    assert kinds == {(int, float, str, float, float, str, int, int)}


def _propagated_margin_stddev(n, theta, phi, shots):
    """Shot-noise standard deviations of the two margins at one cell."""
    co = chsh_coefficients(state1(theta, phi), n)

    def exact(alice, bob):
        probs = run_hybrid_tests(prepare_state1(theta, phi), alice[None], bob.matrix[None])
        return FourierTestReport(*probs[0].tolist(), *estimators(probs)[0].tolist())

    chsh_var = 0.0
    for alice, bob in ((co.omega2, bm_bm1_closed_form(n)), (co.omega2, b0_closed_form(n)),
                       (co.omega0, bm_bm1_closed_form(n)), (co.omega0, b0_closed_form(n))):
        chsh_var += estimator_stddev(exact(alice_rotation(alice).matrix, bob), shots) ** 2
    kcbs_var = 0.0
    for j in range(n):
        kcbs_var += estimator_stddev(exact(np.eye(2), kcbs_pair(n, j)), shots) ** 2
    return math.sqrt(chsh_var), math.sqrt(kcbs_var)


def test_circuit_landscape_prepares_each_cell_once(monkeypatch):
    # One circuit preparation per cell; all n + 4 correlators of the cell
    # are Fourier tests on that one prepared state, run as one stack.
    n, thetas, phis = 5, [30.0, 60.0, 90.0], [0.0, 45.0]
    prepared, measured = [], []
    prepare, stacked = experiments.circuits.prepare_state1, experiments.circuits.run_hybrid_tests

    def prepare_spy(theta, phi):
        prepared.append(prepare(theta, phi))
        return prepared[-1]

    def stacked_spy(state, alice_ops, bob_ops):
        measured.extend([id(state)] * len(alice_ops))
        return stacked(state, alice_ops, bob_ops)

    monkeypatch.setattr(experiments.circuits, "prepare_state1", prepare_spy)
    monkeypatch.setattr(experiments.circuits, "run_hybrid_tests", stacked_spy)
    table = landscape_scan(n, thetas, phis, mode="circuit", shots=100, seed=3)
    _columns(table)
    assert len(prepared) == len(table) == len(thetas) * len(phis)
    assert measured == [id(state) for state in prepared for _ in range(n + 4)]


def test_circuit_table_pass_builds_the_bob_bank_once(monkeypatch):
    # Bob's cycle stack is built once per block (this table is one), not per cell or per pair.
    n, calls = 7, []
    stack = experiments.observables.kcbs_observables

    def stack_spy(size):
        calls.append(size)
        return stack(size)

    monkeypatch.setattr(experiments.observables, "kcbs_observables", stack_spy)
    table = landscape_scan(n, [30.0, 60.0, 90.0], [0.0, 45.0], mode="circuit", shots=50, seed=1)
    first = _columns(table)
    assert calls == [n]
    assert _same_columns(_columns(table), first)
    assert calls == [n, n]


def test_circuit_cell_builds_no_per_term_report(monkeypatch):
    # A cell reads its n + 4 combined estimates as one column of the shot stack.
    built = []
    report_class = experiments.circuits.FourierTestReport
    init = report_class.__init__

    def init_spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(report_class, "__init__", init_spy)
    table = landscape_scan(7, [30.0, 60.0], [0.0, 45.0], mode="circuit", shots=100, seed=3)
    assert len(_columns(table)["chsh_margin"]) == 4
    assert built == []


def test_circuit_margins_match_a_term_by_term_running_sum_to_the_bit():
    # With n + 4 >= 8 terms a pairwise sum would move the last bits; the cell
    # keeps the running sum of the term-by-term protocol.
    n, shots, master_seed = 9, 300, 5
    table = landscape_scan(n, [40.0, 70.0], [30.0], mode="circuit", shots=shots, seed=master_seed)
    columns = _columns(table)
    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    for cell, theta in enumerate([40.0, 70.0]):
        state = prepare_state1(math.radians(theta), math.radians(30.0))
        co = chsh_coefficients(state, n)
        r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
        terms = [(r2, bm), (r2, b0), (r0, bm), (r0, b0)]
        terms += [(np.eye(2), kcbs_pair(n, j).matrix) for j in range(n)]
        # Every term draws in turn from one generator seeded by the cell seed.
        rng = np.random.default_rng(experiments._cell_seed(master_seed, cell))
        estimates = []
        for a, b in terms:
            probs = np.clip(run_hybrid_tests(state, a[None], b[None])[0], 0.0, None)
            f0, f1, f2 = rng.multinomial(shots, probs / probs.sum()) / shots
            estimates.append((9.0 * (f0 - f1 - f2) - 1.0) / 8.0)
        kcbs = 0.0
        for j in range(n):
            kcbs += (-1.0 if j == n - 1 else 1.0) * estimates[4 + j]
        chsh = estimates[0] + estimates[1] + estimates[2] - estimates[3]
        assert columns["chsh_margin"][cell] == chsh - 2.0
        assert columns["kcbs_margin"][cell] == kcbs - (n - 2.0)


def test_margin_kernel_builds_the_cycle_constants_once_per_call(monkeypatch):
    kernel_calls, geometry_calls = [], []
    kernel, geometry = experiments.analytic.state1_margins, experiments.analytic.cycle_geometry

    def kernel_spy(theta, phi, n):
        kernel_calls.append(np.size(n))
        return kernel(theta, phi, n)

    def geometry_spy(n):
        geometry_calls.append(np.size(n))
        return geometry(n)

    monkeypatch.setattr(experiments.analytic, "state1_margins", kernel_spy)
    monkeypatch.setattr(experiments.analytic, "cycle_geometry", geometry_spy)
    scaling_study(range(5, 200, 2))
    assert len(kernel_calls) > 2
    assert geometry_calls == kernel_calls + [len(range(5, 200, 2))]


def test_landscape_circuit_mode_agrees_with_analytic():
    thetas = [40.0, 90.0]
    phis = [0.0]
    shots = 40_000
    noisy = landscape_scan(5, thetas, phis, mode="circuit", shots=shots, seed=4)
    clean = landscape_scan(5, thetas, phis, mode="analytic")
    assert noisy.mode == "circuit"
    assert noisy.shots == shots
    for got, want in zip(_cells(noisy), _cells(clean), strict=True):
        chsh_sd, kcbs_sd = _propagated_margin_stddev(
            5, math.radians(got["theta_deg"]), math.radians(float(got["phi_deg"])), shots)
        assert abs(got["chsh_margin"] - want["chsh_margin"]) <= 5 * chsh_sd
        assert abs(got["kcbs_margin"] - want["kcbs_margin"]) <= 5 * kcbs_sd
        assert got["seed"] is not None


def _same_columns(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_landscape_circuit_mode_is_deterministic():
    first = _columns(landscape_scan(5, [30.0], [0.0, 180.0], mode="circuit", shots=2000, seed=9))
    second = _columns(landscape_scan(5, [30.0], [0.0, 180.0], mode="circuit", shots=2000, seed=9))
    assert _same_columns(first, second)
    shifted = landscape_scan(5, [30.0], [0.0, 180.0], mode="circuit", shots=2000, seed=10)
    assert not _same_columns(_columns(shifted), first)
    # Distinct cells get distinct derived seeds.
    assert first["seed"][0] != first["seed"][1]


def test_landscape_circuit_seeds_follow_the_cell_index(monkeypatch):
    # Seeds depend on (master seed, cell index) only, not on how cells are blocked.
    whole = _columns(landscape_scan(5, [30.0, 60.0], [0.0, 90.0, 180.0], mode="circuit",
                                    shots=200, seed=3))
    monkeypatch.setattr(experiments, "BLOCK_CELLS", 2)
    split = _columns(landscape_scan(5, [30.0, 60.0], [0.0, 90.0, 180.0], mode="circuit",
                                    shots=200, seed=3))
    assert _same_columns(whole, split)
    assert whole["seed"].tolist() == [experiments._cell_seed(3, cell) for cell in range(6)]


@pytest.mark.parametrize("n", sorted(TABLE_POINTS))
def test_coexistence_reference_points(n):
    theta_ref, overlap_ref = TABLE_POINTS[n]
    record = _point(n)
    assert record["theta_opt_deg"] == pytest.approx(theta_ref, abs=0.01)
    assert record["overlap"] == pytest.approx(overlap_ref, abs=1e-4)
    assert record["residual"] <= 1e-9
    assert record["iterations"] > 0


def test_coexistence_margins_match_at_solution():
    record = _point(9)
    chsh, kcbs = state1_margins(math.radians(record["theta_opt_deg"]), 0.0, 9)
    assert abs(chsh - kcbs) <= 1e-9
    assert chsh > 0 and kcbs > 0
    assert record["overlap"] == pytest.approx(0.5 * (chsh + kcbs), abs=1e-12)


def test_coexistence_rejects_bad_cycle():
    with pytest.raises(InvalidCycle):
        coexistence_points([6])


def test_sizes_beyond_int64_stay_integers():
    # numpy reads the list [5, 2**63 + 1] as floats; the sizes must stay integers.
    sizes = [5, 2**63 + 1]
    assert experiments.observables.cycle_geometry(sizes).n.tolist() == sizes
    # No crossing lies inside the bisection bracket at so large an n.
    with pytest.raises(NoIntersection, match=r"for n = 9223372036854775809$"):
        coexistence_points(sizes)


def test_coexistence_surfaces_missing_crossing(monkeypatch):
    def never_crossing(theta, phi, n):
        shape = np.broadcast_shapes(np.shape(theta), np.shape(n))
        return np.full(shape, -1.0), np.full(shape, 1.0)

    monkeypatch.setattr(experiments.analytic, "state1_margins", never_crossing)
    with pytest.raises(NoIntersection):
        coexistence_points([5])


def test_coexistence_points_match_single_size_solves():
    together = coexistence_points([9, 5, 7])
    assert together["n"].tolist() == [9, 5, 7]
    for index, n in enumerate([9, 5, 7]):
        alone = coexistence_points([n])
        for name, column in together.items():
            assert column[index] == alone[name][0], (n, name)


def test_missing_crossing_names_the_cycle_size(monkeypatch):
    kernel = experiments.analytic.state1_margins

    def no_crossing_at_seven(theta, phi, n):
        chsh, kcbs = kernel(theta, phi, n)
        return np.where(n == 7, -1.0, chsh), np.where(n == 7, 1.0, kcbs)

    monkeypatch.setattr(experiments.analytic, "state1_margins", no_crossing_at_seven)
    with pytest.raises(NoIntersection, match=r"for n = 7$"):
        coexistence_points([5, 7, 9])


def test_scaling_study_structure():
    columns, loglog_slope = scaling_study(range(5, 16, 2))
    records = _rows(columns)
    assert [r["n"] for r in records] == [5, 7, 9, 11, 13, 15]
    thetas = [r["theta_opt_deg"] for r in records]
    assert all(b < a for a, b in zip(thetas, thetas[1:]))
    for record in records:
        assert record["psi_n_kcbs_margin"] > 0
        assert record["psi_n_chsh_margin"] > 0
        assert record["asym_kcbs"] == pytest.approx(8 / (record["n"] + 4), abs=0)
        assert record["asym_chsh"] == pytest.approx(8 * (record["n"] + 2) / (record["n"] + 4) ** 2,
                                                    abs=0)
        assert record["residual"] <= 1e-9
    assert loglog_slope is not None


def test_scaling_single_point_has_no_slope():
    columns, loglog_slope = scaling_study([5])
    assert len(_rows(columns)) == 1
    assert loglog_slope is None


def test_overlap_ordering_peaks_at_nine():
    # Overlap rises from n = 5 to a maximum at n = 9, then decreases, and
    # both margins stay strictly positive at every crossing.
    points = coexistence_points(range(5, 57, 2))
    overlaps = dict(zip(points["n"].tolist(), points["overlap"].tolist()))
    assert overlaps[7] > overlaps[5]
    assert overlaps[9] > overlaps[7]
    tail = [overlaps[n] for n in range(9, 57, 2)]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert all(v > 0 for v in overlaps.values())


def test_phi_symmetry_of_landscape():
    thetas = np.linspace(0, 180, 13)
    phis = np.linspace(0, 360, 25)
    records = _cells(landscape_scan(5, thetas, phis, mode="analytic"))
    for r in records:
        r["phi_deg"] = float(r["phi_deg"])  # multiples of 15 degrees, exact in the written text
    grid = {}
    for r in records:
        grid[(round(r["theta_deg"], 6), round(r["phi_deg"], 6))] = r
    for r in records:
        mirrored = grid[(round(r["theta_deg"], 6), round(360.0 - r["phi_deg"], 6))]
        assert r["chsh_margin"] == pytest.approx(mirrored["chsh_margin"], abs=1e-12)
        shifted_phi = (r["phi_deg"] + 180.0) % 360.0
        partner = grid.get((round(r["theta_deg"], 6), round(shifted_phi, 6)))
        if partner is not None:
            assert r["chsh_margin"] == pytest.approx(partner["chsh_margin"], abs=1e-12)


def test_validation_suite_passes():
    rows = run_validation()
    assert len(rows) == 18
    for name, value, tolerance, ok in rows:
        assert isinstance(name, str) and isinstance(value, float)
        assert ok is True and value <= tolerance, name
        # A name says what its value measures; the tolerance is only in its own field.
        assert tolerance == 0 or f"{tolerance:g}" not in name
    names = [row[0] for row in rows]
    assert len(set(names)) == len(names)
    residual = next(row for row in rows if row[0].startswith("coexistence residual"))
    assert residual[2] == experiments.RESIDUAL_TOL
