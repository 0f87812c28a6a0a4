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
from chsh_kcbs import experiments, serialize
from chsh_kcbs.observables import alice_rotation, b0_closed_form, bm_bm1_closed_form, kcbs_pair
from chsh_kcbs.analytic import chsh_coefficients, state1
from helpers import masked_bisection, read_csv, textbook_margins

TABLE_POINTS = {5: (49.605, 0.343069), 23: (30.381, 0.227717), 55: (20.815, 0.11978)}


def _columns(table):
    """The table's columns over the whole grid, keyed by header field, read from its blocks.

    These are the blocks the writer formats: a block's constants, by-row
    values and phi slice are repeated over its (row, cell) grid.
    """
    blocks = [[np.broadcast_to(value, serialize._shape(block)).ravel() for value in block]
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
    peak = by_cell[(90.0, 0.0)]
    assert peak["chsh_margin"] == pytest.approx(0.7198, abs=1e-4)
    assert peak["kcbs_margin"] < 0
    flat = by_cell[(0.0, 0.0)]
    assert flat["kcbs_margin"] == pytest.approx(0.944272, abs=1e-6)
    assert flat["chsh_margin"] < 0
    assert flat["kcbs_margin"] == pytest.approx(by_cell[(0.0, 45.0)]["kcbs_margin"], abs=1e-12)
    # mode, shots and seed are constants of every block: "analytic" and two empty fields.
    assert len(table) == len(records) == 4
    assert all(block[5:] == ("analytic", None, None) for block in table.blocks())
    assert all(r["seed"] is None for r in records)


def test_landscape_record_order_is_theta_major():
    records = _cells(landscape_scan(5, [10.0, 20.0], [0.0, 90.0, 180.0], mode="analytic"))
    cells = [(r["theta_deg"], r["phi_deg"]) for r in records]
    assert cells == [(10.0, 0.0), (10.0, 90.0), (10.0, 180.0),
                     (20.0, 0.0), (20.0, 90.0), (20.0, 180.0)]


def test_landscape_matches_margin_function():
    thetas = np.linspace(0, 180, 7)
    phis = np.linspace(0, 360, 5)
    records = _cells(landscape_scan(7, thetas, phis, mode="analytic"))
    for record in records:
        # A cell alone is the same to the bit as that cell inside the landscape's block.
        chsh, kcbs = state1_margins(record["theta_deg"], record["phi_deg"], 7)
        assert (record["chsh_margin"], record["kcbs_margin"]) == (chsh, kcbs)


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
    """Record the cell count of every margin kernel call the landscape makes."""
    sizes = []
    kernel = experiments.analytic.state1_margins

    def spy(theta_deg, phi_deg, n):
        chsh, kcbs = kernel(theta_deg, phi_deg, n)
        sizes.append(np.size(chsh))
        return chsh, kcbs

    monkeypatch.setattr(experiments.analytic, "state1_margins", spy)
    return sizes


@pytest.mark.parametrize("block, thetas, phis", [
    (experiments.BLOCK_CELLS, np.linspace(0, 180, 97), np.linspace(0, 360, 1001)),
    (7, np.linspace(0, 180, 5), np.linspace(-30, 330, 16)),
    (7, np.linspace(0, 180, 9), np.linspace(0, 360, 3)),
    (7, np.array([45.0]), np.array([0.0])),
    # phi counts 1, 2 and 10, the last a row wider than a block.
    (7, np.linspace(0, 180, 23), np.array([10.0])),
    (7, np.linspace(0, 180, 8), np.array([0.0, 90.0])),
    (experiments.BLOCK_CELLS, np.linspace(0, 180, 40), np.linspace(0, 360, 10)),
    (4, np.linspace(0, 180, 3), np.linspace(0, 360, 10)),
])
def test_landscape_blocks_are_bounded_and_match_full_grid(monkeypatch, block, thetas, phis):
    monkeypatch.setattr(experiments, "BLOCK_CELLS", block)
    sizes = _spy_on_margins(monkeypatch)
    table = landscape_scan(5, thetas, phis, mode="analytic")
    assert sizes == []  # nothing is computed before the table is iterated
    columns = _columns(table)
    assert sizes and max(sizes) <= block
    assert sum(sizes) == len(table) == thetas.size * phis.size
    # Analytic blocks are column tuples, one per kernel block: whole theta rows, or a
    # slice of one row when a row is wider than a block.
    shapes = [serialize._shape(block) for block in table.blocks()]
    assert [rows * cells for rows, cells in shapes] == sizes[:len(shapes)]
    assert all(rows == 1 or cells == phis.size for rows, cells in shapes)

    # The whole grid as one kernel block gives the same bits.
    chsh, kcbs, _ = table._margins(slice(None), slice(None))
    assert np.array_equal(columns["theta_deg"], np.repeat(thetas, phis.size))
    assert np.array_equal(columns["phi_deg"], np.tile(phis, thetas.size))
    assert np.array_equal(columns["chsh_margin"], chsh.ravel())
    assert np.array_equal(columns["kcbs_margin"], np.repeat(kcbs, phis.size))


@pytest.mark.parametrize("mode", ["analytic", "circuit"])
def test_landscape_rows_are_formatted_once_per_kernel_block(monkeypatch, tmp_path, mode):
    # 1000 theta rows of one cell each are one kernel block, so the writer formats
    # them in one call, not one call per theta row.
    calls = []
    format_block = serialize._format_block

    def spy(header, block):
        calls.append(math.prod(serialize._shape(block)))
        return format_block(header, block)

    monkeypatch.setattr(serialize, "_format_block", spy)
    table = landscape_scan(5, np.linspace(0, 180, 1000), [0.0], mode=mode, shots=10, seed=1)
    serialize.write_csv(str(tmp_path / "scan.csv"), list(table.header), table)
    assert calls == [1000]
    assert len(read_csv(str(tmp_path / "scan.csv"))[1]) == 1000


def _layout(value):
    """A block value's type, with its dtype kind if it is an array: what sets its format."""
    return f"ndarray[{value.dtype.kind}]" if isinstance(value, np.ndarray) else type(value).__name__


def test_both_modes_yield_blocks_of_one_layout():
    # The writer takes each column's format from its values, so the mode may
    # make a float column vary or leave shots and seed empty, but it never
    # turns a float column into ints or text.
    analytic = landscape_scan(5, [0.0, 90.0], [0.0, 45.0, 90.0])
    circuit = landscape_scan(5, [0.0, 90.0], [0.0, 45.0], mode="circuit", shots=10, seed=1)
    layouts = [{tuple(map(_layout, block)) for block in table.blocks()}
               for table in (analytic, circuit)]
    assert layouts == [{("int", "ndarray[f]", "ndarray[f]", "ndarray[f]", "ndarray[f]", "str",
                         "NoneType", "NoneType")},
                       {("int", "ndarray[f]", "ndarray[f]", "ndarray[f]", "ndarray[f]", "str",
                         "int", "ndarray[i]")}]
    # Theta, and the analytic KCBS margin, vary by theta row alone: (rows, 1) arrays.
    assert [block[1].shape for block in circuit.blocks()] == [(2, 1)]
    assert [block[4].shape for block in analytic.blocks()] == [(2, 1)]
    # Phi is the 1-D slice of the grid's phis that every theta row of a block shares.
    assert [block[2].tolist() for block in circuit.blocks()] == [[0.0, 45.0]]


def _propagated_margin_stddev(n, theta, phi, shots):
    """Shot-noise standard deviations of the two margins at one cell."""
    co = chsh_coefficients(state1(theta, phi), n)

    def exact(alice, bob):
        probs = run_hybrid_tests(prepare_state1(theta, phi), alice[None, None], bob.matrix[None])
        return FourierTestReport(*probs[0, 0].tolist(), *estimators(probs)[0, 0].tolist())

    chsh_var = 0.0
    for alice, bob in ((co.omega2, bm_bm1_closed_form(n)), (co.omega2, b0_closed_form(n)),
                       (co.omega0, bm_bm1_closed_form(n)), (co.omega0, b0_closed_form(n))):
        chsh_var += estimator_stddev(exact(alice_rotation(alice).matrix, bob), shots) ** 2
    kcbs_var = 0.0
    for j in range(n):
        kcbs_var += estimator_stddev(exact(np.eye(2), kcbs_pair(n, j)), shots) ** 2
    return math.sqrt(chsh_var), math.sqrt(kcbs_var)


def _spy_on_circuit_blocks(monkeypatch):
    """Record the preparation runs, (cell, term) grids, stacks and cycle rows a landscape uses.

    ``measured`` holds each grid's states and Bob bank; ``stacks`` holds the (cells, terms)
    shape and the states of each stack that ``run_hybrid_tests`` hands to the readout, and
    ``alice`` the (cells, terms) shape of the Alice factor it reads, which broadcasts.
    """
    calls = {"prepared": [], "measured": [], "stacks": [], "alice": [], "cycle_rows": []}
    prepare, stacked = experiments.circuits.prepare_state1, experiments.circuits.run_hybrid_tests
    cycle, readout = experiments.observables.kcbs_observables, experiments.circuits._readout

    def prepare_spy(theta, phi):
        calls["prepared"].append((np.array(theta), np.array(phi), prepare(theta, phi)))
        return calls["prepared"][-1][2]

    def stacked_spy(state, alice_ops, bob_ops):
        calls["measured"].append((np.array(state), np.array(bob_ops)))
        return stacked(state, alice_ops, bob_ops)

    def readout_spy(alice, psi, bob):
        shape = np.broadcast_shapes(alice.shape[:-2], psi.shape[:-2], bob.shape[:-2])
        calls["stacks"].append((shape, psi.reshape(len(psi), 6)))
        calls["alice"].append(alice.shape[:2])
        return readout(alice, psi, bob)

    def cycle_spy(n, rows=None):
        calls["cycle_rows"].append((n, None if rows is None else np.array(rows).tolist()))
        return cycle(n, rows)

    monkeypatch.setattr(experiments.circuits, "prepare_state1", prepare_spy)
    monkeypatch.setattr(experiments.circuits, "run_hybrid_tests", stacked_spy)
    monkeypatch.setattr(experiments.circuits, "_readout", readout_spy)
    monkeypatch.setattr(experiments.observables, "kcbs_observables", cycle_spy)
    return calls


def _stack_rows(calls):
    """The (cell, term) row count of each stack a circuit landscape simulated."""
    return [cells * terms for (cells, terms), _ in calls["stacks"]]


def test_circuit_landscape_prepares_each_cell_once(monkeypatch):
    # Each cell is prepared once, in stacked preparation runs of at most
    # BLOCK_TERMS cells; all n + 4 correlators of a cell are Fourier tests on
    # that cell's prepared state, run as (cell, term) grids.
    n, thetas, phis = 5, [30.0, 60.0, 90.0], [0.0, 45.0]
    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", 4)
    calls = _spy_on_circuit_blocks(monkeypatch)
    table = landscape_scan(n, thetas, phis, mode="circuit", shots=100, seed=3)
    _columns(table)
    cells = [(math.radians(t), math.radians(p)) for t in thetas for p in phis]
    prepared = [cell for run in calls["prepared"] for cell in zip(run[0].tolist(), run[1].tolist())]
    assert prepared == cells and len(prepared) == len(table)
    assert [len(run[0]) for run in calls["prepared"]] == [4, 2]
    # BLOCK_TERMS = 4 < n runs a group's 4 CHSH terms as one grid and its 5 KCBS
    # pairs as blocks of 4 and 1, each one grid of the whole group.  Inside a
    # grid, a 4-term stack reads one cell's state for all its terms, and the
    # 1-term stack reads the whole group of 4 cells, one row each.
    groups = [run[2] for run in calls["prepared"]]
    grids = [(group, terms, chsh) for group in groups
             for terms, chsh in ((4, True), (4, False), (1, False))]
    assert len(calls["measured"]) == len(grids) == 2 * 3
    assert all(np.array_equal(got, want) and len(bank) == terms
               for (got, bank), (want, terms, _) in zip(calls["measured"], grids))
    expected = [(group[first:first + 4 // terms], terms, chsh) for group, terms, chsh in grids
                for first in range(0, len(group), 4 // terms)]
    assert len(calls["stacks"]) == len(expected) == 2 * (4 + 2) + 2
    assert all(shape == (len(want), terms) and np.array_equal(got, want)
               for (shape, got), (want, terms, _) in zip(calls["stacks"], expected))
    # A CHSH stack reads each of its cells' rotations; a KCBS stack reads the one
    # shared identity for all its cells and pairs, never a copy.
    assert calls["alice"] == [(len(want), terms) if chsh else (1, 1)
                              for want, terms, chsh in expected]


@pytest.mark.parametrize("block_terms", [4, 5, 8, 9, 10, 19, 100])
def test_circuit_blocks_hold_at_most_block_terms_rows(monkeypatch, block_terms):
    # 4 CHSH terms and n = 5 KCBS pairs: from BLOCK_TERMS = 5 up each grid's stack
    # holds whole cells, and below it a KCBS block's grid runs as stacks of as many
    # cells as fit.  Every simulated stack and every preparation run holds at most
    # BLOCK_TERMS rows, all rows are measured once, and every cell is prepared once.
    n, thetas, phis = 5, [0.0, 30.0, 60.0, 180.0], [0.0, 45.0, 90.0]
    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", block_terms)
    calls = _spy_on_circuit_blocks(monkeypatch)
    table = landscape_scan(n, thetas, phis, mode="circuit", shots=50, seed=2)
    _columns(table)
    assert max(_stack_rows(calls)) <= block_terms
    assert sum(_stack_rows(calls)) == len(table) * (n + 4)
    assert max(len(run[0]) for run in calls["prepared"]) <= block_terms
    assert sum(len(run[0]) for run in calls["prepared"]) == len(table)
    assert len(calls["prepared"]) == -(-len(table) // block_terms)
    # Each preparation group runs one CHSH grid and each KCBS block as one grid,
    # building the block's bank once, from the cycle rows its pairs need, at most
    # BLOCK_TERMS + 1.
    kcbs_blocks = -(-n // block_terms)
    assert len(calls["measured"]) == len(calls["prepared"]) * (1 + kcbs_blocks)
    assert len(calls["cycle_rows"]) == len(calls["prepared"]) * kcbs_blocks
    assert all(size == n and len(rows) <= block_terms + 1 for size, rows in calls["cycle_rows"])


@pytest.mark.parametrize("n, block_terms", [(5, 4), (201, 100)])
def test_a_one_term_tail_block_runs_as_one_test_per_group(monkeypatch, n, block_terms):
    # n = 1 mod BLOCK_TERMS: after the CHSH grid, a group of c cells runs each full
    # KCBS block as one grid, simulated as c stacks of one cell each, and one grid
    # of the c cells' wraparound pair alone, simulated as one stack.
    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", block_terms)
    calls = _spy_on_circuit_blocks(monkeypatch)
    table = landscape_scan(n, [30.0, 60.0], [0.0, 45.0], mode="circuit", shots=50, seed=4)
    columns = _columns(table)
    cells, full = len(table), n // block_terms
    assert len(calls["prepared"]) == 1
    assert [(len(states), len(bank)) for states, bank in calls["measured"]] == [
        (cells, 4)] + [(cells, block_terms)] * full + [(cells, 1)]
    chsh_step = block_terms // 4
    assert _stack_rows(calls) == ([4 * min(chsh_step, cells - first)
                                   for first in range(0, cells, chsh_step)]
                                  + [block_terms] * cells * full + [cells])
    # The lone pair is B_{n-1} B_0, which the sums subtract as the protocol does.
    assert calls["measured"][-1][1][0].tobytes() == kcbs_pair(n, n - 1).matrix.tobytes()
    want = _term_by_term_margins(n, [(t, p) for t in (30.0, 60.0) for p in (0.0, 45.0)], 50, 4)
    assert list(zip(columns["chsh_margin"].tolist(), columns["kcbs_margin"].tolist())) == want


@pytest.mark.parametrize("block_terms, shapes", [
    # The n = 5 pairs fit one block: the 6 cells are one CHSH grid and one KCBS grid.
    (100, [(6, 4, (6, 4)), (6, 5, (1, 1))]),
    # KCBS blocks [0, 4) and [4, 5) in groups of 4 and 2 cells: each group is one
    # CHSH grid and one grid per KCBS block, the 1-pair tail bank included.
    (4, [(4, 4, (4, 4)), (4, 4, (1, 1)), (4, 1, (1, 1)),
         (2, 4, (2, 4)), (2, 4, (1, 1)), (2, 1, (1, 1))]),
])
def test_term_sums_pass_each_state_once_against_one_bank(monkeypatch, block_terms, shapes):
    # Each grid holds c states, not c t repeated rows, one bank of t Bob operators,
    # not one copy per cell, and Alice's factor as checked: a CHSH grid's (c, 4)
    # rotations, a KCBS grid's one (1, 1) identity for every cell and pair.
    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", block_terms)
    grids, stacked = [], experiments.circuits.run_hybrid_tests

    def stacked_spy(states, alice_ops, bob_ops):
        grids.append((np.shape(states), np.shape(alice_ops), np.shape(bob_ops)))
        return stacked(states, alice_ops, bob_ops)

    monkeypatch.setattr(experiments.circuits, "run_hybrid_tests", stacked_spy)
    table = landscape_scan(5, [30.0, 60.0, 90.0], [0.0, 45.0], mode="circuit", shots=50, seed=4)
    _columns(table)
    assert grids == [((c, 6), alice + (2, 2), (t, 3, 3)) for c, t, alice in shapes]


def test_split_cells_build_each_term_blocks_bank_once_per_group(monkeypatch):
    # n = 5 > BLOCK_TERMS = 4: KCBS blocks [0, 4) and [4, 5), whose pairs read cycle
    # rows 0..4 and 4, 0.  Six cells make two groups, and each group builds each
    # bank once, not once per cell.
    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", 4)
    calls = _spy_on_circuit_blocks(monkeypatch)
    table = landscape_scan(5, [30.0, 60.0, 90.0], [0.0, 45.0], mode="circuit", shots=50, seed=4)
    _columns(table)
    assert [len(run[0]) for run in calls["prepared"]] == [4, 2]
    assert calls["cycle_rows"] == [(5, [0, 1, 2, 3, 4]), (5, [4, 0])] * 2


def test_circuit_table_pass_builds_the_pair_bank_once(monkeypatch):
    # While all pairs fit one block, Bob's cycle stack is built once per table
    # pass (this table is one preparation group), not per cell, pair or test.
    n, calls = 7, []
    stack = experiments.observables.kcbs_observables

    def stack_spy(size, rows=None):
        calls.append((size, np.array(rows).tolist()))
        return stack(size, rows)

    monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", 2 * n)
    monkeypatch.setattr(experiments.observables, "kcbs_observables", stack_spy)
    table = landscape_scan(n, [30.0, 60.0, 90.0], [0.0, 45.0], mode="circuit", shots=50, seed=1)
    first = _columns(table)
    # The rows of every adjacent pair, the wraparound included.
    assert calls == [(n, list(range(n)) + [0])]
    assert _same_columns(_columns(table), first)
    assert calls == [(n, list(range(n)) + [0])] * 2


def _circuit_csv(tmp_path, name, *grid):
    from chsh_kcbs import cli
    path = tmp_path / name
    n, thetas, phis = grid
    assert cli.main(["landscape", "--n", str(n), "--theta", thetas, "--phi", phis,
                     "--mode", "circuit", "--shots", "300", "--seed", "5",
                     "--out", str(path), "--no-timestamp"]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("n", [5, 7])
def test_circuit_csv_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path, n):
    # Cells split across blocks (BLOCK_TERMS < n + 4) and one cell's terms
    # split across blocks give the bytes of the default blocking.
    grid = (n, "0,50,180", "0,45,90,200")
    default = _circuit_csv(tmp_path, "default.csv", *grid)
    for block_terms in (4, 5, n + 3, n + 4, n + 5, 2 * (n + 4) + 1):
        monkeypatch.setattr(experiments.circuits, "BLOCK_TERMS", block_terms)
        assert _circuit_csv(tmp_path, f"{block_terms}.csv", *grid) == default, block_terms


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


def _term_by_term_margins(n, cells, shots, master_seed):
    """(chsh, kcbs) margins of (theta, phi) cells, each term a one-test run in protocol order."""
    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    margins = []
    for cell, (theta, phi) in enumerate(cells):
        state = prepare_state1(math.radians(theta), math.radians(phi))
        co = chsh_coefficients(state[0], n)
        r0, r2 = alice_rotation(co.omega0).matrix, alice_rotation(co.omega2).matrix
        terms = [(r2, bm), (r2, b0), (r0, bm), (r0, b0)]
        terms += [(np.eye(2), kcbs_pair(n, j).matrix) for j in range(n)]
        # Scheme 3: every term draws its outcome-0 count in turn from one generator
        # seeded by the cell seed, and reads it through the from_p0 estimator.
        rng = np.random.default_rng(
            np.random.SeedSequence((master_seed, cell)).generate_state(1)[0])
        estimates = []
        for a, b in terms:
            p0 = run_hybrid_tests(state, a[None, None], b[None])[0, 0, 0]
            f0 = rng.binomial(shots, min(max(p0, 0.0), 1.0)) / shots
            estimates.append((9.0 * f0 - 5.0) / 4.0)
        kcbs = 0.0
        for j in range(n):
            kcbs += (-1.0 if j == n - 1 else 1.0) * estimates[4 + j]
        chsh = estimates[0] + estimates[1] + estimates[2] - estimates[3]
        margins.append((chsh - 2.0, kcbs - (n - 2.0)))
    return margins


def test_circuit_margins_match_a_term_by_term_running_sum_to_the_bit():
    # With n + 4 >= 8 terms a pairwise sum would move the last bits; the cell
    # keeps the running sum of the term-by-term protocol.
    n, shots, master_seed = 9, 300, 5
    table = landscape_scan(n, [40.0, 70.0], [30.0], mode="circuit", shots=shots, seed=master_seed)
    columns = _columns(table)
    want = _term_by_term_margins(n, [(40.0, 30.0), (70.0, 30.0)], shots, master_seed)
    assert list(zip(columns["chsh_margin"].tolist(), columns["kcbs_margin"].tolist())) == want


def test_a_circuit_group_runs_one_chsh_grid_and_identity_kcbs_grids(monkeypatch):
    # One group of 6 cells at n = 7: one grid of Alice's rotations against the
    # 4-matrix CHSH bank, then the KCBS grid, whose Alice factor is one shared identity.
    n, grids, stacked = 7, [], experiments.circuits.run_hybrid_tests

    def stacked_spy(states, alice_ops, bob_ops):
        grids.append((np.array(alice_ops), np.array(bob_ops)))
        return stacked(states, alice_ops, bob_ops)

    monkeypatch.setattr(experiments.circuits, "run_hybrid_tests", stacked_spy)
    thetas, phis = [30.0, 60.0, 90.0], [0.0, 45.0]
    _columns(landscape_scan(n, thetas, phis, mode="circuit", shots=50, seed=4))
    (chsh_alice, chsh_bank), *kcbs = grids
    bm, b0 = bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix
    assert np.array_equal(chsh_bank, [bm, b0, bm, b0])
    states = prepare_state1(*np.deg2rad(np.meshgrid(thetas, phis, indexing="ij")).reshape(2, -1))
    for cell, state in enumerate(states):
        co = chsh_coefficients(state, n)
        rotations = [alice_rotation(w).matrix for w in (co.omega2, co.omega2, co.omega0, co.omega0)]
        assert np.allclose(chsh_alice[cell], rotations, rtol=0, atol=1e-15)
    assert [bank.shape for _, bank in kcbs] == [(n, 3, 3)]
    assert all(np.array_equal(alice, [[np.eye(2)]]) for alice, _ in kcbs)


def test_margin_kernel_builds_the_cycle_constants_once_per_call(monkeypatch):
    # The public margins build the constants once per call.  One scaling study builds
    # them a fixed number of times, each over all its sizes, however many sizes and
    # bisection steps it has: every step runs the kernel on the solve's one geometry.
    kernel_calls, builds = [], []
    kernel, build = experiments.analytic._chsh_margin, experiments.observables.CycleGeometry

    def kernel_spy(weight, geo):
        kernel_calls.append(np.size(geo.n))
        return kernel(weight, geo)

    def build_spy(*fields):
        builds.append(np.size(fields[0]))
        return build(*fields)

    monkeypatch.setattr(experiments.analytic, "_chsh_margin", kernel_spy)
    monkeypatch.setattr(experiments.observables, "CycleGeometry", build_spy)
    state1_margins(17.0, 0.0, np.arange(5, 200, 2))
    assert builds == [len(range(5, 200, 2))] and kernel_calls == builds
    counts, steps = [], []
    for sizes in (range(5, 200, 2), range(5, 2000, 2), range(5, 50, 2)):
        kernel_calls.clear()
        builds.clear()
        scaling_study(sizes)
        assert len(kernel_calls) > 2
        assert kernel_calls == [len(sizes)] * len(kernel_calls)
        assert builds == [len(sizes)] * len(builds)
        counts.append(len(builds))
        steps.append(len(kernel_calls))
    assert counts[0] == counts[1] == counts[2] <= 3
    assert steps[0] == steps[1] == steps[2]


def test_a_solve_reads_the_kcbs_line_once_and_runs_only_the_chsh_kernel(monkeypatch):
    # The KCBS margin of every step is the overlap itself, read off one KCBS line;
    # each step runs the CHSH kernel alone: 3 bracket calls, at most 53 halvings
    # and the residual, and scaling one more for the family's CHSH margin.
    calls = {"line": 0, "kernel": 0}
    line, kernel = experiments.analytic._kcbs_line, experiments.analytic._chsh_margin

    def line_spy(geo):
        calls["line"] += 1
        return line(geo)

    def kernel_spy(weight, geo):
        calls["kernel"] += 1
        return kernel(weight, geo)

    monkeypatch.setattr(experiments.analytic, "_kcbs_line", line_spy)
    monkeypatch.setattr(experiments.analytic, "_chsh_margin", kernel_spy)
    for solve, most in ((coexistence_points, 57), (lambda sizes: scaling_study(sizes)[0], 58)):
        for sizes in ([5], range(5, 2000, 2), [10**12 + 1]):
            calls.update(line=0, kernel=0)
            assert len(solve(sizes)["overlap"]) == len(sizes)
            assert calls["line"] == 1 and 4 < calls["kernel"] <= most, (sizes, calls)


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
            5, math.radians(got["theta_deg"]), math.radians(got["phi_deg"]), shots)
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
    assert whole["seed"].tolist() == [np.random.SeedSequence((3, cell)).generate_state(1)[0]
                                      for cell in range(6)]


def test_cell_seed_is_the_first_seed_sequence_word_of_master_and_cell():
    # NEP 19 keeps SeedSequence's words stable across numpy versions, so the cell seeds, and
    # the circuit bytes, are too; a master or cell index of 2**32 or more is several words.
    for master in (0, 2**32 - 1, 2**32, 2**64):
        for cell in (0, 1, 2**32):
            seed = experiments._cell_seed(master, cell)
            assert type(seed) is int
            assert seed == np.random.SeedSequence((master, cell)).generate_state(1)[0]
    assert experiments._cell_seed(0, 0) == 2968811710
    assert experiments._cell_seed(2**64, 2**32) == 1310249577


@pytest.mark.xfail(strict=True, reason="SeedSequence drops trailing zero words, so master "
                   "k 2**32 + m cell 0 is master m cell k; the fix is ROADMAP item 15's")
def test_masters_of_2_to_the_32_or_more_do_not_share_cell_seeds_with_smaller_ones():
    assert experiments._cell_seed(2**32 + 5, 0) != experiments._cell_seed(5, 1)
    assert experiments._cell_seed(5 * 2**32, 0) != experiments._cell_seed(0, 5)


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
    chsh, kcbs = state1_margins(record["theta_opt_deg"], 0.0, 9)
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
    # The solve keeps them too, and meets the large-n law overlap ~ 8/n there.
    points = coexistence_points(sizes)
    assert points["n"].tolist() == sizes
    assert points["overlap"][1] * float(sizes[1]) == pytest.approx(8.0, rel=1e-15)


def test_coexistence_surfaces_missing_crossing(monkeypatch):
    def never_crossing(weight, geo):
        return np.full(np.broadcast_shapes(np.shape(weight), np.shape(geo.n)), -1.0)

    monkeypatch.setattr(experiments.analytic, "_chsh_margin", never_crossing)
    with pytest.raises(NoIntersection):
        coexistence_points([5])


def test_lockstep_bisection_matches_a_per_size_masked_bisection_to_the_bit():
    # A size whose bracket is narrower than the widest (n = 5, 53 halvings) gains nothing
    # from the extra lockstep steps, and the fixed-point bracket of a large n is narrow.
    sizes = [*range(5, 2002, 2), 1000001, 4506887, 10000001]
    got = coexistence_points(sizes)
    want = masked_bisection(sizes)
    for name in ("theta_opt_deg", "overlap", "residual", "iterations"):
        assert np.array_equal(got[name], want[name]), name
    assert got["iterations"].max() == got["iterations"][0] == 53
    assert got["iterations"][-1] < 40


def test_coexistence_points_match_60_digit_roots():
    # The root of chsh(theta) = kcbs(theta) in the textbook forms, at 60 digits, from
    # theta = sqrt(8/(n+4)); the theta root is O(n) conditioned, the overlap is not.
    mp = pytest.importorskip("mpmath")
    sizes = [5, 9, 1001, 10**6 + 1, 4506889, 10**8 + 1, 10**12 + 1, 9 * 10**12 + 1]
    got = coexistence_points(sizes)
    with mp.workdps(60):
        for index, n in enumerate(sizes):
            def gap(theta):
                chsh, kcbs = textbook_margins(mp, n, theta)
                return chsh - kcbs

            theta = mp.findroot(gap, mp.sqrt(8.0 / (n + 4)))
            overlap = textbook_margins(mp, n, theta)[1]
            assert abs(got["overlap"][index] - overlap) <= 1e-13 * overlap, n
            assert abs(mp.radians(got["theta_opt_deg"][index]) - theta) <= 1e-13 * theta, n


def test_coexistence_points_match_single_size_solves():
    together = coexistence_points([9, 5, 7])
    assert together["n"].tolist() == [9, 5, 7]
    for index, n in enumerate([9, 5, 7]):
        alone = coexistence_points([n])
        for name, column in together.items():
            assert column[index] == alone[name][0], (n, name)


def test_missing_crossing_names_the_cycle_size(monkeypatch):
    kernel = experiments.analytic._chsh_margin

    def no_crossing_at_seven(weight, geo):
        return np.where(geo.n == 7, -1.0, kernel(weight, geo))

    monkeypatch.setattr(experiments.analytic, "_chsh_margin", no_crossing_at_seven)
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


def test_scaling_family_kcbs_margin_matches_50_digit_reference():
    # The KCBS line a - b s cancels about n/4-fold at s = 2/(n+4); the written column
    # must hold the value at that s to near machine precision however large n is.
    mp = pytest.importorskip("mpmath")
    sizes = [10**8 + 1, 10**12 + 1]
    columns, _ = scaling_study(sizes)
    with mp.workdps(50):
        for index, n in enumerate(sizes):
            theta = 2 * mp.asin(mp.sqrt(mp.mpf(2) / (n + 4)))
            want = textbook_margins(mp, n, theta)[1]
            assert abs(columns["psi_n_kcbs_margin"][index] - want) <= 1e-13 * want, n


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
    assert len(rows) == 20
    for name, value, tolerance, ok in rows:
        assert isinstance(name, str) and isinstance(value, float)
        assert ok is True and value <= tolerance, name
        # A name says what its value measures; the tolerance is only in its own field.
        assert tolerance == 0 or f"{tolerance:g}" not in name
    names = [row[0] for row in rows]
    assert len(set(names)) == len(names)
    residual = next(row for row in rows if row[0].startswith("coexistence residual"))
    assert residual[2] == experiments.RESIDUAL_TOL


def test_a_circuit_landscape_of_a_huge_cycle_computes_no_cell_up_front(monkeypatch):
    # Nothing is built from the cycle when the table is made; its cells, bounded in
    # memory whatever n is, are computed only as the table is iterated.
    calls = []
    monkeypatch.setattr(experiments, "_term_sums", lambda *args: calls.append(args))
    table = landscape_scan(10**15 + 1, [30.0], [0.0, 45.0], mode="circuit", shots=10, seed=1)
    assert len(table) == 2 and table.n == 10**15 + 1
    assert calls == []
