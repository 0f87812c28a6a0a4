"""Tests for cycle geometry and the observable family."""

import math
import sys

import numpy as np
import pytest

from chsh_kcbs import observables
from chsh_kcbs import (
    IndexOutOfRange,
    InvalidCycle,
    alice_rotation,
    b0_closed_form,
    bm_bm1_closed_form,
    cycle_geometry,
    kcbs_observables,
    kcbs_pair,
    kcbs_vectors,
    s_operator,
)
from helpers import exact_cycle_rows, worst_error

ODD_CYCLES = list(range(5, 23, 2))


def test_cycle_geometry_values():
    geo = cycle_geometry(5)
    assert geo.c == pytest.approx(math.cos(math.pi / 5), abs=0)
    assert geo.c == pytest.approx(0.809017, abs=1e-6)
    assert geo.s2 == pytest.approx(0.309017, abs=1e-6)
    assert geo.m == 2
    # The cycle sum's floor and ceiling are the diagonal of S.
    floor, _, ceiling = np.diag(s_operator(5)).real
    assert floor == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert ceiling == pytest.approx(4 * math.sqrt(5) - 5, abs=1e-12)

    geo7 = cycle_geometry(7)
    assert geo7.c == pytest.approx(0.900969, abs=1e-6)
    assert geo7.m == 3
    floor7, _, ceiling7 = np.diag(s_operator(7)).real
    assert ceiling7 > floor7 > 0


@pytest.mark.parametrize("bad", [4, 3, 1, 0, -5, 6, 5.0, "5", [5, 6], [7, 3], [5, 7.0], [],
                                 np.array([], dtype=int), np.array([[5, 9], [11, 4]])])
def test_cycle_geometry_rejects_bad_sizes(bad):
    with pytest.raises(InvalidCycle):
        cycle_geometry(bad)


@pytest.mark.parametrize("sizes", [10**400 + 1, [5, 10**400 + 1, 10**500 + 1],
                                   np.array([7, 10**400 + 1], dtype=object)],
                         ids=["one", "list", "object-array"])
def test_cycle_geometry_refuses_a_size_beyond_a_float_by_name(sizes):
    # The constants need n as a float; the first size beyond one is named.
    with pytest.raises(InvalidCycle, match=rf"odd integer in \[5, .*\], got {10**400 + 1}$"):
        cycle_geometry(sizes)


@pytest.mark.parametrize("sizes", [
    np.arange(5, 20002, 2),
    np.array(list(range(5, 20002, 2)) + [100000000000000000001], dtype=object),
])
def test_cycle_geometry_array_matches_each_size_to_the_bit(sizes):
    geo = cycle_geometry(sizes)
    alone = [cycle_geometry(n) for n in sizes.tolist()]
    for field in ("n", "m"):
        assert getattr(geo, field).tolist() == [getattr(g, field) for g in alone]
    for field in ("c", "s2", "s_plus", "s_minus"):
        column = getattr(geo, field)
        assert column.dtype == float and column.shape == sizes.shape
        assert column.tobytes() == np.array([getattr(g, field) for g in alone]).tobytes()
    # A 2-D array of sizes gives 2-D fields.
    assert cycle_geometry(np.array([[5, 7], [9, 11]])).s_plus.shape == (2, 2)


def test_cycle_geometry_scalar_fields_are_python_numbers():
    geo = cycle_geometry(100000000000000000001)
    assert geo.n == 100000000000000000001 and geo.m == 50000000000000000000
    assert type(geo.n) is int and type(geo.m) is int and type(geo.c) is float
    assert geo.s_plus == 4 * geo.s2 + 2 and geo.s_minus == 4 * geo.s2 - 2
    assert cycle_geometry(7).s_plus == -4 * cycle_geometry(7).s2 + 2


def test_kcbs_vector_closed_form():
    vecs = kcbs_vectors(5)
    c = math.cos(math.pi / 5)
    assert vecs.shape == (5, 3)
    assert vecs[0] == pytest.approx([1 / math.sqrt(1 + c), 0.0, math.sqrt(c) / math.sqrt(1 + c)], abs=1e-15)
    assert vecs[0] == pytest.approx([0.743496, 0.0, 0.668740], abs=1e-6)
    with pytest.raises(ValueError):
        vecs[0, 0] = 0.5
    with pytest.raises(ValueError):
        kcbs_observables(5)[0, 0, 0] = 0.5
    with pytest.raises(InvalidCycle):
        kcbs_vectors(4)


@pytest.mark.parametrize("n", [5, 7, 21, 1001])
def test_cycle_stacks_match_a_per_row_formula_to_the_bit(n):
    c = math.cos(math.pi / n)
    vecs, mats = [], []
    for j in range(n):
        # a_j = j (n - 1) pi / n reduced to (j mod 2) pi - x, x = j pi / n: no integer product.
        x, sign = j * math.pi / n, (-1.0) ** j
        v = np.array([sign * math.cos(x), 0.0 - sign * math.sin(x), math.sqrt(c)])
        v = v / math.sqrt(1 + c)
        vecs.append(v)
        mats.append((-1) ** j * (2.0 * np.outer(v, v) - np.eye(3)))
    for stack, reference in ((kcbs_vectors(n), np.array(vecs)),
                             (kcbs_observables(n), np.array(mats, dtype=complex))):
        assert stack.dtype == reference.dtype and stack.shape == reference.shape
        assert np.array_equal(stack, reference)
        # array_equal takes -0.0 for 0.0; the sign of each zero must match too.
        assert np.array_equal(np.signbit(stack.real), np.signbit(reference.real))
        assert np.array_equal(np.signbit(stack.imag), np.signbit(reference.imag))


@pytest.mark.parametrize("sizes", [range(5, 400, 2), [1001, 20001, 200001]])
def test_cycle_rows_built_by_index_equal_the_whole_cycle_to_the_bit(sizes):
    # Any set of rows, in any order and with repeats, reads as those rows of the whole cycle.
    rng = np.random.default_rng(37)
    for n in sizes:
        rows = np.concatenate([rng.permutation(n)[:500], [0, n - 1, 0]])
        whole = kcbs_vectors(n)
        assert kcbs_vectors(n, rows).tobytes() == whole[rows].tobytes()
        if n <= 20001:
            assert kcbs_observables(n, rows).tobytes() == kcbs_observables(n)[rows].tobytes()
    assert kcbs_vectors(7, []).shape == (0, 3)
    for rows in ([7], [-1], [0, 7]):
        with pytest.raises(IndexOutOfRange):
            kcbs_observables(7, rows)


@pytest.mark.parametrize("sizes", [range(5, 102, 2), [999, 1001, 1999, 2001]])
def test_whole_cycles_match_the_exact_angles_to_1e_15(sizes):
    for n in sizes:
        assert worst_error(kcbs_vectors(n), exact_cycle_rows(n, range(n))) <= 1e-15, n


@pytest.mark.parametrize("n", [10**6 + 1, 10**8 + 1, 3037000501, 3 * 10**9 + 1, 10**12 + 1,
                               10**18 + 1, 10**30 + 1,
                               pytest.param(int(sys.float_info.max) - 1, id="largest-odd")])
def test_chosen_rows_of_huge_cycles_match_the_exact_angles_to_1e_15(n):
    # Each row's x = j pi / n is formed from j as a float, with j pi and n both quartered, so
    # no size in float range overflows: j pi alone is inf for the last rows of the largest size.
    rows = [0, 1, 2, n // 2, n - 2, n - 1]
    assert worst_error(kcbs_vectors(n, rows), exact_cycle_rows(n, rows)) <= 1e-15
    assert kcbs_pair(n, n - 2).label == f"B_{n - 2} B_{n - 1}"


@pytest.mark.parametrize("sizes", [range(5, 400, 2), [1001, 20001]])
def test_kcbs_pair_equals_the_whole_cycle_product_to_the_bit(sizes):
    # Built from its two rows alone, each pair is the product of the whole stack's rows.
    for n in sizes:
        cycle = kcbs_observables(n)
        for j in range(n):
            assert kcbs_pair(n, j).matrix.tobytes() == (cycle[j] @ cycle[(j + 1) % n]).tobytes()


def test_kcbs_observables_build_the_geometry_once(monkeypatch):
    calls = []
    geometry = observables.cycle_geometry
    monkeypatch.setattr(observables, "cycle_geometry", lambda n: calls.append(n) or geometry(n))
    kcbs_observables(21)
    assert calls == [21]


@pytest.mark.parametrize("n", [5, 7, 9])
def test_kcbs_vectors_are_unit_and_adjacent_orthogonal(n):
    vecs = kcbs_vectors(n)
    for j in range(n):
        assert np.linalg.norm(vecs[j]) == pytest.approx(1.0, abs=1e-12)
        # Wraparound pair included: same inner-product cancellation applies.
        assert abs(vecs[j] @ vecs[(j + 1) % n]) <= 1e-12


@pytest.mark.parametrize("n", [5, 7])
def test_kcbs_observables_square_to_identity_and_commute(n):
    mats = kcbs_observables(n)
    for j in range(n):
        assert np.max(np.abs(mats[j] @ mats[j] - np.eye(3))) <= 1e-12
        nxt = mats[(j + 1) % n]
        assert np.max(np.abs(mats[j] @ nxt - nxt @ mats[j])) <= 1e-12


@pytest.mark.parametrize("n", [5, 7, 9])
def test_b0_closed_form_matches_constructor(n):
    assert np.max(np.abs(b0_closed_form(n).matrix - kcbs_observables(n)[0])) <= 1e-12


def test_b0_closed_form_entries():
    b0 = b0_closed_form(5).matrix
    c = math.cos(math.pi / 5)
    assert b0[0, 0] == pytest.approx((1 - c) / (1 + c), abs=1e-15)
    assert b0[0, 0].real == pytest.approx(0.105573, abs=1e-6)
    assert b0[0, 2].real == pytest.approx(0.994412, abs=1e-6)
    assert np.max(np.abs(b0 @ b0 - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("n", [5, 7, 9])
def test_bm_bm1_matches_product_of_constructors(n):
    m = (n - 1) // 2
    product = kcbs_observables(n)[m] @ kcbs_observables(n)[m + 1]
    assert np.max(np.abs(bm_bm1_closed_form(n).matrix - product)) <= 1e-12


def test_bm_bm1_entries_and_involution():
    mat = bm_bm1_closed_form(5).matrix
    c, s2 = math.cos(math.pi / 5), math.sin(math.pi / 10)
    assert mat[0, 0].real == pytest.approx((1 - 3 * c) / (1 + c), abs=1e-15)
    assert mat[0, 0].real == pytest.approx(-0.788854, abs=1e-6)
    assert mat[0, 2].real == pytest.approx(4 * s2 * math.sqrt(c) / (1 + c), abs=1e-15)
    assert mat[0, 2].real == pytest.approx(0.614578, abs=5e-6)
    assert np.max(np.abs(mat @ mat - np.eye(3))) <= 1e-10


def test_kcbs_pair_wraps_and_checks_range():
    pair = kcbs_pair(5, 4)
    product = kcbs_observables(5)[4] @ kcbs_observables(5)[0]
    assert np.max(np.abs(pair.matrix - product)) <= 1e-12
    assert pair.label == "B_4 B_0"
    for j in (5, -1):
        with pytest.raises(IndexOutOfRange):
            kcbs_pair(5, j)


def _exact_products(n, factors):
    """The product of each tuple of cycle rows' B_j at the exact angles, as 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    products = []
    with mpmath.workdps(40):
        for rows in factors:
            product = mpmath.eye(3)
            for j, row in zip(rows, exact_cycle_rows(n, rows)):
                vector = mpmath.matrix(row)
                product = product * ((-1) ** j * (2 * vector * vector.T - mpmath.eye(3)))
            products.append(product.tolist())
    return products


@pytest.mark.parametrize("n, start, stop", [
    (10**15 + 1, 10**15 - 4, 10**15 + 1),  # the last pairs, the wraparound pair included
    (10**30 + 1, 0, 100),  # the first block of pairs of a cycle beyond int64
])
def test_kcbs_pairs_of_a_huge_cycle_match_the_exact_cycle(n, start, stop):
    exact = _exact_products(n, [(j, (j + 1) % n) for j in range(start, stop)])
    assert worst_error(observables.kcbs_pairs(n, start, stop), exact) <= 2e-15
    # The CHSH factors B_m B_{m+1} and B_0 beside them, from their closed forms.
    m = (n - 1) // 2
    closed = [bm_bm1_closed_form(n).matrix, b0_closed_form(n).matrix]
    assert worst_error(closed, _exact_products(n, [(m, m + 1), (0,)])) <= 2e-15


def test_alice_rotation_limits_and_involution():
    assert np.allclose(alice_rotation(0.0).matrix, np.diag([1.0, -1.0]), atol=0)
    assert np.allclose(alice_rotation(math.pi / 2).matrix, np.array([[0, 1], [1, 0]]), atol=1e-15)
    for omega in (0.3, 1.1, 2.9):
        mat = alice_rotation(omega).matrix
        assert np.max(np.abs(mat @ mat - np.eye(2))) <= 1e-12


def test_s_operator_diagonal_values():
    mat = s_operator(5)
    assert mat.shape == (3, 3) and mat.dtype == complex
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0
    assert np.allclose(np.diag(mat), [0.527864, 0.527864, 3.944272], atol=1e-6)
    c = cycle_geometry(5).c
    assert np.trace(mat).real == pytest.approx(5 * (2 * (1 - c) + 3 * c - 1) / (1 + c), abs=1e-12)


@pytest.mark.parametrize("n", ODD_CYCLES)
def test_cycle_operator_identity(n):
    # Assemble the cyclic sum from the observable constructors and compare
    # against both the diagonal closed form and 4 * sum(P_j) - n I.
    assembled = sum(kcbs_pair(n, j).matrix for j in range(n - 1)) - kcbs_pair(n, n - 1).matrix
    diag = s_operator(n)
    assert np.max(np.abs(assembled - diag)) <= 1e-10
    projectors = sum(np.outer(v, v) for v in kcbs_vectors(n))
    assert np.max(np.abs(4 * projectors - n * np.eye(3) - diag)) <= 1e-10


@pytest.mark.parametrize("n", [5, 7, 9])
def test_cycle_family_eigenvalues_are_unimodular(n):
    # Hermitian + involution forces the spectrum into {-1, +1}.
    mats = list(kcbs_observables(n))
    mats += [b0_closed_form(n).matrix, bm_bm1_closed_form(n).matrix]
    for mat in mats:
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert np.max(np.abs(mat @ mat - np.eye(3))) <= 1e-10
        eigenvalues = np.linalg.eigvalsh(mat)
        assert np.max(np.abs(np.abs(eigenvalues) - 1.0)) <= 1e-10
