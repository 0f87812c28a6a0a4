"""Tests for the dense linear algebra layer."""

import math
import re

import numpy as np
import pytest

from chsh_kcbs import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotUnitary,
    Observable,
    expectation,
    hermiticity_check,
    tensor,
    unitarity_check,
)
from chsh_kcbs import linalg
from chsh_kcbs.analytic import chsh_value, decompose, kcbs_value, psi_n_state, state1
from chsh_kcbs.circuits import controlled_power, prepare_state1, run_circuit, run_hybrid_tests
from chsh_kcbs.observables import alice_rotation, b0_closed_form, s_operator


def kron_oracle(a, b):
    """Elementwise Kronecker product, independent of numpy's kron."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for entry_l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + entry_l] = a[i, j] * b[k, entry_l]
    return out


def random_state(rng, dim=6):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)


def test_tensor_identity_blocks():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))
    left = np.diag([1.0, -1.0])
    assert np.allclose(tensor(left, np.eye(3)), np.diag([1, 1, 1, -1, -1, -1]), atol=0)


def test_tensor_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(tensor(a, b), kron_oracle(a, b), rtol=1e-13, atol=1e-15)


def test_tensor_rotation_with_cycle_observable():
    # (0, 0) entry of R(0) (x) B_0 at n = 5 is (1 - c)/(1 + c).
    product = tensor(alice_rotation(0.0).matrix, b0_closed_form(5).matrix)
    c = math.cos(math.pi / 5)
    assert product[0, 0] == pytest.approx((1 - c) / (1 + c), abs=1e-15)
    assert product[0, 0].real == pytest.approx(0.105573, abs=1e-6)
    oracle = kron_oracle(alice_rotation(0.0).matrix, b0_closed_form(5).matrix)
    assert np.allclose(product, oracle, rtol=0, atol=1e-15)


def test_tensor_associativity_under_regrouping():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12)


def test_tensor_is_bilinear():
    rng = np.random.default_rng(13)
    a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    alpha, beta = 1.7, -0.4
    left = tensor(alpha * a1 + beta * a2, b)
    right = alpha * tensor(a1, b) + beta * tensor(a2, b)
    assert np.allclose(left, right, atol=1e-12)
    assert np.allclose(tensor(b, alpha * a1), alpha * tensor(b, a1), atol=1e-12)


def test_expectation_normalization_and_cycle_eigenvalues():
    rng = np.random.default_rng(3)
    psi = random_state(rng)
    assert expectation(psi, np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    op = tensor(np.eye(2), s_operator(5))
    ket12 = np.zeros(6, dtype=complex)
    ket12[5] = 1.0
    ket00 = np.zeros(6, dtype=complex)
    ket00[0] = 1.0
    # Direct matrix-vector oracle: the eigenvalues are 4 sqrt(5) - 5 and 5 - 2 sqrt(5).
    assert expectation(ket12, op) == pytest.approx(4 * math.sqrt(5) - 5, abs=1e-12)
    assert expectation(ket12, op) == pytest.approx(3.944272, abs=1e-6)
    assert expectation(ket00, op) == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert expectation(ket00, op) == pytest.approx(0.527864, abs=1e-6)


def test_expectation_accepts_read_only_arrays_and_lists():
    state = np.array([1, 0, 0, 0, 0, 0], dtype=complex)
    state.setflags(write=False)
    op = tensor(np.eye(2), s_operator(5))
    op.setflags(write=False)
    assert expectation(state, op) == pytest.approx(5 - 2 * math.sqrt(5), abs=1e-12)
    assert expectation([0, 0, 0, 0, 0, 1], tensor(np.eye(2), s_operator(5))) > 3.9


def test_expectation_of_an_unnormalized_vector_raises():
    op = tensor(np.eye(2), s_operator(5))
    with pytest.raises(NotNormalized, match="is not 1 within 1e-09"):
        expectation([2, 0, 0, 0, 0, 0], op)
    with pytest.raises(NotNormalized):
        expectation(np.zeros(6), op)
    with pytest.raises(NotNormalized):
        expectation([1 + 2e-9, 0, 0, 0, 0, 0], op)
    assert expectation([1 + 4e-10, 0, 0, 0, 0, 0], np.eye(6)) == pytest.approx(1.0, abs=1e-9)


def test_one_state_readers_refuse_a_stack_before_any_other_check():
    # prepare_state1 returns a one-row (1, 6) stack, not one state.
    stack = prepare_state1(1.0, 0.3)
    assert stack.shape == (1, 6)
    skew = np.triu(np.ones((6, 6)))
    for psi in (stack, 2 * stack, np.vstack([stack, stack])):
        shape = str(np.shape(psi))
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            expectation(psi, np.eye(6))
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            expectation(psi, skew)
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            kcbs_value(psi, 5)
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            kcbs_value(psi, 4)
        with pytest.raises(DimensionMismatch, match=re.escape(f"chsh_value reads one state "
                                                              f"vector, got shape {shape}")):
            chsh_value(psi, 4, 0.1, 0.2)
    # The same row as one state reads through.
    assert expectation(stack[0], np.eye(6)) == pytest.approx(1.0, abs=1e-12)
    assert kcbs_value(stack[0], 5).p2 == decompose(stack, 5).p2[0]
    assert isinstance(chsh_value(stack[0], 5, 0.1, 0.2), float)


def test_state_vector_reads_one_state_or_a_stack_and_nothing_else():
    # A (1, 1, 6) array is neither one state nor a stack of states, in any reader.
    nested = prepare_state1(1.0, 0.3)[None]
    for reader in (lambda psi: linalg.state_vector(psi, dim=6), lambda psi: decompose(psi, 5)):
        with pytest.raises(DimensionMismatch, match=re.escape("got shape (1, 1, 6)")):
            reader(nested)
    with pytest.raises(DimensionMismatch, match=re.escape("got shape ()")):
        linalg.state_vector(1.0, dim=1)
    assert linalg.state_vector(nested[0], dim=6).shape == (1, 6)


@pytest.mark.parametrize("shape", [(1, 2, 2), (2, 2, 2), (2, 3), (2,)])
def test_an_observable_is_one_square_matrix(shape):
    # Only one square matrix is an observable: not a stack of Hermitian
    # matrices, even a one-entry one, nor a non-square array.
    with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
        Observable(np.broadcast_to(np.eye(2), shape) if len(shape) == 3 else np.ones(shape), "I")


def test_every_operator_error_keeps_its_text():
    # Each raising operator check names its operator, a stack's first failing
    # entry and the tolerance, in these exact words.
    skew, halved = np.triu(np.ones((2, 2))), np.diag([1.0, 0.5])
    psi = np.array([1.0, 0.0], dtype=complex)
    states, bob = prepare_state1([0.3, 1.2], [0.0, 0.5]), np.array([np.eye(3)] * 3)
    alice = np.array([[np.eye(2), skew, np.eye(2)]] * 2)
    cases = [
        (NotHermitian, "observable 'T' is not Hermitian within 1e-12",
         lambda: Observable(skew, "T")),
        (NotHermitian, "operator is not Hermitian within 1e-12", lambda: expectation(psi, skew)),
        (NotUnitary, "gate 'R' entry 1 is not unitary within 1e-10",
         lambda: run_circuit(("alice",), [("R", np.array([np.eye(3), 2 * np.eye(3)]), 0)])),
        (NotUnitary, "gate 'X' is not unitary within 1e-10",
         lambda: run_circuit(("alice",), [("X", np.ones((3, 3)), 0)])),
        (NotUnitary, "controlled gate is not unitary within 1e-10",
         lambda: controlled_power(np.ones((3, 3)))),
        (NotHermitian, "Alice factor entry 1 is not Hermitian within 1e-10",
         lambda: run_hybrid_tests(states, alice, bob)),
        (NotUnitary, "Alice factor entry 0 is not unitary within 1e-10",
         lambda: run_hybrid_tests(states, halved[None, None], bob)),
        (NotHermitian, "Bob factor entry 2 is not Hermitian within 1e-10",
         lambda: run_hybrid_tests(states, np.eye(2)[None, None],
                                  np.array([np.eye(3), np.eye(3), np.triu(np.ones((3, 3)))]))),
        (NotUnitary, "Bob factor entry 1 is not unitary within 1e-10",
         lambda: run_hybrid_tests(states, np.eye(2)[None, None],
                                  np.array([np.eye(3), np.diag([1.0, 1.0, 0.5]), np.eye(3)]))),
    ]
    for error, text, call in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == text


def test_expectation_is_linear():
    rng = np.random.default_rng(5)
    psi = random_state(rng, dim=3)
    herm = []
    for _ in range(2):
        raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm.append(raw + raw.conj().T)
    alpha, beta = 0.7, -2.3
    combined = expectation(psi, alpha * herm[0] + beta * herm[1])
    split = alpha * expectation(psi, herm[0]) + beta * expectation(psi, herm[1])
    assert combined == pytest.approx(split, abs=1e-12)


def test_involution_expectation_is_bounded():
    rng = np.random.default_rng(9)
    for _ in range(25):
        v = random_state(rng, dim=6)
        reflection = 2 * np.outer(v, v.conj()) - np.eye(6)
        value = expectation(random_state(rng, dim=6), reflection)
        assert -1 - 1e-12 <= value <= 1 + 1e-12


def test_expectation_errors():
    psi = np.zeros(6, dtype=complex)
    psi[0] = 1.0
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        expectation(psi, skew)
    with pytest.raises(DimensionMismatch):
        expectation(psi, np.eye(3))
    with pytest.raises(DimensionMismatch):
        expectation(psi, np.ones((2, 3)))


def test_hermiticity_and_unitarity_checks():
    assert hermiticity_check(np.eye(3), 1e-12)
    assert unitarity_check(np.eye(3), 1e-12)
    # The antisymmetric Gell-Mann generator is Hermitian but has a zero row.
    pauli_like = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert hermiticity_check(pauli_like, 1e-12)
    assert not unitarity_check(pauli_like, 1e-12)
    b0 = b0_closed_form(5).matrix
    assert hermiticity_check(b0, 1e-12)
    assert unitarity_check(b0, 1e-12)
    assert not hermiticity_check(np.ones((2, 3)), 1e-12)
    # Every caller names its tolerance; neither check has a default.
    for check in (hermiticity_check, unitarity_check):
        with pytest.raises(TypeError):
            check(np.eye(3))


def test_checks_run_per_entry_over_a_stack():
    b0 = b0_closed_form(5).matrix
    stack = np.array([np.eye(3), b0, np.diag([1.0, 0.0, 1.0]), np.triu(np.ones((3, 3)))])
    assert hermiticity_check(stack, 1e-12).tolist() == [True, True, True, False]
    assert unitarity_check(stack, 1e-12).tolist() == [True, True, False, False]
    # Every entry gets the same verdict as when checked alone.
    nested = stack.reshape(2, 2, 3, 3)
    assert hermiticity_check(nested, 1e-12).tolist() == [[True, True], [True, False]]
    assert [unitarity_check(m, 1e-12) for m in stack] == unitarity_check(stack, 1e-12).tolist()
    # A stack of non-square matrices fails entry by entry.
    assert hermiticity_check(np.ones((4, 2, 3)), 1e-12).tolist() == [False] * 4
    assert unitarity_check(np.ones((4, 2, 3)), 1e-12).tolist() == [False] * 4


def test_expectation_checks_every_matrix(monkeypatch):
    # A built operator, read-only or copied, is checked by the reader each time it is read.
    psi = np.zeros(3, dtype=complex)
    psi[2] = 1.0
    op = s_operator(5)
    checked = []
    monkeypatch.setattr(linalg, "hermiticity_check", lambda m, tol: checked.append(m) or True)
    assert expectation(psi, op) == op[2, 2].real
    assert expectation(psi, np.array(op)) == op[2, 2].real
    assert len(checked) == 2
    assert all(np.array_equal(m, op) for m in checked)


@pytest.mark.parametrize("state", [state1(math.pi, 0.0), state1(1.1, 0.4), psi_n_state(7, 1)])
def test_built_states_are_read_only_complex_vectors(state):
    assert state.shape == (6,)
    assert state.dtype == complex
    with pytest.raises(ValueError):
        state[0] = 0.5
    assert np.count_nonzero(state[1:5]) == 0


def test_state_readers_check_what_they_read():
    amps = np.zeros(6, dtype=complex)
    amps[0] = 1.0
    # cos(pi/2) leaves 6.1e-17 on |12>, so p2 is about 3.7e-33.
    assert decompose(state1(math.pi, 0.0), 5).p2 == pytest.approx(0.0, abs=1e-30)
    assert decompose(amps, 5).p2 == 0.0
    for reader in (lambda psi: decompose(psi, 5), lambda psi: kcbs_value(psi, 5),
                   lambda psi: linalg.state_vector(psi, dim=6)):
        with pytest.raises(NotNormalized):
            reader(2 * amps)
        with pytest.raises(DimensionMismatch):
            reader(np.ones(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
def test_non_finite_amplitudes_are_not_normalized(bad):
    # A NaN norm compares False against any tolerance, so the checks must reject it.
    amps = np.zeros(6, dtype=complex)
    amps[0] = bad
    with pytest.raises(NotNormalized):
        linalg.state_vector(amps, dim=6)
    with pytest.raises(NotNormalized):
        expectation(amps, np.eye(6))
    with pytest.raises(NotNormalized):
        state1(0.5, bad.real)


def test_state_p2():
    amps = np.zeros(6, dtype=complex)
    amps[2] = math.sqrt(0.25)
    amps[5] = math.sqrt(0.35)
    amps[0] = math.sqrt(0.40)
    # kcbs_value sums its own weights on level 2, so it and the decomposition must agree.
    assert decompose(amps, 5).p2 == pytest.approx(0.6, abs=1e-12)
    assert kcbs_value(amps, 5).p2 == decompose(amps, 5).p2
