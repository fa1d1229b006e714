"""Gate matrices, Kronecker embedding, Pauli expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from oracles import embed_gate, pauli_string_matrix
from qptkit.operators import (
    GATES,
    check_density_matrix,
    dagger,
    kron,
    standard_gate,
)

RT2 = 1.0 / np.sqrt(2.0)


def test_all_gates_unitary():
    for name, u in GATES.items():
        assert np.abs(dagger(u) @ u - np.eye(u.shape[0])).max() < 1e-12, name


def test_gate_conventions():
    assert np.allclose(standard_gate("h"), [[RT2, RT2], [RT2, -RT2]])
    assert np.allclose(standard_gate("s"), [[1, 0], [0, 1j]])
    assert np.allclose(standard_gate("t") @ standard_gate("t"), standard_gate("s"))
    assert np.allclose(standard_gate("tdg"), dagger(standard_gate("t")))
    # control-first: |10> <-> |11| swap, |00> and |01> fixed
    cx = standard_gate("cx")
    expected = np.eye(4)[:, [0, 1, 3, 2]]
    assert np.array_equal(cx, expected)


def test_standard_gate_unknown():
    with pytest.raises(ValueError, match="unknown gate"):
        standard_gate("rx")


def test_dagger_examples():
    assert np.array_equal(dagger(standard_gate("s")), standard_gate("sdg"))
    assert np.array_equal(dagger(standard_gate("h")), standard_gate("h"))


def test_kron_x_z_entries():
    xz = kron(standard_gate("x"), standard_gate("z"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = -1
    expected[2, 0] = 1
    expected[3, 1] = -1
    assert np.array_equal(xz, expected)


def test_kron_against_definition():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    got = kron(a, b)
    # vectorised complex products may fuse differently than the scalar path,
    # so allow a couple of ulps
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for ell in range(3):
                    assert abs(got[3 * i + k, 3 * j + ell] - a[i, j] * b[k, ell]) < 1e-15


def test_kron_order_matters():
    ix = kron(standard_gate("id"), standard_gate("x"))
    xi = kron(standard_gate("x"), standard_gate("id"))
    assert not np.array_equal(ix, xi)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_kron_associative_exact_on_integers(seed):
    rng = np.random.default_rng(seed)
    mats = [
        rng.integers(-3, 4, size=(2, 2)) + 1j * rng.integers(-3, 4, size=(2, 2))
        for _ in range(3)
    ]
    a, b, c = (m.astype(complex) for m in mats)
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_kron_associative_float(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.abs(left - right).max() < 1e-15 * max(1.0, np.abs(left).max())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_dagger_involution(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(dagger(dagger(a)), a)


def test_embed_single_qubit_positions():
    x = standard_gate("x")
    assert np.array_equal(embed_gate(x, [0], 2), kron(standard_gate("id"), x))
    assert np.array_equal(embed_gate(x, [1], 2), kron(x, standard_gate("id")))


def test_embed_cx_control_on_q1():
    # targets listed most-significant first: control q1, target q0
    u = embed_gate(standard_gate("cx"), [1, 0], 2)
    assert np.array_equal(u, standard_gate("cx"))
    ket = np.zeros(4)
    ket[0b10] = 1.0
    assert np.argmax(np.abs(u @ ket)) == 0b11


def test_embed_cx_control_on_q0():
    u = embed_gate(standard_gate("cx"), [0, 1], 2)
    # control q0: swaps |01> (index 1) and |11> (index 3)
    expected = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.array_equal(u, expected)


def test_embed_basis_action_oracle():
    # independent oracle: act on every basis ket with bit arithmetic
    u = embed_gate(standard_gate("cx"), [3, 1], 5)
    for idx in range(32):
        control = (idx >> 3) & 1
        out = idx ^ (control << 1)
        col = u[:, idx]
        assert col[out] == 1.0
        assert np.count_nonzero(col) == 1


def test_embed_errors():
    x = standard_gate("x")
    with pytest.raises(ValueError, match="duplicate"):
        embed_gate(standard_gate("cx"), [1, 1], 3)
    with pytest.raises(ValueError, match="out of range"):
        embed_gate(x, [5], 5)
    with pytest.raises(ValueError, match="does not match"):
        embed_gate(x, [0, 1], 3)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_embed_preserves_unitarity(seed, n):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(n, 2) + 1))
    targets = list(rng.choice(n, size=k, replace=False))
    u = haar_unitary(rng, 1 << k)
    full = embed_gate(u, targets, n)
    assert np.abs(full.conj().T @ full - np.eye(1 << n)).max() < 1e-12


def test_pauli_string_matrix():
    assert np.array_equal(pauli_string_matrix("ZX"),
                          kron(standard_gate("z"), standard_gate("x")))
    with pytest.raises(ValueError, match="invalid Pauli letter"):
        pauli_string_matrix("ZQ")


def test_check_density_matrix_rejections():
    check_density_matrix(np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="power of two"):
        check_density_matrix(np.eye(3, dtype=complex) / 3)
