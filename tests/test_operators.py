"""Gate matrices, Kronecker embedding, Pauli expectations."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary, random_density
from oracles import density_violation, embed_gate, pauli_string_matrix
from qptkit.backend import _check_readout
from qptkit.operators import (
    GATES,
    _certified,
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
    with pytest.raises(ValueError, match="square matrix"):
        check_density_matrix(np.ones(4))
    # a stack names its first bad matrix by its index in the flattened stack
    good = np.eye(2, dtype=complex) / 2
    stack = np.array([[good, good], [good, np.diag([1.5, -0.5])]])
    with pytest.raises(ValueError, match="^matrix 3: density matrix has negative eigenvalue"):
        check_density_matrix(stack)
    check_density_matrix(stack[:, :1])
    check_density_matrix(np.empty((0, 4, 4)))


ATOL = 1e-9
MATRIX_KINDS = ("mixed", "just_inside", "just_outside", "nan", "non_hermitian", "trace_off",
                "herm_inside", "herm_outside", "inf_one_sided", "inf_paired", "nan_diagonal")


def _matrix_of_kind(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    """A d x d test matrix; the edge kinds put the smallest eigenvalue at
    -atol * (1 -+ 1e-2), just inside and just outside the PSD tolerance, or
    add to one entry a Hermiticity deviation with equal real and imaginary
    parts and modulus atol * (1 -+ 1e-2), inside the tolerance but outside the
    certificate's atol/2 per part, and just outside the tolerance."""
    if kind in ("just_inside", "just_outside"):
        lowest = -ATOL * (1 - 1e-2 if kind == "just_inside" else 1 + 1e-2)
        vals = rng.uniform(0.1, 1.0, d)
        vals[1:] *= (1.0 - lowest) / vals[1:].sum()
        vals[0] = lowest
        u = haar_unitary(rng, d)
        rho = (u * vals) @ u.conj().T
        return (rho + rho.conj().T) / 2.0
    rho = random_density(rng, d)
    if kind == "nan":
        rho[rng.integers(d), rng.integers(d)] = np.nan
    elif kind == "nan_diagonal":
        i = rng.integers(d)
        rho[i, i] = np.nan
    elif kind == "inf_one_sided":
        rho[0, d - 1] = np.inf
    elif kind == "inf_paired":
        rho[0, d - 1] = rho[d - 1, 0] = np.inf
    elif kind in ("herm_inside", "herm_outside"):
        modulus = ATOL * (1 - 1e-2 if kind == "herm_inside" else 1 + 1e-2)
        rho[0, d - 1] += modulus / np.sqrt(2.0) * (1 + 1j)
    elif kind == "non_hermitian":
        rho[0, d - 1] += 1e-6
    elif kind == "trace_off":
        rho *= 1.0 + 1e-6
    return rho


@given(st.sampled_from([2, 4, 32]), st.lists(st.sampled_from(MATRIX_KINDS), max_size=5),
       st.sampled_from(["single", "stack", "long"]), st.integers(0, 2**32 - 1))
@example(32, [], "stack", 0)
@example(32, [], "long", 0)
@example(4, ["herm_inside", "herm_outside"], "stack", 1)
@example(32, ["herm_inside"], "single", 2)
@example(2, ["mixed", "inf_one_sided"], "stack", 3)
@example(32, ["inf_paired", "nan"], "long", 4)
@example(4, ["just_inside", "nan_diagonal"], "long", 5)
@example(2, ["herm_outside", "just_outside"], "long", 6)
@settings(max_examples=120, deadline=None)
def test_stacked_check_matches_eigvalsh_oracle(d, kinds, layout, seed):
    rng = np.random.default_rng(seed)
    mats = [_matrix_of_kind(rng, d, kind) for kind in (kinds[:1] or ["mixed"]
                                                       if layout == "single" else kinds)]
    if layout == "long":
        # the drawn kinds among valid states, a stack of more than 64 KiB
        filler = random_density(rng, d)
        drawn, mats = mats, [filler] * ((1 << 12) // (d * d) + 1)
        for m in drawn:
            mats.insert(int(rng.integers(len(mats) + 1)), m)
    want = next(((i, msg) for i, msg in enumerate(map(density_violation, mats)) if msg), None)
    rho = mats[0] if layout == "single" else np.array(mats, dtype=complex).reshape(-1, d, d)
    # the readout test passes only stacks whose every matrix the oracle finds
    # finite, Hermitian and unit-trace: it does not test positivity
    if _certified(rho.reshape(-1, d, d), ATOL):
        assert all(message is None or message.startswith("density matrix has negative eigenvalue")
                   for message in map(density_violation, rho.reshape(-1, d, d)))
    if want is None:
        check_density_matrix(rho, atol=ATOL)
        return
    index, message = want
    with pytest.raises(ValueError) as info:
        check_density_matrix(rho, atol=ATOL)
    assert str(info.value) == (message if layout == "single" else f"matrix {index}: {message}")


@pytest.mark.parametrize("d", [2, 4, 32])
def test_mirrored_infinite_entries_are_rejected_without_a_warning(d):
    # inf - inf is the Hermiticity deviation of such a pair: a NaN, and
    # numpy's invalid-value warning unless the checks silence it
    rho = _matrix_of_kind(np.random.default_rng(d), d, "inf_paired")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _certified(rho[None], ATOL)
        with pytest.raises(ValueError, match="^density matrix contains non-finite entries$"):
            check_density_matrix(rho, atol=ATOL)
        with pytest.raises(ValueError, match="^matrix 0: density matrix contains non-finite "
                                             "entries$"):
            _check_readout(rho[None])
        # one state, as execute_many tests each circuit's
        with pytest.raises(ValueError, match="^density matrix contains non-finite entries$"):
            _check_readout(rho)


@pytest.mark.parametrize("d", [2, 4, 32])
def test_psd_edge_verdicts(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        check_density_matrix(_matrix_of_kind(rng, d, "just_inside"), atol=ATOL)
        with pytest.raises(ValueError, match="negative eigenvalue -1.01"):
            check_density_matrix(_matrix_of_kind(rng, d, "just_outside"), atol=ATOL)
