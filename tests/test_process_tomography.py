"""Operator sets, the closed-form chi inversion, chi matrices, QPT pipelines."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qptkit import (
    ChiMatrix,
    KrausChannel,
    TopologyError,
    chi_from_outputs,
    process_fidelity,
    qpt_channel,
    run_qpt,
    theoretical_chi,
)
from qptkit import backend as backend_module
from qptkit import channels
from qptkit.channels import amplitude_damping, apply_channel
from qptkit.operators import standard_gate
from qptkit.process_tomography import (
    _CHOI_MAPS,
    _OPERATORS,
    _PREP_LABELS,
    _PREP_STACKS,
    OPERATOR_LABELS,
    _chi_from_preparations,
    _recipe_table,
    preparation_circuit,
    project_result,
    tp_deviation,
)
from qptkit.qasm import Gate

from conftest import haar_unitary, random_density
from oracles import (
    beta_tensor,
    chi_to_channel,
    combine_by_label,
    matrix_unit_basis,
    per_label_channel_chi,
    per_label_qpt,
    per_output_chi,
    preparation_recipes,
    preparation_state,
    unitary_as_channel,
)

MINUS_IY = np.array([[0.0, -1.0], [1.0, 0.0]])


def _gram(ops):
    return np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])


# --- fixed operator set & input basis ------------------------------------------


def test_single_qubit_operator_set():
    ops = _OPERATORS[1]
    assert OPERATOR_LABELS[1] == ("I", "X", "-iY", "Z")
    assert np.array_equal(ops[0], np.eye(2))
    assert np.array_equal(ops[1], [[0, 1], [1, 0]])
    assert np.array_equal(ops[2], MINUS_IY)
    assert np.array_equal(ops[3], np.diag([1, -1]))


def test_two_qubit_operator_set():
    ops = _OPERATORS[2]
    assert OPERATOR_LABELS[2] == (
        "II", "IX", "-iIY", "IZ", "XI", "XX", "-iXY", "XZ",
        "-iYI", "-iYX", "-YY", "-iYZ", "ZI", "ZX", "-iZY", "ZZ")
    one = _OPERATORS[1]
    for m, op in enumerate(ops):
        assert np.array_equal(op, np.kron(one[m // 4], one[m % 4]))  # first factor slowest
    assert np.array_equal(ops[10], np.kron(MINUS_IY, MINUS_IY))
    assert np.abs(ops.imag).max() == 0.0  # the -i prefactors keep everything real


def test_operator_set_must_be_complete_and_orthogonal():
    # the closed-form inversion relies on Tr(E_m^dagger E_n) = d delta_mn and
    # W^dagger W = d I, which nothing checks at run time
    for n in (1, 2):
        d = 1 << n
        ops, w = _OPERATORS[n], _CHOI_MAPS[n]
        assert ops.shape == (d * d, d, d) and ops.dtype == complex
        assert len(OPERATOR_LABELS[n]) == d * d == len(set(OPERATOR_LABELS[n]))
        assert np.abs(_gram(ops) - d * np.eye(d * d)).max() < 1e-12
        assert np.abs(w.conj().T @ w - d * np.eye(d * d)).max() < 1e-12
        # W[(a,k),m] = E_m[k,a]
        assert np.array_equal(w.reshape(d, d, d * d), ops.transpose(2, 1, 0))
        for table in (ops, w):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1.0


def test_matrix_unit_basis():
    basis = matrix_unit_basis(1)
    assert len(basis) == 4
    assert basis[1][0, 1] == 1.0 and np.abs(basis[1]).sum() == 1.0
    two = matrix_unit_basis(2)
    assert len(two) == 16
    # element j = a*4 + b carries its single 1 at row a, column b
    assert two[9][2, 1] == 1.0 and np.abs(two[9]).sum() == 1.0
    assert not two[9].flags.writeable


# --- preparations ----------------------------------------------------------------


def test_preparation_states():
    assert np.array_equal(preparation_state("0"), np.diag([1.0, 0.0]))
    assert np.array_equal(preparation_state("1"), np.diag([0.0, 1.0]))
    assert np.abs(preparation_state("p") - 0.5).max() < 1e-15
    r = preparation_state("r")
    assert abs(r[0, 1] + 0.5j) < 1e-15 and abs(r[1, 0] - 0.5j) < 1e-15
    p0 = preparation_state("p0")
    assert p0.shape == (4, 4)
    assert abs(p0[0, 0] - 0.5) < 1e-15 and abs(p0[0, 2] - 0.5) < 1e-15
    for label in ("1", "r0"):
        with pytest.raises(ValueError, match="read-only"):
            preparation_state(label)[0, 0] = 0.0
    # only the 4 one-qubit and 16 two-qubit labels exist
    for label in ("q", "", "0q", "p0r", "000"):
        with pytest.raises(ValueError, match="bad preparation label"):
            preparation_state(label)


def test_preparation_circuits():
    c = preparation_circuit("r", (2,))
    assert c.qubit_count == 5
    assert c.instructions == (Gate("h", (2,)), Gate("s", (2,)))
    c2 = preparation_circuit("p1", (3, 2))
    assert c2.instructions == (Gate("h", (3,)), Gate("x", (2,)))
    assert preparation_circuit("0", (0,)).instructions == ()
    with pytest.raises(ValueError, match="does not match"):
        preparation_circuit("p1", (3,))


@pytest.mark.parametrize("n", [1, 2])
def test_recipes_rebuild_matrix_units(n):
    basis = matrix_unit_basis(n)
    recipes = preparation_recipes(n)
    assert len(recipes) == len(basis)
    for unit, terms in zip(basis, recipes):
        acc = sum(c * preparation_state(label) for c, label in terms)
        assert np.abs(acc - unit).max() < 1e-12


def test_single_qubit_recipe_terms():
    recipes = preparation_recipes(1)
    assert recipes[0] == ((1.0 + 0.0j, "0"),)
    assert recipes[3] == ((1.0 + 0.0j, "1"),)
    half = (1.0 + 1.0j) / 2.0
    assert recipes[1] == ((1.0 + 0.0j, "p"), (1.0j, "r"), (-half, "0"), (-half, "1"))
    # the conjugate unit uses the conjugate coefficients
    assert recipes[2] == tuple((np.conj(c), label) for c, label in recipes[1])


# --- beta and the closed-form inversion ------------------------------------------


@pytest.mark.parametrize("n, d2", [(1, 4), (2, 16)])
def test_beta_shape_and_conditioning(n, d2):
    beta = beta_tensor(n)
    assert beta.shape == (d2 * d2, d2 * d2)
    cond = np.linalg.cond(beta)
    assert cond < 10.0
    assert abs(cond - 1.0) < 1e-9  # orthogonal columns of equal norm
    # B^dagger B = d^2 I, which makes B^-1 lambda = B^dagger lambda / d^2
    assert np.abs(beta.conj().T @ beta - d2 * np.eye(d2 * d2)).max() < 1e-12


def test_beta_is_definitional():
    # beta[(j,:),(m,n)] must literally be the flattening of E_m rho_j E_n^dag.
    basis = matrix_unit_basis(1)
    ops = _OPERATORS[1]
    beta = beta_tensor(1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = rng.integers(4)
        m = rng.integers(4)
        n = rng.integers(4)
        block = ops[m] @ basis[j] @ ops[n].conj().T
        assert np.array_equal(beta[j * 4:(j + 1) * 4, m * 4 + n], block.reshape(-1))


def _with_unit_traces(outputs, d):
    """Shift entry [0, 0] of each output so that Tr eps(|a><b|) = delta_ab.

    That is the one constraint chi_from_outputs checks; the shift adds the
    map rho -> Tr(c^T rho)|0><0| with c Hermitian when the traces are, so a
    Hermitian chi stays Hermitian.
    """
    fixed = []
    for j, out in enumerate(outputs):
        out = np.array(out, dtype=complex)
        out[0, 0] += (j // d == j % d) - np.trace(out)
        fixed.append(out)
    return fixed


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_matches_beta_solve(n):
    # chi_from_outputs against the paper's chi = B^-1 lambda, Hermitised alike.
    d, d2 = 1 << n, 4**n
    beta = beta_tensor(n)
    units = matrix_unit_basis(n)

    identity = chi_from_outputs(units, n)
    assert identity.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert np.abs(identity.matrix).sum() == pytest.approx(1.0, abs=1e-14)
    assert identity.residual < 1e-14

    rng = np.random.default_rng(7 + n)
    cases = []
    for _ in range(10):
        raw = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        hermitian = chi_to_channel(ChiMatrix(n, (raw + raw.conj().T) / 2.0))
        cases.append([hermitian(e) for e in units])
    for _ in range(50):
        cases.append(list(rng.normal(size=(d2, d, d)) + 1j * rng.normal(size=(d2, d, d))))
    cases = [_with_unit_traces(outputs, d) for outputs in cases]

    # the oracle: one solve of B x = lambda per case, no trace check on this side
    lam = np.array([np.concatenate([o.reshape(-1) for o in outputs]) for outputs in cases]).T
    x = np.linalg.solve(beta, lam)
    assert np.abs(beta @ x - lam).max() < 1e-12
    for outputs, column in zip(cases, x.T):
        want = column.reshape(d2, d2)
        chi = chi_from_outputs(outputs, n)
        assert np.abs(chi.matrix - (want + want.conj().T) / 2.0).max() < 1e-12
        assert chi.residual < 1e-12


def test_chi_from_outputs_input_checks():
    outputs = list(matrix_unit_basis(1))
    chi_from_outputs(outputs, 1)  # identity channel passes
    outputs[1] = outputs[1] + 0.5 * np.eye(2)  # off-diagonal unit must stay traceless
    with pytest.raises(ValueError, match="differs from Tr"):
        chi_from_outputs(outputs, 1)
    with pytest.raises(ValueError, match="expected 4 channel outputs"):
        chi_from_outputs(outputs[:2], 1)
    with pytest.raises(ValueError, match="shape"):
        chi_from_outputs([np.eye(4)] * 4, 1)
    with pytest.raises(ValueError, match="1 or 2"):
        chi_from_outputs([np.eye(8)] * 64, 3)
    with pytest.raises(ValueError, match="output 0 has non-finite entries"):
        chi_from_outputs([np.full((2, 2), np.nan)] * 4, 1)
    outputs = list(matrix_unit_basis(1))
    outputs[2] = np.array([[0, np.inf], [0, 0]])
    with pytest.raises(ValueError, match="output 2 has non-finite entries"):
        chi_from_outputs(outputs, 1)


def _oracle_message(outputs, n):
    try:
        per_output_chi(outputs, n)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [1, 2])
def test_chi_from_outputs_matches_per_output_oracle(n):
    # the stacked check names the output and the fault the per-output loop
    # named, for stacks, lists and tuples with any mix of bad outputs
    rng = np.random.default_rng(80 + n)
    d = 1 << n
    units = np.array(matrix_unit_basis(n))
    faults = (np.nan, np.inf, -np.inf, complex(0, np.inf), 1e-7, -2e-8, 0.5j)
    for _ in range(200):
        outputs = units + 1e-3 * (rng.normal(size=units.shape) + 1j * rng.normal(size=units.shape))
        outputs[:, 0, 0] += np.eye(d).reshape(-1) - np.trace(outputs, axis1=1, axis2=2)
        for j in rng.choice(d * d, size=int(rng.integers(0, 4)), replace=False):
            a, b = rng.integers(d, size=2)
            fault = faults[rng.integers(len(faults))]
            if isinstance(fault, complex) or not np.isfinite(fault):
                outputs[j, a, b] = fault
            else:
                outputs[j, a, a] += fault
        want = _oracle_message(outputs, n)
        for form in (outputs, list(outputs), tuple(outputs)):
            if want is None:
                got = chi_from_outputs(form, n)
                assert got.matrix.tobytes() == per_output_chi(outputs, n).matrix.tobytes()
            else:
                with pytest.raises(ValueError) as info:
                    chi_from_outputs(form, n)
                assert str(info.value) == want
    # a ragged list names the first output of the wrong shape
    ragged = list(units)
    ragged[2] = np.eye(d + 1)
    ragged[3] = np.eye(d + 2)
    want = f"output 2 has shape {(d + 1, d + 1)}, expected {(d, d)}"
    assert _oracle_message(ragged, n) == want
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        chi_from_outputs(ragged, n)
    with pytest.raises(ValueError, match=r"^output 0 has shape \(\), expected"):
        chi_from_outputs([1.0] * d * d, n)


# --- theoretical chi --------------------------------------------------------------


def test_chi_theory_hadamard():
    chi = theoretical_chi("h").matrix
    expected = np.zeros((4, 4))
    for i in (1, 3):
        for j in (1, 3):
            expected[i, j] = 0.5
    assert np.abs(chi - expected).max() < 1e-12


def test_chi_theory_x_and_identity():
    x = theoretical_chi("x").matrix
    assert abs(x[1, 1] - 1.0) < 1e-12 and np.abs(x).sum() == pytest.approx(1.0)
    i = theoretical_chi("id").matrix
    assert abs(i[0, 0] - 1.0) < 1e-12 and np.abs(i).sum() == pytest.approx(1.0)


def test_chi_theory_s_gate():
    chi = theoretical_chi("s").matrix
    assert abs(chi[0, 0] - 0.5) < 1e-12
    assert abs(chi[3, 3] - 0.5) < 1e-12
    assert abs(chi[0, 3] - 0.5j) < 1e-12
    assert abs(chi[3, 0] + 0.5j) < 1e-12


def test_chi_theory_cx():
    chi = theoretical_chi("cx")
    assert chi.matrix.shape == (16, 16)
    vals = np.linalg.eigvalsh(chi.matrix)
    assert abs(np.trace(chi.matrix) - 1.0) < 1e-12
    assert abs(vals[-1] - 1.0) < 1e-12 and np.abs(vals[:-1]).max() < 1e-12
    assert tp_deviation(chi) < 1e-12


def test_chi_theory_accepts_matrices_and_checks_span():
    direct = theoretical_chi(np.array([[1, 0], [0, 1j]], dtype=complex))
    assert np.abs(direct.matrix - theoretical_chi("s").matrix).max() < 1e-12
    # the complete operator set spans every d x d matrix, so only the shape can fail
    # only the 2x2 and 4x4 unitaries of the 1- and 2-qubit operator sets
    for shape in ((3, 3), (8, 8), (1, 1), (4, 2)):
        with pytest.raises(ValueError, match=re.escape(f"unitary shape {shape} does not match")):
            theoretical_chi(np.eye(*shape, dtype=complex))


def test_theory_is_trace_preserving_for_all_gates():
    for gate in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx"):
        assert tp_deviation(theoretical_chi(gate)) < 1e-12


# --- chi as a channel, fidelity ----------------------------------------------------


def test_chi_to_channel_examples():
    apply_h = chi_to_channel(theoretical_chi("h"))
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(apply_h(np.diag([1.0, 0.0])) - plus).max() < 1e-12
    apply_x = chi_to_channel(theoretical_chi("x"))
    assert np.abs(apply_x(np.diag([1.0, 0.0])) - np.diag([0.0, 1.0])).max() < 1e-12


def _random_hermitian_chi(rng, n):
    d2 = 4**n
    g = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
    return ChiMatrix(n, (g + g.conj().T) / 2.0)


def test_chi_to_channel_matches_kraus():
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = haar_unitary(rng, 2)
        apply_u = chi_to_channel(theoretical_chi(u))
        rho = random_density(rng, 2)
        direct = u @ rho @ u.conj().T
        assert np.abs(apply_u(rho) - direct).max() < 1e-10
    # random Hermitian chi, not trace preserving, on arbitrary complex matrices,
    # against the definition sum_mn chi_mn E_m rho E_n^dagger written out
    for n in (1, 2):
        ops = _OPERATORS[n]
        d = 1 << n
        for _ in range(5):
            chi = _random_hermitian_chi(rng, n)
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            expected = sum(
                chi.matrix[m, k] * (em @ rho @ en.conj().T)
                for m, em in enumerate(ops)
                for k, en in enumerate(ops)
            )
            scale = np.abs(expected).max()
            assert np.abs(chi_to_channel(chi)(rho) - expected).max() <= 1e-12 * scale


def test_tp_deviation_flags_lossy_chi():
    half = np.zeros((4, 4), dtype=complex)
    half[0, 0] = 0.5
    assert tp_deviation(ChiMatrix(1, half)) == pytest.approx(0.5)
    # a chi has an operator set, and so a Choi matrix, only for 1 or 2 qubits
    for n in (0, 3):
        with pytest.raises(ValueError, match=f"^fixed operator sets cover 1 or 2 qubits, got {n}$"):
            ChiMatrix(n, np.eye(4**n))
    # random Hermitian chi against the definition sum_mn chi_mn E_n^dagger E_m
    rng = np.random.default_rng(22)
    for n in (1, 2):
        ops = _OPERATORS[n]
        for _ in range(5):
            chi = _random_hermitian_chi(rng, n)
            total = sum(
                chi.matrix[m, k] * (en.conj().T @ em)
                for m, em in enumerate(ops)
                for k, en in enumerate(ops)
            )
            expected = np.abs(total - np.eye(1 << n)).max()
            assert abs(tp_deviation(chi) - expected) <= 1e-12 * np.abs(total).max()


def test_process_fidelity_reference_points():
    for gate in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx"):
        chi = theoretical_chi(gate)
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(theoretical_chi("x"), theoretical_chi("id")) == pytest.approx(
        0.0, abs=1e-12
    )
    assert process_fidelity(theoretical_chi("h"), theoretical_chi("x")) == pytest.approx(
        0.5, abs=1e-12
    )


def test_process_fidelity_raw_arrays_and_errors():
    a = theoretical_chi("h")
    assert process_fidelity(a.matrix, a) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero chi"):
        process_fidelity(a, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="mismatch"):
        process_fidelity(a, theoretical_chi("cx"))
    for bad in (math.nan, math.inf):
        b = a.matrix.copy()
        b[1, 2] = bad
        for theory, experiment in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="^cannot compute fidelity of a chi matrix with "
                                                 "non-finite entries$"):
                process_fidelity(theory, experiment)


# --- channel-level tomography -------------------------------------------------------


def test_qpt_channel_identity():
    chi = qpt_channel(KrausChannel(1, (np.eye(2, dtype=complex),)))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi.matrix - expected).max() < 1e-12


def test_qpt_channel_amplitude_damping():
    t1_us = 10.0
    duration = 3000.0
    gamma = -math.expm1(-duration / (t1_us * 1e3))
    chi = qpt_channel(amplitude_damping(duration, t1_us)).matrix
    a = (1.0 + math.sqrt(1.0 - gamma)) / 2.0
    b = (1.0 - math.sqrt(1.0 - gamma)) / 2.0
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0], expected[0, 3], expected[3, 0], expected[3, 3] = a * a, a * b, a * b, b * b
    expected[1, 1] = expected[2, 2] = gamma / 4.0
    expected[1, 2] = expected[2, 1] = -gamma / 4.0
    assert np.abs(chi - expected).max() < 1e-10


def test_qpt_channel_matches_theory_for_unitaries():
    rng = np.random.default_rng(5)
    for dim in (2, 2, 4):
        u = haar_unitary(rng, dim)
        chi = qpt_channel(unitary_as_channel(u))
        assert np.abs(chi.matrix - theoretical_chi(u).matrix).max() < 1e-8


def _random_channel(rng, n):
    """A random trace-preserving channel: the blocks of an isometry."""
    d = 1 << n
    k = int(rng.integers(1, 5))
    q, _ = np.linalg.qr(rng.normal(size=(d * k, d)) + 1j * rng.normal(size=(d * k, d)))
    return KrausChannel(n, tuple(q[d * i:d * (i + 1)] for i in range(k)))


def test_qpt_channel_checks_completeness_once(monkeypatch):
    calls = []
    original = channels.validate_completeness

    def counting(channel):
        calls.append(channel)
        return original(channel)

    monkeypatch.setattr(channels, "validate_completeness", counting)
    rng = np.random.default_rng(17)
    for _ in range(20):
        channel = _random_channel(rng, 2)
        # the chi of one apply_channel call on the stack of preparations
        want = _chi_from_preparations(apply_channel(channel, _PREP_STACKS[2]), 2)
        calls.clear()
        got = qpt_channel(channel)
        assert len(calls) == 1
        assert np.array_equal(got.matrix, want.matrix) and got.residual == want.residual
    leaky = KrausChannel(1, (0.9 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="channel is not trace preserving: deviation 1.900e-01"):
        qpt_channel(leaky)


def _leaky_channel(deviation):
    """A two-qubit channel of one Kraus operator A = sqrt(I + deviation * J),
    J the all-ones matrix: A^dagger A - I is ``deviation`` in every entry, so
    the preparation |++><++| gains 4 * deviation in trace."""
    plus = np.full((4, 4), 0.25, dtype=complex)  # J / 4, the projector on |++>
    return KrausChannel(2, (np.eye(4) + (math.sqrt(1.0 + 4.0 * deviation) - 1.0) * plus,))


def test_qpt_channel_checks_the_channel_where_it_enters():
    # a deviation the trace-preservation test accepts gives a chi that
    # carries it, though the output of |++> is off in trace by 3.6e-9
    chi = qpt_channel(_leaky_channel(0.9e-9))
    assert abs(tp_deviation(chi) - 0.9e-9) < 1e-15
    with pytest.raises(ValueError, match="^channel is not trace preserving: deviation 1.100e-09$"):
        qpt_channel(_leaky_channel(1.1e-9))
    with pytest.raises(ValueError, match="^Kraus operator has non-finite entries$"):
        qpt_channel(KrausChannel(2, (np.full((4, 4), np.nan),)))


@pytest.mark.parametrize("n", [1, 2])
def test_qpt_channel_matches_per_label_oracle(n):
    # bitwise the chi of one Kraus sum per label, a dict combination and a
    # per-output check, for channels of Kraus rank 1..4
    rng = np.random.default_rng(40 + n)
    for _ in range(40):
        channel = _random_channel(rng, n)
        got = qpt_channel(channel)
        want = per_label_channel_chi(channel)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.residual == want.residual


def test_preparation_stack_rows_are_the_states():
    for n in (1, 2):
        labels = _PREP_LABELS[n]
        # every recipe label, in sorted order: run_qpt's preparations and seeds
        assert list(labels) == sorted({label for terms in preparation_recipes(n) for _, label in terms})
        stack = _PREP_STACKS[n]
        assert stack.shape == (4**n, 1 << n, 1 << n) and not stack.flags.writeable
        for label, row in zip(labels, stack):
            assert row.tobytes() == preparation_state(label).tobytes()


def test_recipe_table_groups_terms_by_count():
    for n, sizes, adds in ((1, [1, 4], 5), (2, [1, 4, 16], 21)):
        table = _recipe_table(n)
        assert sorted(len(coeffs) for _, coeffs, _ in table) == sizes
        assert sum(len(coeffs) for _, coeffs, _ in table) == adds
        recipes = preparation_recipes(n)
        assert sorted(i for targets, _, _ in table for i in targets) == list(range(4**n))
        for targets, coeffs, positions in table:
            assert not (targets.flags.writeable or coeffs.flags.writeable
                        or positions.flags.writeable)
            for column, target in enumerate(targets):
                terms = recipes[target]
                assert [c for c, _ in terms] == list(coeffs[:, column, 0, 0])
                assert [label for _, label in terms] == [
                    _PREP_LABELS[n][p] for p in positions[:, column]]


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_combination_matches_dict_oracle(n, monkeypatch):
    # arbitrary unit-trace outputs with signed zeros: each unit is its recipe
    # summed on its own from zeros, bit for bit
    import qptkit.process_tomography as process_tomography

    inverted = []
    monkeypatch.setattr(process_tomography, "chi_from_outputs",
                        lambda units, k: inverted.append(units) or chi_from_outputs(units, k))
    rng = np.random.default_rng(60 + n)
    d = 1 << n
    for _ in range(20):
        outputs = rng.normal(size=(4**n, d, d)) + 1j * rng.normal(size=(4**n, d, d))
        outputs[rng.random(outputs.shape) < 0.3] = -0.0
        outputs[:, 0, 0] += 1.0 - np.trace(outputs, axis1=1, axis2=2)
        inverted.clear()
        got = _chi_from_preparations(outputs, n)
        units = combine_by_label(dict(zip(_PREP_LABELS[n], outputs)), n)
        assert inverted[0].tobytes() == np.array(units).tobytes()
        want = per_output_chi(units, n)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.residual == want.residual


def test_qpt_channel_rejects_large_registers():
    with pytest.raises(ValueError, match="1 or 2"):
        qpt_channel(KrausChannel(3, (np.eye(8, dtype=complex),)))


# --- full pipeline against the backend ----------------------------------------------


def test_run_qpt_exact_hadamard(qx4_quiet):
    res = run_qpt("h", (2,), qx4_quiet)
    assert res.executions == 12
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.residual <= 1e-10
    assert res.tp_deviation <= 1e-8
    assert np.abs(res.chi.matrix - res.chi_theory.matrix).max() < 1e-9
    assert res.gate == "h" and res.lines == (2,) and res.shots is None
    assert res.backend_name == "ibmqx4-sim" and res.noise is False


def test_run_qpt_exact_cx(qx4_quiet):
    res = run_qpt("cx", (3, 2), qx4_quiet)
    assert res.executions == 144
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.tp_deviation <= 1e-8


@pytest.mark.parametrize("gate, lines", [("h", (2,)), ("cx", (3, 2))])
def test_run_qpt_exact_derives_no_seeds(qx4, gate, lines, monkeypatch):
    # an exact run reads no counts, so it must not read OS entropy for seeds
    def no_seeds(*args, **kwargs):
        raise AssertionError("SeedSequence built in an exact run")

    want = run_qpt(gate, lines, qx4)
    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    got = run_qpt(gate, lines, qx4)
    assert np.array_equal(got.chi.matrix, want.chi.matrix)


def test_theoretical_chi_is_shared_per_gate_name():
    assert theoretical_chi("cx") is theoretical_chi("cx")
    assert not theoretical_chi("cx").matrix.flags.writeable
    assert np.array_equal(theoretical_chi(standard_gate("h")).matrix, theoretical_chi("h").matrix)


def test_run_qpt_noisy_hadamard(qx4):
    res = run_qpt("h", (2,), qx4)
    assert 0.9 < res.fidelity < 1.0
    assert res.noise is True


def test_run_qpt_sampled_deterministic(qx4_quiet):
    a = run_qpt("h", (0,), qx4_quiet, shots=2048, seed=0)
    b = run_qpt("h", (0,), qx4_quiet, shots=2048, seed=0)
    assert np.array_equal(a.chi.matrix, b.chi.matrix)
    assert a.fidelity == b.fidelity
    assert a.fidelity > 0.95
    assert a.shots == 2048 and a.seed == 0


@pytest.mark.parametrize("mode", ["qx4", "quiet", "idle", "qx2", "flips"])
@pytest.mark.parametrize("gate, lines", [("h", (2,)), ("cx", (3, 4))])
def test_run_qpt_matches_per_label_oracle(qx4, qx2, mode, gate, lines):
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.03) for q in qx4.qubits)
    backend = {"qx4": qx4, "quiet": qx4.with_noise(False),
               "idle": qx4.with_idle_decay(True), "qx2": qx2,
               "flips": dataclasses.replace(qx4, qubits=flipping)}[mode]
    for shots, seed in ((None, None), (3000, 7)):
        res = run_qpt(gate, lines, backend, shots=shots, seed=seed)
        chi, fidelity, tp_dev = per_label_qpt(gate, lines, backend, shots=shots, seed=seed)
        assert res.chi.matrix.tobytes() == chi.matrix.tobytes()
        assert res.residual == chi.residual
        assert res.fidelity == fidelity
        assert res.tp_deviation == tp_dev


def test_run_qpt_is_one_stream(qx4, monkeypatch):
    streams, checks = [], []
    evolve = backend_module._evolve

    def counting_evolve(circuits, backend, start=None):
        streams.append((len(circuits), 1 if start is None else len(start[1])))
        return evolve(circuits, backend, start)

    monkeypatch.setattr(backend_module, "_evolve", counting_evolve)
    for name in ("_check_readout", "check_density_matrix"):
        def counting_check(matrices, *args, original=getattr(backend_module, name), name=name,
                           **kwargs):
            checks.append((name, len(matrices)))
            return original(matrices, *args, **kwargs)
        monkeypatch.setattr(backend_module, name, counting_check)
    run_qpt("cx", (2, 4), qx4, shots=100, seed=1)
    # the 16 preparations in one stream, then the 3 basis rotations of the
    # first line over the stack of their 16 states, then the 3 rotations and
    # measures of the second over the 48 states that leaves, whose 144 final
    # states pass the readout test as one stack, and no full check
    assert streams == [(16, 1), (3, 16), (3, 48)] and checks == [("_check_readout", 144)]
    streams.clear()
    checks.clear()
    # one line has no head stage: its 3 settings run over the 4 states
    run_qpt("h", (0,), qx4)
    assert streams == [(4, 1), (3, 4)] and checks == [("_check_readout", 12)]


def test_run_qpt_argument_errors(qx4):
    with pytest.raises(ValueError, match="unknown gate"):
        run_qpt("rx", (0,), qx4)
    with pytest.raises(ValueError, match="needs 2"):
        run_qpt("cx", (0,), qx4)
    with pytest.raises(ValueError, match="duplicate lines"):
        run_qpt("cx", (1, 1), qx4)
    with pytest.raises(ValueError, match="out of range"):
        run_qpt("h", (9,), qx4)
    with pytest.raises(TopologyError, match="coupling map"):
        run_qpt("cx", (0, 1), qx4)


def test_project_result(qx4_quiet):
    res = run_qpt("t", (1,), qx4_quiet, shots=512, seed=3)
    fixed = project_result(res)
    assert fixed.psd_projected and not res.psd_projected
    assert np.linalg.eigvalsh(fixed.chi.matrix).min() >= -1e-12
    assert -1.0 <= fixed.fidelity <= 1.0 + 1e-9
    assert fixed.tp_deviation >= 0.0
