"""Measurement settings, Pauli estimation, density reconstruction."""

import dataclasses
import itertools
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qptkit.backend
import qptkit.process_tomography
import qptkit.qasm
import qptkit.state_tomography
from qptkit import (
    GATE_TABLE_ORDER,
    Circuit,
    Gate,
    Measure,
    TomographyDataset,
    collect_dataset,
    execute_exact,
    execute_many,
    parse_qasm,
    run_qst,
)
from oracles import (
    append_setting,
    outcome_dict,
    pauli_string_matrix,
    sample_settings,
    setting_circuits,
    six_product_contract,
    unique_write_dataset,
)
from qptkit.backend import _qubits
from qptkit.process_tomography import preparation_circuit, run_qpt
from qptkit.state_tomography import (
    BASIS_ORDER,
    _setting_circuits,
    child_seeds,
    collect_weights,
    project_psd,
    qst_settings,
    read_dataset,
    reconstruct_states,
    state_fidelity,
    write_dataset,
)


def test_settings_enumeration():
    assert qst_settings(1) == ["Z", "X", "Y"]
    assert qst_settings(2) == ["ZZ", "ZX", "ZY", "XZ", "XX", "XY", "YZ", "YX", "YY"]
    assert len(qst_settings(3)) == 27
    with pytest.raises(ValueError):
        qst_settings(0)
    with pytest.raises(ValueError):
        qst_settings(6)


def test_append_setting_rotations():
    got = append_setting(Circuit(2, 0), "XY")
    assert got.instructions == (
        Gate("h", (1,)),
        Gate("sdg", (0,)),
        Gate("h", (0,)),
        Measure(1, 1),
        Measure(0, 0),
    )
    assert got.classical_count == 2


def test_append_setting_z_measures_directly():
    got = append_setting(Circuit(1, 0), "Z")
    assert got.instructions == (Measure(0, 0),)


def test_append_setting_subset_of_register():
    got = append_setting(Circuit(5, 0), "ZX", qubits=(3, 1))
    assert got.instructions == (Gate("h", (1,)), Measure(3, 1), Measure(1, 0))
    assert got.classical_count == 2


def test_append_setting_rejections(qx4_quiet):
    measured = Circuit(1, 1, (Measure(0, 0),))
    with pytest.raises(ValueError, match="already contains measurements"):
        collect_weights([measured], qx4_quiet)
    with pytest.raises(ValueError, match="duplicate qubits"):
        collect_weights([Circuit(2, 0)], qx4_quiet, qubits=(1, 1))
    with pytest.raises(ValueError, match="duplicate qubits"):
        collect_weights([Circuit(5, 0)], qx4_quiet, qubits=(2, 0, 2))


def test_collect_weights_rejects_no_preparations(qx4_quiet, monkeypatch):
    def build(*args):
        raise AssertionError("built setting circuits for no preparation")

    monkeypatch.setattr(qptkit.state_tomography, "_setting_circuits", build)
    monkeypatch.setattr(qptkit.state_tomography, "_execute_preparations", build)
    for qubits in (None, (0,)):
        with pytest.raises(ValueError, match="^no preparations to run$"):
            collect_weights([], qx4_quiet, qubits=qubits)


def _row(dataset, tag):
    """The weights of one setting of a dataset."""
    return dataset.weights[qst_settings(dataset.qubit_count).index(tag)]


def _canonical_dataset(n, shots, rows):
    """A dataset of the given setting rows, every other setting uniform."""
    fill = 1.0 / (1 << n) if shots is None else shots / (1 << n)
    weights = np.full((3 ** n, 1 << n), fill)
    for tag, row in rows.items():
        weights[qst_settings(n).index(tag)] = row
    return TomographyDataset(shots, weights)


def _zz_dataset():
    return _canonical_dataset(2, 100, {"ZZ": np.array([40.0, 30.0, 20.0, 10.0])})


def _estimate(stack, pauli):
    """<P> = Tr(P rho) of every dataset of a canonical stack, read off its
    reconstruction, P a string like "IZ"."""
    return np.trace(pauli_string_matrix(pauli) @ reconstruct_states(stack), axis1=1, axis2=2).real


def _canonical_stack(n, shots, rows):
    """A one-dataset stack: the given setting rows, every other setting uniform."""
    return _canonical_dataset(n, shots, rows).weights[None]


def test_estimate_pauli_signs():
    stack = _canonical_stack(2, 100, {"ZZ": np.array([40.0, 30.0, 20.0, 10.0])})
    assert _estimate(stack, "ZZ") == pytest.approx((40 - 30 - 20 + 10) / 100, abs=1e-15)
    assert _estimate(stack, "ZI") == pytest.approx((40 + 30 - 20 - 10) / 100, abs=1e-15)
    assert _estimate(stack, "IZ") == pytest.approx((40 - 30 + 20 - 10) / 100, abs=1e-15)
    # the identity coefficient is the Z-filled setting's total over itself
    assert abs(np.trace(reconstruct_states(stack)[0]) - 1.0) <= 1e-15


def test_estimate_pauli_first_compatible_wins():
    stack = _canonical_stack(2, 100, {
        "ZX": np.array([75.0, 25.0, 0.0, 0.0]),
        "XZ": np.array([0.0, 0.0, 100.0, 0.0]),
        "XX": np.array([100.0, 0.0, 0.0, 0.0]),
    })
    # ZX precedes XX in the canonical enumeration, so it supplies <IX>
    assert _estimate(stack, "IX") == pytest.approx(0.5, abs=1e-15)
    assert _estimate(stack, "XX") == pytest.approx(1.0, abs=1e-15)
    # <XI> reads its Z-filled setting XZ, not XX
    assert _estimate(stack, "XI") == pytest.approx(-1.0, abs=1e-15)


def _scan_estimate(dataset, pauli):
    """The estimator as first written: scan every setting in canonical order."""
    for tag in qst_settings(dataset.qubit_count):
        if all(p in ("I", s) for p, s in zip(pauli, tag)):
            break
    acc = total = 0.0
    for outcome, weight in outcome_dict(_row(dataset, tag)).items():
        sign = 1.0
        for p, ch in enumerate(pauli):
            if ch != "I" and outcome[p] == "1":
                sign = -sign
        acc += sign * weight
        total += weight
    return acc / total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_estimate_pauli_matches_full_scan_with_missing_settings(n):
    rng = np.random.default_rng(n)
    # integer counts, then exact float weights, where summation order shows
    for shots in (64, None):
        for _ in range(10):
            ds = _random_dataset(rng, n, shots)
            stack = ds.weights[None]
            for letters in itertools.product("IXYZ", repeat=n):
                pauli = "".join(letters)
                if pauli != "I" * n:
                    assert abs(_estimate(stack, pauli) - _scan_estimate(ds, pauli)) <= 1e-15
            # without every setting there is no stack to reconstruct from
            missing = np.delete(stack, int(rng.integers(3 ** n)), axis=1)
            with pytest.raises(ValueError, match="weight stack"):
                reconstruct_states(missing)


def test_estimate_pauli_rejections():
    good = _canonical_stack(2, 100, {})
    for bad in (good[0], good[:, :-1], good[:, :, :3], good[None], np.ones((1, 1, 1)),
                np.ones((1, 3 ** 6, 64)), np.ones(0)):
        with pytest.raises(ValueError, match=r"expected an \(L, 3\*\*n, 2\*\*n\) weight stack"):
            reconstruct_states(bad)


def test_dataset_validation():
    with pytest.raises(ValueError, match="bad outcome key '2' under 'Z'"):
        read_dataset("format=1\nqubits=1\nshots=exact\nZ 2:1.0\n")
    # every shape but (3**n, 2**n), a setting row missing included
    for shape in [(2,), (1, 1), (3, 1), (2, 2), (3, 2, 1), (9, 2), (3 ** 6, 64)]:
        with pytest.raises(ValueError, match=r"expected a \(3\*\*n, 2\*\*n\) weight array"):
            TomographyDataset(None, np.full(shape, 0.5))
    with pytest.raises(ValueError, match="shots must be positive"):
        TomographyDataset(0, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"setting 'X': weights sum to 50.0, expected 100.0"):
        TomographyDataset(100, np.array([[50.0, 50.0], [30.0, 20.0], [50.0, 50.0]]))
    with pytest.raises(ValueError, match="negative weight for '1' under 'Z'"):
        TomographyDataset(None, np.array([[1.5, -0.5], [0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="non-finite weight for '0' under 'Z'"):
        read_dataset("format=1\nqubits=1\nshots=exact\nZ 0:nan 1:1.0\nX 0:1.0\nY 0:1.0\n")
    with pytest.raises(ValueError, match="non-finite weight for '1' under 'Y'"):
        TomographyDataset(100, np.array([[100.0, 0.0], [100.0, 0.0], [100.0, float("inf")]]))


def test_exact_qst_single_qubit(qx4_quiet):
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\n")
    run = run_qst(prep, qx4_quiet)
    assert run.executions == 3
    reference = execute_exact(prep, qx4_quiet).final_state
    assert np.abs(run.state - reference).max() < 1e-9
    assert abs(np.trace(run.state) - 1.0) < 1e-12


def test_exact_qst_bell(qx4_quiet):
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1], q[0];\n")
    run = run_qst(prep, qx4_quiet)
    assert run.executions == 9
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.abs(run.state - expected).max() < 1e-9


_SINGLES = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg"]


@st.composite
def two_qubit_preps(draw):
    moves = draw(
        st.lists(
            st.tuples(st.sampled_from(_SINGLES + ["cx"]), st.integers(0, 1)),
            max_size=6,
        )
    )
    instructions = tuple(
        Gate("cx", (1, 0)) if name == "cx" else Gate(name, (q,))
        for name, q in moves
    )
    return Circuit(2, 0, instructions)


@given(two_qubit_preps())
@settings(max_examples=25, deadline=None)
def test_exact_qst_matches_evolution(qx4_quiet, prep):
    run = run_qst(prep, qx4_quiet)
    reference = execute_exact(prep, qx4_quiet).final_state
    assert np.abs(run.state - reference).max() < 1e-9


def test_exact_qst_empty_circuit(qx4_quiet):
    run = run_qst(Circuit(2, 0), qx4_quiet)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(run.state - expected).max() < 1e-12


def test_noisy_qst_still_physical(qx4):
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    run = run_qst(prep, qx4)
    assert abs(np.trace(run.state) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(run.state).min() > -1e-9


def test_sampled_qst_deterministic_and_accurate(qx4_quiet):
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\n")
    a = run_qst(prep, qx4_quiet, shots=4096, seed=17)
    b = run_qst(prep, qx4_quiet, shots=4096, seed=17)
    assert a.dataset == b.dataset
    reference = execute_exact(prep, qx4_quiet).final_state
    assert state_fidelity(project_psd(a.state), reference) > 0.98


def test_run_qst_rejects_measured_circuit(qx4_quiet):
    prep = Circuit(1, 1, (Measure(0, 0),))
    with pytest.raises(ValueError, match="already contains measurements"):
        run_qst(prep, qx4_quiet)


def test_project_psd():
    dirty = np.diag([1.02, -0.02]).astype(complex)
    clean = project_psd(dirty)
    assert np.linalg.eigvalsh(clean).min() >= 0.0
    assert abs(np.trace(clean).real - 1.0) < 1e-12
    already = np.diag([0.75, 0.25]).astype(complex)
    assert np.abs(project_psd(already) - already).max() < 1e-12
    with pytest.raises(ValueError, match="no positive part"):
        project_psd(np.diag([-1.0, -1.0]).astype(complex))


def test_state_fidelity_values():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    ket1 = np.diag([0.0, 1.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    maximally_mixed = np.eye(2, dtype=complex) / 2.0
    assert state_fidelity(ket0, ket0) == pytest.approx(1.0)
    assert state_fidelity(ket0, ket1) == pytest.approx(0.0, abs=1e-12)
    assert state_fidelity(ket0, plus) == pytest.approx(0.5)
    assert state_fidelity(ket0, maximally_mixed) == pytest.approx(0.5)
    assert state_fidelity(plus, ket0) == pytest.approx(state_fidelity(ket0, plus))
    with pytest.raises(ValueError, match="shape mismatch"):
        state_fidelity(ket0, np.eye(4, dtype=complex) / 4.0)


def test_dataset_roundtrip_exact():
    # rows Z, X, Y in qst_settings order; the text lists them sorted
    ds = TomographyDataset(None, np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))
    text = write_dataset(ds)
    assert text == "format=1\nqubits=1\nshots=exact\nX 0:1.0\nY 0:0.5 1:0.5\nZ 0:0.25 1:0.75\n"
    assert read_dataset(text) == ds


def test_dataset_roundtrip_counts():
    ds = _zz_dataset()
    text = write_dataset(ds)
    assert text.startswith("format=1\nqubits=2\nshots=100\n")
    assert read_dataset(text) == ds


def test_dataset_equality():
    ds = _zz_dataset()
    # integer counts are held as the floats they equal
    same = TomographyDataset(100, ds.weights.astype(np.int64))
    assert same.weights.dtype == float
    assert ds == same and not ds != same
    shifted = ds.weights.copy()
    shifted[0] = shifted[0, ::-1]
    for other in (TomographyDataset(100, shifted), TomographyDataset(200, 2 * ds.weights),
                  write_dataset(ds), None):
        assert ds != other and not ds == other
    # a dataset without every setting is no dataset
    with pytest.raises(ValueError, match=r"got shape \(8, 4\)"):
        TomographyDataset(100, ds.weights[1:])


def test_dataset_reader_errors():
    with pytest.raises(ValueError, match="missing dataset header"):
        read_dataset("format=1\nqubits=1\nZ 0:1.0\n")
    for key in ("2", "00", "x"):
        with pytest.raises(ValueError, match=f"^line 4: bad outcome key '{key}' under 'Z'$"):
            read_dataset(f"format=1\nqubits=1\nshots=exact\nZ 0:0.5 {key}:0.5\nX 0:1.0\n")
    with pytest.raises(ValueError, match="bad weight"):
        read_dataset("format=1\nqubits=1\nshots=exact\nZ 0:lots\n")
    with pytest.raises(ValueError, match="duplicate setting"):
        read_dataset("format=1\nqubits=1\nshots=exact\nZ 0:1.0\nZ 1:1.0\n")
    # the last weight would win and the sum check still pass
    with pytest.raises(ValueError, match="line 4: duplicate outcome '1' under 'Z'"):
        read_dataset("format=1\nqubits=1\nshots=100\nZ 0:50 1:30 1:50\n")
    with pytest.raises(ValueError, match="unsupported dataset format"):
        read_dataset("format=2\nqubits=1\nshots=exact\nZ 0:1.0\n")
    with pytest.raises(ValueError, match="line 3: unknown dataset header 'bogus'"):
        read_dataset("format=1\nqubits=1\nbogus=1\nshots=exact\nZ 0:1.0\n")
    with pytest.raises(ValueError, match="line 2: dataset header 'qubits' is not an integer: 'x'"):
        read_dataset("format=1\nqubits=x\nshots=exact\nZ 0:1.0\n")
    with pytest.raises(ValueError, match="line 3: dataset header 'shots' is not an integer: 'lots'"):
        read_dataset("format=1\nqubits=1\nshots=lots\nZ 0:100\n")
    # range checks name the header's line and come before any setting check
    with pytest.raises(ValueError, match="^line 2: qubit count must be 1..5, got 7$"):
        read_dataset("format=1\nqubits=7\nshots=exact\nZ 0:1.0\n")
    with pytest.raises(ValueError, match="^line 2: qubit count must be 1..5, got 0$"):
        read_dataset("format=1\nqubits=0\nshots=exact\nZ 0:1.0\n")
    for shots in (0, -2):
        with pytest.raises(ValueError, match=f"^line 3: shots must be positive, got {shots}$"):
            read_dataset(f"format=1\nqubits=1\nshots={shots}\nZ 0:1.0\n")
    with pytest.raises(ValueError, match=r"missing setting 'Y' \(1 of 3 missing\)"):
        read_dataset("format=1\nqubits=1\nshots=exact\nZ 0:1.0\nX 0:1.0\n")
    with pytest.raises(ValueError, match=r"missing setting 'ZZ' \(8 of 9 missing\)"):
        read_dataset("format=1\nqubits=2\nshots=exact\nXY 00:1.0\n")
    for tag in ("Q", "ZZ", "z"):
        with pytest.raises(ValueError, match=f"line 5: unknown setting '{tag}' for 1 qubit"):
            read_dataset(f"format=1\nqubits=1\nshots=exact\nZ 0:1.0\n{tag} 0:1.0\n"
                         "X 0:1.0\nY 0:1.0\n")


def test_reconstruct_requires_every_string():
    ds = _zz_dataset()
    with pytest.raises(ValueError, match=r"got shape \(1, 1, 4\)"):
        reconstruct_states(ds.weights[None, :1])
    with pytest.raises(ValueError, match=r"got shape \(1, 4\)"):
        TomographyDataset(100, ds.weights[:1])


def test_child_seeds():
    a = child_seeds(123, 5)
    assert a == child_seeds(123, 5)
    assert len(set(a)) == 5
    assert a != child_seeds(124, 5)
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        child_seeds(-3, 4)


def test_child_seeds_unseeded_draw_fresh_entropy():
    a = child_seeds(None, 9)
    assert len(set(a)) == 9
    assert a != child_seeds(None, 9)


def test_golden_counts_cx_bell_preparation(qx4):
    # Recorded when each setting came to draw on its own 4 words of its
    # preparation's seed expansion; a seeded sampled run must keep
    # reproducing these counts exactly under one numpy.
    prep = preparation_circuit("p0", (3, 2), 5).extended(Gate("cx", (3, 2)))
    ds = collect_dataset(prep, qx4, qubits=(3, 2), shots=8192, seed=0)
    assert outcome_dict(_row(ds, "ZZ")) == {"00": 4047, "01": 69, "10": 58, "11": 4018}
    assert outcome_dict(_row(ds, "XX")) == {"00": 4001, "01": 92, "10": 83, "11": 4016}
    assert outcome_dict(_row(ds, "YY")) == {"00": 124, "01": 3981, "10": 4027, "11": 60}


def _setting_loop(prep, backend, qubits, shots=None, seed=None):
    """collect_dataset's weights as one execute_exact call per setting
    circuit, in qst_settings order, and at ``shots`` the oracle's draws from
    them with the preparation's ``seed``."""
    circuits = [append_setting(prep, tag, qubits) for tag in qst_settings(len(qubits))]
    rows = np.array([execute_exact(circuit, backend).probabilities for circuit in circuits])
    return rows if shots is None else sample_settings(rows, circuits[0], backend, shots, seed)


def _stream(circuits, backend, shots, seeds):
    """The rows of each preparation's joined setting circuits in turn, one
    preparation per seed: what execute_many gives exactly, or at ``shots``
    the oracle's draws from it with each preparation's seed."""
    rows = np.array([r.probabilities for r in execute_many(circuits, backend)])
    if shots is None:
        return rows
    per_prep = rows.reshape(len(seeds), -1, rows.shape[1])
    return np.concatenate([sample_settings(exact, circuits[0], backend, shots, seed)
                           for exact, seed in zip(per_prep, seeds, strict=True)])


def _assert_rows(got, want, bitwise=True):
    """Weight rows as each setting circuit gives them alone: bitwise, or
    within 1e-15 where exact rows are read out through the settings' maps
    with noise on: there each measured qubit's measure decays before the
    next qubit rotates, where a setting circuit decays them after every
    rotation, and with idle decay a rotation's decay of the other qubits
    runs with their own maps, not with the rotation."""
    want = np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if bitwise:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("mode", ["quiet", "noisy", "idle"])
def test_collect_dataset_matches_per_setting_loop(qx4, mode):
    backend = {"quiet": qx4.with_noise(False), "noisy": qx4,
               "idle": qx4.with_idle_decay(True)}[mode]
    cases = [
        (preparation_circuit("r", (4,), 5).extended(Gate("t", (4,))), (4,)),
        (preparation_circuit("pr", (2, 1), 5).extended(Gate("cx", (2, 1))), (2, 1)),
        (parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[1];\ncx q[1],q[0];\n"
                    "t q[2];\nh q[2];\n"), None),
    ]
    for prep, qubits in cases:
        measured = qubits or tuple(range(prep.qubit_count - 1, -1, -1))
        for shots in (None, 500):
            got = collect_dataset(prep, backend, qubits=qubits, shots=shots, seed=9)
            want = _setting_loop(prep, backend, measured, shots=shots, seed=9)
            bitwise = mode == "quiet" or shots is not None
            _assert_rows(got.weights, want.astype(float), bitwise)
            # the stream keeps the backend's dtype: float probabilities, int counts
            stream = collect_weights([prep], backend, qubits, shots, [9])
            _assert_rows(stream[0], want, bitwise)


# the 5-qubit circuit of CI's determinism step
CI_FIVE_QUBITS = ("OPENQASM 2.0;\nqreg q[5];\nh q[0];\ncx q[1],q[0];\nt q[2];\nh q[3];\n"
                  "cx q[3],q[4];\ns q[1];\nx q[4];\ncx q[2],q[1];\n")


@pytest.mark.parametrize("mode", ["noise_off", "noise_on", "idle", "sampled"])
def test_collect_weights_matches_each_setting_run_alone(qx4, mode):
    backend = {"noise_off": qx4.with_noise(False), "idle": qx4.with_idle_decay(True)}.get(mode, qx4)
    shots = 8192 if mode == "sampled" else None
    prep = parse_qasm(CI_FIVE_QUBITS)
    got = collect_weights([prep], backend, shots=shots, seeds=[3])[0]
    settings = setting_circuits((4, 3, 2, 1, 0), 5)
    # each setting alone through execute_many, sampled by the oracle
    want = _stream([prep.then(setting) for setting in settings], backend, shots, [3])
    _assert_rows(got, want, mode not in ("noise_on", "idle"))


@pytest.mark.parametrize("mode", ["noise_off", "noise_on", "idle", "sampled"])
def test_run_qst_reference_is_execute_exacts_final_state(qx4, mode):
    backend = {"noise_off": qx4.with_noise(False), "idle": qx4.with_idle_decay(True)}.get(mode, qx4)
    shots = 8192 if mode == "sampled" else None
    circuit = parse_qasm(CI_FIVE_QUBITS)
    run = run_qst(circuit, backend, shots=shots, seed=0)
    want = execute_exact(circuit, backend).final_state
    assert run.reference.dtype == want.dtype and np.array_equal(run.reference, want)
    # a Bell pair on q1, q0 leaves three qubits of its register idle: the
    # stream evolved it on all five, and the run hands back no reference
    bell = parse_qasm("OPENQASM 2.0;\nqreg q[5];\nh q[1];\ncx q[1],q[0];\n")
    assert run_qst(bell, backend, shots=shots, seed=0).reference is None


@pytest.mark.parametrize("noise", [False, True])
def test_valid_setting_stacks_pay_no_cholesky_and_no_eigvalsh(qx4, noise, monkeypatch, fresh_maps):
    calls = []
    for name in ("cholesky", "eigvalsh"):
        def counting(a, *args, original=getattr(np.linalg, name), name=name, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    weights = collect_weights([parse_qasm(CI_FIVE_QUBITS)], qx4.with_noise(noise))
    monkeypatch.undo()
    # the 243 final states pass the readout test, which factorises none of
    # them; each map, built once, has its Choi matrix (at most 16 x 16)
    # factorised, and no eigenvalues are taken
    assert weights.shape == (1, 243, 32)
    assert len(calls) == qptkit.backend._superoperator.cache_info().misses > 0
    assert all(name == "cholesky" and shape[-1] <= 16 for name, shape in calls)


def test_collect_dataset_evolves_the_preparation_once(qx4_quiet, monkeypatch):
    applied = []
    original = qptkit.backend._apply

    def counting_apply(sup, rho, layout, axes, k):
        applied.append(axes)
        return original(sup, rho, layout, axes, k)

    monkeypatch.setattr(qptkit.backend, "_apply", counting_apply)
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\nh q[0];\ns q[0];\n")
    collect_dataset(prep, qx4_quiet)
    # 4 preparation gates once; the settings are read out of its state, not evolved
    assert len(applied) == 4


def test_collect_weights_matches_shared_suffixes_by_identity(qx4_quiet):
    # the settings are built once per key and share their objects
    assert _setting_circuits((4, 1), 5) is _setting_circuits((4, 1), 5)
    circuits = _setting_circuits((4, 1), 5)
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[5];\nh q[2];\ncx q[2],q[4];\nt q[1];\n")
    # the instructions of one setting at a time: one object per (letter, qubit)
    # for the rotations (h of X, sdg and h of Y) and one measure per qubit
    alone = [append_setting(prep, tag, (4, 1)).instructions[3:] for tag in qst_settings(2)]
    assert [list(c.instructions) for c in circuits] == [list(s) for s in alone]
    assert len({id(inst) for c in circuits for inst in c.instructions}) == 2 + 4 + 2
    # execute_many runs the joined circuits, and collect_weights reads the
    # same rows out of the preparation's state
    idle = qx4_quiet.with_noise(True).with_idle_decay(True)
    stream = [r.probabilities for r in execute_many([prep.then(c) for c in circuits], idle)]
    weights = collect_weights([prep], idle, (4, 1))
    _assert_rows(weights[0], stream, bitwise=False)
    assert np.array_equal(weights[0], collect_dataset(prep, idle, (4, 1)).weights)


@pytest.mark.parametrize("mode", ["exact", "quiet", "sampled", "idle", "flips"])
def test_stacked_preparations_match_one_preparation_at_a_time(qx4, mode):
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.02) for q in qx4.qubits)
    backend = {"exact": qx4, "quiet": qx4.with_noise(False), "sampled": qx4,
               "idle": qx4.with_idle_decay(True),
               "flips": dataclasses.replace(qx4, qubits=flipping)}[mode]
    shots = None if mode in ("exact", "quiet", "idle") else 8192
    placements = [(g, (q,)) for g in GATE_TABLE_ORDER for q in range(5)]
    placements += [("cx", pair) for pair in sorted(qx4.coupling.pairs)]
    assert len(placements) == 51
    for gate, lines in placements:
        labels = map("".join, itertools.product("01pr", repeat=len(lines)))
        preps = [preparation_circuit(label, lines).extended(Gate(gate, lines)) for label in labels]
        seeds = child_seeds(0, len(preps))
        stacked = collect_weights(preps, backend, lines, shots, seeds)
        # each preparation alone, a stack of one state
        alone = [collect_dataset(p, backend, lines, shots, s).weights for p, s in zip(preps, seeds)]
        assert np.array_equal(stacked, alone)
        # the stream of every joined circuit, each setting drawn on its own words
        circuits = [p.then(c) for p in preps for c in setting_circuits(lines, 5)]
        _assert_rows(stacked.reshape(len(circuits), -1), _stream(circuits, backend, shots, seeds),
                     mode not in ("exact", "idle"))


def test_stacks_split_where_qubits_or_registers_differ(qx4, monkeypatch):
    wide = "OPENQASM 2.0;\nqreg q[5];\nh q[2];\ncx q[2],q[4];\nt q[1];\n"
    preps = [parse_qasm(wide), parse_qasm(wide).extended(Gate("s", (4,))),
             parse_qasm("OPENQASM 2.0;\nqreg q[5];\nx q[0];\n"),
             parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[1];\n")]
    evolved, stacks = [], []
    evolve, check_readout = qptkit.backend._evolve, qptkit.backend._check_readout
    monkeypatch.setattr(qptkit.backend, "_evolve",
                        lambda circuit, backend, active=None: evolved.append(active)
                        or evolve(circuit, backend, active))
    monkeypatch.setattr(qptkit.backend, "_check_readout",
                        lambda states: stacks.append(len(states)) or check_readout(states))
    seeds = [11, 12, 13, 14]
    for shots in (None, 300):
        evolved.clear()
        stacks.clear()
        got = collect_weights(preps, qx4, (1, 0), shots, seeds)
        # the two preparations on q4 q2 q1 q0 form one stack, whose settings
        # are read out of their states; q1 q0 of a 5-qubit and of a 3-qubit
        # register are two more
        wide, narrow = (4, 2, 1, 0), (1, 0)
        assert evolved == [wide, wide, narrow, narrow] and stacks == [2, 1, 1]
        circuits = [p.then(c) for p in preps for c in setting_circuits((1, 0), p.qubit_count)]
        _assert_rows(got.reshape(len(circuits), -1), _stream(circuits, qx4, shots, seeds),
                     shots is not None)


def _drawn_stack(monkeypatch, run):
    """The count stack ``run()`` has ``_collect`` draw, once."""
    drawn = []
    collect = qptkit.state_tomography._collect

    def recording(*args):
        result = collect(*args)
        drawn.append(result[0])
        return result

    monkeypatch.setattr(qptkit.process_tomography, "_collect", recording)
    monkeypatch.setattr(qptkit.state_tomography, "_collect", recording)
    run()
    monkeypatch.undo()
    (stack,) = drawn
    return stack


@pytest.mark.parametrize("case", ["h 2", "cx 3,2", "qst"])
def test_every_sampled_row_is_numpys_draw_from_its_setting_words(qx4, case, monkeypatch):
    # each preparation's seed is expanded once by numpy's SeedSequence into 4
    # words per setting; each setting row is one multinomial from its own
    # PCG64 on its 4 words, over its exact weights with readout flips in
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.02 + 0.01 * i)
                     for i, q in enumerate(qx4.qubits))
    backend = dataclasses.replace(qx4, qubits=flipping)
    shots, seed = 8192, 21
    if case == "qst":
        preps, lines = [parse_qasm(CI_FIVE_QUBITS)], (4, 3, 2, 1, 0)
        prep_seeds = [seed]
        got = _drawn_stack(monkeypatch, lambda: run_qst(preps[0], backend, shots, seed))
    else:
        gate, where = case.split()
        lines = tuple(map(int, where.split(",")))
        labels = map("".join, itertools.product("01pr", repeat=len(lines)))
        preps = [preparation_circuit(label, lines).extended(Gate(gate, lines)) for label in labels]
        prep_seeds = np.random.SeedSequence(seed).generate_state(len(preps), np.uint64).tolist()
        got = _drawn_stack(monkeypatch, lambda: run_qpt(gate, lines, backend, shots, seed))
    exact = collect_weights(preps, backend, lines)
    measures = append_setting(Circuit(5, 0), "Z" * len(lines), lines)
    want = [sample_settings(rows, measures, backend, shots, s) for rows, s in zip(exact, prep_seeds)]
    assert got.dtype == np.intp and np.array_equal(got, want)


def test_each_setting_draws_from_its_own_stream(qx4, monkeypatch):
    # two sampled stacks with the same preparation seeds whose exact weights
    # differ in one setting row: every other row draws the same counts
    preps = [preparation_circuit(label, (3, 2)).extended(Gate("cx", (3, 2)))
             for label in ("0p", "r1", "pp")]
    seeds = [5, 6, 7]
    changed = 9 + qst_settings(2).index("XY")  # preparation 1, setting XY
    diagonals = qptkit.backend._setting_diagonals

    def one_row_moved(*args):
        rows = diagonals(*args).copy()
        rows[changed] = np.roll(rows[changed], 1)
        return rows

    stacks = {}
    for moved in (False, True):
        if moved:
            monkeypatch.setattr(qptkit.backend, "_setting_diagonals", one_row_moved)
        stacks[moved] = [collect_weights(preps, qx4, (3, 2), shots, seeds).reshape(27, 4)
                         for shots in (None, 8192)]
    for exact_or_counts in (0, 1):
        differs = (stacks[False][exact_or_counts] != stacks[True][exact_or_counts]).any(axis=1)
        assert differs.tolist() == [row == changed for row in range(27)]


def _built_circuits(monkeypatch, preps, backend, qubits):
    """The circuits ``collect_weights`` hands to the backend: each preparation
    joined to each setting it is handed with."""
    built = []
    execute = qptkit.state_tomography._execute_preparations

    def recording(preps, settings, *args):
        built.extend(p.then(setting) for p, chain in zip(preps, settings) for setting in chain)
        return execute(preps, settings, *args)

    monkeypatch.setattr(qptkit.state_tomography, "_execute_preparations", recording)
    collect_weights(preps, backend, qubits)
    monkeypatch.undo()
    return built


def test_setting_circuits_match_extended_with_suffixes_checked_once(qx4_quiet, monkeypatch):
    prep = parse_qasm("OPENQASM 2.0;\nqreg r[5];\ncreg m[3];\nh r[2];\ncx r[2],r[4];\n"
                      "t r[1];\n")
    assert (prep.qreg, prep.creg, prep.classical_count) == ("r", "m", 3)
    _setting_circuits.cache_clear()
    checks = []
    check = qptkit.qasm._check_instruction
    for qubits in ((4, 1), (0, 2, 4, 1, 3)):
        for preps in ([prep], [prep, parse_qasm("OPENQASM 2.0;\n" + _ROUNDTRIP_CIRCUITS[5])]):
            checks.clear()
            monkeypatch.setattr(qptkit.qasm, "_check_instruction",
                                lambda *args: checks.append(args[0]) or check(*args))
            built = _built_circuits(monkeypatch, preps, qx4_quiet, qubits)
            settings = _setting_circuits(qubits, 5)
            # each rotation (one h for X, sdg and h for Y) and each measure
            # is checked once per (qubits, register size), on the first call,
            # and never when joined to a preparation or to another qubit's
            first = preps == [prep]
            assert len(checks) == (4 * len(qubits) if first else 0)
            want = [p.extended(*c.instructions, classical_count=len(qubits))
                    for p in preps for c in settings]
            assert len(built) == len(want)
            for got, expected in zip(built, want):
                assert got == expected and got.measurements == expected.measurements
                assert vars(got) == vars(expected)  # fields and cached measurements
                assert all(a is b for a, b in zip(got.instructions, expected.instructions))
            assert [c.instructions for c in settings] == [
                c.instructions for c in setting_circuits(qubits, 5)]
    assert _setting_circuits.cache_info().misses == 2
    # a setting that does not fit the register raises its own construction error
    small = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[1],q[2];\n")
    with pytest.raises(qptkit.qasm.CircuitError,
                       match="^instruction 0: qubit index 4 out of range$"):
        collect_weights([small], qx4_quiet, (4, 0))


def test_collect_weights_checks_every_preparation(qx4_quiet, monkeypatch):
    preps = [preparation_circuit(label, (1,), 5) for label in "01p"]
    weights = collect_weights(preps, qx4_quiet, (1,))
    assert weights.shape == (3, 3, 2) and not weights.flags.writeable
    for prep, row in zip(preps, weights):
        assert np.array_equal(row, collect_dataset(prep, qx4_quiet, (1,)).weights)
    with pytest.raises(ValueError, match="2 seed"):
        collect_weights(preps, qx4_quiet, (1,), shots=10, seeds=[1, 2])
    execute = qptkit.state_tomography._execute_preparations

    def corrupt_last(*args):
        weights, groups = execute(*args)
        weights[-1, -1] = [1.5, -0.5]
        return weights, groups

    monkeypatch.setattr(qptkit.state_tomography, "_execute_preparations", corrupt_last)
    with pytest.raises(ValueError, match="negative weight for '1' under 'Y'"):
        collect_weights(preps, qx4_quiet, (1,))


def test_datasets_of_a_run_are_checked_once(qx4, monkeypatch):
    calls = []
    check = qptkit.state_tomography._check_weights
    monkeypatch.setattr(qptkit.state_tomography, "_check_weights",
                        lambda stack, shots: calls.append(stack.shape) or check(stack, shots))
    prep = parse_qasm(CI_FIVE_QUBITS)
    for shots in (None, 100):
        calls.clear()
        run = run_qst(prep, qx4, shots=shots, seed=4)
        dataset = collect_dataset(prep, qx4, shots=shots, seed=4)
        # the stack _collect checks, once per run; run_qst reconstructs its
        # row with the totals of that check, and the datasets keep the rows
        assert calls == [(1, 243, 32)] * 2
        for got in (run.dataset, dataset):
            assert got == TomographyDataset(shots, dataset.weights)
            assert got.weights.dtype == float and not got.weights.flags.writeable
            assert got.shots == shots
        assert np.array_equal(run.state, reconstruct_states(run.dataset.weights[None])[0])
        # run_qpt divides its weights by the totals of its one check
        for gate, lines, shape in (("h", (0,), (4, 3, 2)), ("cx", (3, 2), (16, 9, 4))):
            calls.clear()
            run_qpt(gate, lines, qx4, shots=shots, seed=4)
            assert calls == [shape]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_setting_stages_multiply_to_the_setting_circuits(n):
    qubits = (0, 2, 4, 1, 3)[:n]
    settings = _setting_circuits(qubits, 5)
    tags = qst_settings(n)
    assert len(settings) == 3 ** n
    # the settings are the product of per-qubit stages, each qubit's
    # rotations for its letter, then the shared measures: what a setting
    # applies to a qubit is what the setting of that letter alone, Z on every
    # other qubit, applies to it, which is where the backend reads it
    for s, setting in enumerate(settings):
        assert setting.instructions == append_setting(Circuit(5, 0), tags[s], qubits).instructions
        for j, q in enumerate(qubits):
            alone = settings[BASIS_ORDER.index(tags[s][j]) * 3 ** (n - 1 - j)]
            on = [[i for i in c.instructions if _qubits((i,)) == {q}] for c in (setting, alone)]
            assert all(a is b for a, b in zip(*on, strict=True))
        assert _qubits(setting.instructions) == set(qubits)
    # one object per (qubit, letter) rotation and one measure per qubit
    assert len({id(i) for c in settings for i in c.instructions}) == 3 * n + n


# preparations on all five qubits of CI's register, on some, and on one
_STAGED_PREPS = (CI_FIVE_QUBITS,
                 "OPENQASM 2.0;\nqreg q[5];\nh q[3];\ncx q[3],q[2];\nt q[2];\nsdg q[0];\n",
                 "OPENQASM 2.0;\nqreg q[5];\ny q[4];\n")


@pytest.mark.parametrize("mode", ["exact", "quiet", "idle", "flips"])
@pytest.mark.parametrize("lines", [(4, 2, 0), (3, 2, 1, 0), (1, 4, 0, 3, 2)])
def test_staged_settings_match_each_setting_run_alone(qx4, mode, lines):
    # the settings are read out of each preparation's state in stages, one
    # measured qubit at a time, idle decay on or off
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.02) for q in qx4.qubits)
    backend = {"exact": qx4, "quiet": qx4.with_noise(False), "idle": qx4.with_idle_decay(True),
               "flips": dataclasses.replace(qx4, qubits=flipping)}[mode]
    shots = 8192 if mode == "flips" else None
    for count in (2, 3):
        # the second preparation acts on q3, which (4, 2, 0) leaves unmeasured
        preps = [parse_qasm(text) for text in _STAGED_PREPS[:count]]
        seeds = child_seeds(0, count)
        got = collect_weights(preps, backend, lines, shots, seeds)
        circuits = [p.then(s) for p in preps for s in setting_circuits(lines, 5)]
        _assert_rows(got.reshape(len(circuits), -1), _stream(circuits, backend, shots, seeds),
                     mode not in ("exact", "idle"))


# a 24-gate 5-qubit circuit, 7 of them cx on qx4's coupling map: the size of
# the benchmark's qst circuits
_TWENTY_FOUR_GATES = (
    "OPENQASM 2.0;\nqreg q[5];\nh q[0];\ncx q[1],q[0];\nt q[2];\nsdg q[4];\ncx q[2],q[4];\n"
    "x q[3];\ns q[1];\ncx q[3],q[2];\ny q[0];\ntdg q[3];\nh q[4];\ncx q[2],q[1];\nz q[2];\n"
    "h q[1];\ncx q[3],q[4];\nt q[0];\ns q[4];\nsdg q[2];\ncx q[2],q[0];\nh q[3];\nx q[1];\n"
    "cx q[1],q[0];\nt q[4];\ny q[3];\n")


@pytest.mark.parametrize("noise, idle", [(False, False), (True, False), (True, True)],
                         ids=["False", "True", "idle"])
def test_five_qubit_qst_applies_its_circuits_maps_and_checks_one_stack(qx4, noise, idle,
                                                                      monkeypatch):
    circuit = parse_qasm(_TWENTY_FOUR_GATES)
    assert len(circuit.instructions) == 24
    applied, full, readout, evolved = [], [], [], []
    apply, check = qptkit.backend._apply, qptkit.backend.check_density_matrix
    check_readout, evolve = qptkit.backend._check_readout, qptkit.backend._evolve
    monkeypatch.setattr(qptkit.backend, "_apply",
                        lambda sup, rho, *args: applied.append(len(rho)) or apply(sup, rho, *args))
    monkeypatch.setattr(qptkit.backend, "check_density_matrix",
                        lambda m, *args, **kwargs: full.append(m.shape) or check(m, *args, **kwargs))
    monkeypatch.setattr(qptkit.backend, "_check_readout",
                        lambda m: readout.append(len(m)) or check_readout(m))
    monkeypatch.setattr(qptkit.backend, "_evolve",
                        lambda circuit, *args: evolved.append(circuit) or evolve(circuit, *args))
    run = run_qst(circuit, qx4.with_noise(noise).with_idle_decay(idle))
    assert run.reference is not None
    # only the circuit evolves, its 24 gates on one state, with idle decay
    # each followed by the decay of every other qubit (4 after each of the 17
    # single-qubit gates, 3 after each of the 7 cx); the 243 settings are
    # read out of that state, and no setting circuit evolves; its stack
    # passes the readout test, and the reference meets the full check
    assert evolved == [circuit]
    assert applied == [1] * (24 + (17 * 4 + 7 * 3 if idle else 0))
    assert readout == [1] and full == [(32, 32)]


def test_forty_preparations_read_out_from_one_stack(qx4_quiet, monkeypatch):
    lines = (4, 3, 2, 1, 0)
    preps = [preparation_circuit("".join(label), lines)
             for label in itertools.islice(itertools.product("01pr", repeat=5), 40)]
    evolved, readout = [], []
    evolve, check_readout = qptkit.backend._evolve, qptkit.backend._check_readout
    monkeypatch.setattr(qptkit.backend, "_evolve",
                        lambda circuit, *args: evolved.append(circuit) or evolve(circuit, *args))
    monkeypatch.setattr(qptkit.backend, "_check_readout",
                        lambda m: readout.append(len(m)) or check_readout(m))
    got = collect_weights(preps, qx4_quiet, lines)
    monkeypatch.undo()
    # the 40 preparations evolve once each, and their stack passes one
    # readout test; no setting circuit evolves
    assert evolved == preps and readout == [40]
    want = [r.probabilities for r in execute_many(
        [p.then(s) for p in preps for s in setting_circuits(lines, 5)], qx4_quiet)]
    assert np.array_equal(got.reshape(-1, 32), want)


def test_dataset_freezes_caller_arrays():
    w = np.full((3, 2), 50.0)
    ds = TomographyDataset(100, w)
    w[0, 1] = 100.0  # after the checks: the dataset must not see it
    assert ds.weights.tolist() == [[50.0, 50.0]] * 3
    assert not ds.weights.flags.writeable
    # a read-only view of a writable array is copied as well
    base = np.full((3, 2), 50.0)
    view = base[:]
    view.setflags(write=False)
    ds = TomographyDataset(100, view)
    base[0, 0] = 100.0
    assert ds.weights.tolist() == [[50.0, 50.0]] * 3


def _reduce_estimate(dataset, pauli):
    """<P> from the Z-filled setting, both sums as explicit left-to-right
    additions over outcome index."""
    mask = int("".join("0" if ch == "I" else "1" for ch in pauli), 2)
    weights = _row(dataset, pauli.replace("I", "Z")).tolist()
    signed = [-w if bin(mask & i).count("1") & 1 else w for i, w in enumerate(weights)]
    return reduce(operator.add, signed, 0.0) / reduce(operator.add, weights, 0.0)


def _random_dataset(rng, n, shots):
    rows = []
    for _ in range(3 ** n):
        probs = rng.dirichlet(np.ones(1 << n))
        zero = rng.random(1 << n) < 0.2  # zero weights, as exact runs have
        zero[int(rng.integers(1 << n))] = False
        probs[zero] = 0.0
        probs /= probs.sum()
        rows.append(probs if shots is None else rng.multinomial(shots, probs))
    return TomographyDataset(shots, np.array(rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_expectations_match_per_string_oracle(n):
    rng = np.random.default_rng(100 + n)
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    for shots in (None, 64):
        ds = _random_dataset(rng, n, shots)
        # the reconstruction is the dense sum over the Z-filled estimates
        rho = np.eye(1 << n, dtype=complex)
        for pauli in strings[1:]:
            rho += _reduce_estimate(ds, pauli) * pauli_string_matrix(pauli)
        rho /= 1 << n
        assert np.abs(reconstruct_states(ds.weights[None])[0] - rho).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_reconstruction_is_exactly_hermitian(n):
    rng = np.random.default_rng(500 + n)
    for shots in (None, 5, 64):
        stack = np.array([_random_dataset(rng, n, shots).weights for _ in range(3)])
        got = reconstruct_states(stack)
        assert np.array_equal(got, got.conj().swapaxes(1, 2))


@pytest.mark.parametrize("weights, message", [
    ([[np.nan, 1.0], [0.5, 0.5], [0.5, 0.5]], "dataset 1: non-finite weight for '0' under 'Z'"),
    ([[-1.0, 2.0], [1.0, 0.0], [0.5, 0.5]], "dataset 1: negative weight for '0' under 'Z'"),
    ([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]],
     "dataset 1: setting 'X': weights sum to 0.0, expected a positive total"),
], ids=["nan", "negative", "zero-total"])
def test_reconstruct_states_rejects_invalid_weights(weights, message):
    stack = np.array([np.full((3, 2), 0.5), weights])
    with pytest.raises(ValueError, match=f"^{message}$"):
        reconstruct_states(stack)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_reconstruction_matches_each_dataset(n):
    rng = np.random.default_rng(300 + n)
    for shots in (None, 64):
        datasets = [_random_dataset(rng, n, shots) for _ in range(5)]
        stack = np.array([ds.weights for ds in datasets])
        got = reconstruct_states(stack)
        assert got.shape == (5, 1 << n, 1 << n)
        for l, state in enumerate(got):
            assert np.array_equal(state, reconstruct_states(stack[l:l + 1])[0])
        # counts reconstruct as the floats they equal
        if shots is not None:
            assert np.array_equal(reconstruct_states(stack.astype(np.intp)), got)
        with pytest.raises(ValueError, match="weight stack"):
            reconstruct_states(stack[:, 1:])


def test_run_qst_reconstructs_its_own_dataset(qx4):
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\nt q[0];\n")
    for shots in (None, 256):
        run = run_qst(prep, qx4, shots=shots, seed=3)
        assert run.executions == 9 and run.dataset.weights.shape == (9, 4)
        assert run.dataset.qubit_count == 2 and run.dataset.shots == shots
        assert np.array_equal(run.state, reconstruct_states(run.dataset.weights[None])[0])


_ROUNDTRIP_CIRCUITS = {
    1: "qreg q[1];\nh q[0];\nt q[0];\n",
    2: "qreg q[2];\nh q[1];\ncx q[1],q[0];\ns q[0];\n",
    5: "qreg q[5];\nh q[0];\ncx q[1],q[0];\nt q[2];\nh q[3];\ncx q[3],q[4];\n"
       "s q[1];\nx q[4];\ncx q[2],q[1];\n",
}


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("shots", [None, 512])
def test_stored_dataset_reconstructs_the_run_state(qx4, n, shots):
    run = run_qst(parse_qasm("OPENQASM 2.0;\n" + _ROUNDTRIP_CIRCUITS[n]), qx4,
                  shots=shots, seed=None if shots is None else 5)
    stored = read_dataset(write_dataset(run.dataset))
    assert stored == run.dataset and stored.qubit_count == n
    assert np.array_equal(reconstruct_states(stored.weights[None])[0], run.state)


def _old_write_dataset(dataset):
    """The writer as a loop over every outcome."""
    n = dataset.qubit_count
    lines = ["format=1", f"qubits={n}",
             f"shots={'exact' if dataset.shots is None else dataset.shots}"]
    for tag in sorted(qst_settings(n)):
        parts = [tag]
        for outcome, weight in enumerate(_row(dataset, tag).tolist()):
            if weight:
                parts.append(f"{outcome:0{n}b}:{float(weight)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def test_write_dataset_of_repeated_weights_matches_outcome_loop(qx4_quiet):
    # exact noise-off weights of a 5-qubit circuit repeat most: few distinct values
    prep = parse_qasm("OPENQASM 2.0;\n" + _ROUNDTRIP_CIRCUITS[5])
    exact = collect_dataset(prep, qx4_quiet)
    nonzero = exact.weights[exact.weights != 0.0]
    assert len(np.unique(nonzero)) < len(nonzero) // 50
    counts = collect_dataset(prep, qx4_quiet, shots=64, seed=3)
    for ds in (exact, counts):
        text = write_dataset(ds)
        assert text == _old_write_dataset(ds)
        assert read_dataset(text) == ds


@pytest.mark.parametrize("n", [1, 3, 5])
def test_write_dataset_matches_outcome_loop(n):
    rng = np.random.default_rng(200 + n)
    for shots in (None, 50, 8192):
        ds = _random_dataset(rng, n, shots)
        text = write_dataset(ds)
        assert text == _old_write_dataset(ds)
        assert read_dataset(text) == ds


def test_write_dataset_matches_the_per_setting_join(qx4):
    prep = parse_qasm(CI_FIVE_QUBITS)
    flips = dataclasses.replace(qx4, qubits=tuple(
        dataclasses.replace(p, readout_flip_prob=0.02) for p in qx4.qubits))
    one = TomographyDataset(None, np.full((9, 4), 0.25))
    noisy = collect_dataset(prep, qx4)
    sparse = collect_dataset(prep, flips, shots=5, seed=0)
    assert len(np.unique(one.weights)) == 1
    assert len(np.unique(noisy.weights[noisy.weights != 0.0])) > 2000
    # five shots leave most of a setting's 32 outcomes undrawn
    assert np.count_nonzero(sparse.weights) <= 5 * 243
    for ds in (one, noisy, sparse):
        text = write_dataset(ds)
        assert text.encode() == unique_write_dataset(ds).encode()
        assert read_dataset(text) == ds


def _same_bits(a, b):
    """Equal bit patterns, so the sign of a zero counts."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_contraction_keeps_the_bits_of_six_products(n):
    rng = np.random.default_rng(600 + n)
    shape = (3, 3 ** n, 1 << n)
    floats = rng.random(shape)
    counts = rng.integers(0, 6, shape).astype(float)
    counts[..., 0] += 1
    zeros = np.where(rng.random(shape) < 0.5, 0.0, floats)
    signed = np.where(rng.random(shape) < 0.3, -0.0, zeros)
    # halving weights this small reaches subnormals, where it rounds
    tiny = floats * 10.0 ** rng.integers(-323, -295, shape)
    tiny[..., 0] = 1.0
    for name, weights in {"floats": floats, "counts": counts, "zeros": zeros,
                          "signed zeros": signed, "tiny": tiny}.items():
        normalised = weights / np.maximum(weights.sum(axis=2, keepdims=True), 1.0)
        got = qptkit.state_tomography._contract(normalised)
        assert _same_bits(got, six_product_contract(normalised)), name
        assert not np.signbit(got.view(float)[got.view(float) == 0.0]).any(), name


@pytest.mark.parametrize("noise", ["on", "off"])
@pytest.mark.parametrize("shots", [None, 8192])
def test_run_qst_state_keeps_the_bits_of_six_products(qx4, noise, shots):
    backend = qx4.with_noise(noise == "on")
    for source in (CI_FIVE_QUBITS, "OPENQASM 2.0;\n" + _ROUNDTRIP_CIRCUITS[2]):
        run = run_qst(parse_qasm(source), backend, shots=shots, seed=0)
        weights = run.dataset.weights[None]
        normalised = weights / np.cumsum(weights, axis=2)[:, :, -1:]
        assert _same_bits(run.state, six_product_contract(normalised)[0])
