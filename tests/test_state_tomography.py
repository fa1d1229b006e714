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
import qptkit.qasm
import qptkit.state_tomography
from qptkit import (
    GATE_TABLE_ORDER,
    Circuit,
    Gate,
    Measure,
    TomographyDataset,
    collect_dataset,
    execute,
    execute_exact,
    execute_many,
    parse_qasm,
    run_qst,
)
from oracles import (add_at_densities, append_setting, outcome_dict, pauli_string_matrix,
                     pauli_strings, setting_circuits)
from qptkit.process_tomography import preparation_circuit
from qptkit.state_tomography import (
    _densities,
    _estimates,
    _pauli_strings,
    _setting_stages,
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

    monkeypatch.setattr(qptkit.state_tomography, "_setting_stages", build)
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


_LEX_DIGITS = str.maketrans("IXYZ", "0123")


def _estimate(stack, pauli):
    """<P> of every dataset of a canonical stack, P a string like "IZ"."""
    return _estimates(stack)[:, int(pauli.translate(_LEX_DIGITS), 4) - 1]


def _canonical_stack(n, shots, rows):
    """A one-dataset stack: the given setting rows, every other setting uniform."""
    return _canonical_dataset(n, shots, rows).weights[None]


def test_estimate_pauli_signs():
    stack = _canonical_stack(2, 100, {"ZZ": np.array([40.0, 30.0, 20.0, 10.0])})
    assert _estimate(stack, "ZZ") == pytest.approx((40 - 30 - 20 + 10) / 100)
    assert _estimate(stack, "ZI") == pytest.approx((40 + 30 - 20 - 10) / 100)
    assert _estimate(stack, "IZ") == pytest.approx((40 - 30 + 20 - 10) / 100)
    # the identity coefficient is pinned: every state has trace 1
    assert np.trace(reconstruct_states(stack)[0]) == 1.0


def test_estimate_pauli_first_compatible_wins():
    stack = _canonical_stack(2, 100, {
        "ZX": np.array([75.0, 25.0, 0.0, 0.0]),
        "XZ": np.array([0.0, 0.0, 100.0, 0.0]),
        "XX": np.array([100.0, 0.0, 0.0, 0.0]),
    })
    # ZX precedes XX in the canonical enumeration, so it supplies <IX>
    assert _estimate(stack, "IX") == pytest.approx(0.5)
    assert _estimate(stack, "XX") == pytest.approx(1.0)
    # <XI> reads its Z-filled setting XZ, not XX
    assert _estimate(stack, "XI") == pytest.approx(-1.0)


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
                    assert _estimate(stack, pauli) == _scan_estimate(ds, pauli)
            # without every setting there is no stack to reconstruct from
            missing = np.delete(stack, int(rng.integers(3 ** n)), axis=1)
            with pytest.raises(ValueError, match="weight stack"):
                reconstruct_states(missing)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reconstruct_density_matches_dense_sum(n):
    rng = np.random.default_rng(10 + n)
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    values = rng.uniform(-1, 1, (2, len(strings) - 1))
    got = _densities(values, n)
    for row, state in zip(values, got):
        rho = np.eye(1 << n, dtype=complex)
        for value, pauli in zip(row.tolist(), strings[1:]):
            rho += value * pauli_string_matrix(pauli)
        rho /= 1 << n
        assert np.array_equal(state, (rho + rho.conj().T) / 2.0)


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
    # Recorded when the sampler became one multinomial per circuit; a seeded
    # sampled run must keep reproducing these counts exactly under one numpy.
    prep = preparation_circuit("p0", (3, 2), 5).extended(Gate("cx", (3, 2)))
    ds = collect_dataset(prep, qx4, qubits=(3, 2), shots=8192, seed=0)
    assert outcome_dict(_row(ds, "ZZ")) == {"00": 4152, "01": 70, "10": 65, "11": 3905}
    assert outcome_dict(_row(ds, "XX")) == {"00": 4086, "01": 81, "10": 72, "11": 3953}
    assert outcome_dict(_row(ds, "YY")) == {"00": 137, "01": 4003, "10": 4007, "11": 45}


def _setting_loop(prep, backend, qubits, shots=None, seed=None):
    """collect_dataset's weights as one execute_exact / execute call per
    setting circuit, in qst_settings order."""
    settings = qst_settings(len(qubits))
    rows = []
    for tag, s in zip(settings, child_seeds(seed, len(settings))):
        circuit = append_setting(prep, tag, qubits)
        if shots is None:
            rows.append(execute_exact(circuit, backend).probabilities)
        else:
            rows.append(execute(circuit, backend, shots, s).counts)
    return np.array(rows)


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
            assert np.array_equal(got.weights, want)
            # the stream keeps the backend's dtype: float probabilities, int counts
            stream = collect_weights([prep], backend, qubits, shots, [9])
            assert stream.dtype == want.dtype and np.array_equal(stream[0], want)


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
    seeds = child_seeds(3, len(settings))
    for row, setting, seed in zip(got, settings, seeds, strict=True):
        # each setting alone through execute_many: no stack, no shared prefix
        (alone,) = execute_many([prep.then(setting)], backend, shots,
                                None if shots is None else [seed])
        assert np.array_equal(row, alone.probabilities if shots is None else alone.counts)


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
    # 4 preparation gates once, then h (X) and sdg, h (Y); noiseless measures apply nothing
    assert len(applied) == 4 + 1 + 2


def test_collect_weights_matches_shared_suffixes_by_identity(qx4_quiet, monkeypatch):
    # the stages are built once per key; their product shares their objects
    assert _setting_stages((4, 1), 5) is _setting_stages((4, 1), 5)
    circuits = setting_circuits((4, 1), 5)
    prep = parse_qasm("OPENQASM 2.0;\nqreg q[5];\nh q[2];\ncx q[2],q[4];\nt q[1];\n")
    # the instructions of one setting at a time: one object per (letter, qubit)
    # for the rotations (h of X, sdg and h of Y) and one measure per qubit
    alone = [append_setting(prep, tag, (4, 1)).instructions[3:] for tag in qst_settings(2)]
    assert [list(c.instructions) for c in circuits] == [list(s) for s in alone]
    assert len({id(inst) for c in circuits for inst in c.instructions}) == 2 + 4 + 2
    compared = []
    for cls in (Gate, Measure):
        def recording(self, other, original=cls.__eq__):
            compared.append((self, other))
            return original(self, other)
        monkeypatch.setattr(cls, "__eq__", recording)
    weights = collect_weights([prep], qx4_quiet, (4, 1))
    monkeypatch.undo()
    # neighbouring settings are compared by value only where they branch apart
    assert compared and all(a != b for a, b in compared)
    assert np.array_equal(weights[0], collect_dataset(prep, qx4_quiet, (4, 1)).weights)


@pytest.mark.parametrize("mode", ["exact", "sampled", "idle", "flips"])
def test_stacked_preparations_match_one_preparation_at_a_time(qx4, mode):
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.02) for q in qx4.qubits)
    backend = {"exact": qx4, "sampled": qx4, "idle": qx4.with_idle_decay(True),
               "flips": dataclasses.replace(qx4, qubits=flipping)}[mode]
    shots = None if mode in ("exact", "idle") else 8192
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
        # the stream of every joined circuit, each setting with its own seed
        circuits = [p.then(c) for p in preps for c in setting_circuits(lines, 5)]
        circuit_seeds = [s for seed in seeds for s in child_seeds(seed, 3 ** len(lines))]
        stream = [r.probabilities if shots is None else r.counts
                  for r in execute_many(circuits, backend, shots, circuit_seeds)]
        assert np.array_equal(stacked.reshape(len(circuits), -1), stream)


def test_stacks_split_where_qubits_or_registers_differ(qx4, monkeypatch):
    wide = "OPENQASM 2.0;\nqreg q[5];\nh q[2];\ncx q[2],q[4];\nt q[1];\n"
    preps = [parse_qasm(wide), parse_qasm(wide).extended(Gate("s", (4,))),
             parse_qasm("OPENQASM 2.0;\nqreg q[5];\nx q[0];\n"),
             parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q[1];\n")]
    stacks = []
    evolve = qptkit.backend._evolve

    def recording(circuits, backend, start=None):
        if start is not None:  # a stage over a stack, not execute_many's stream
            stacks.append((len(circuits), len(start[1]), start[0]))
        return evolve(circuits, backend, start)

    monkeypatch.setattr(qptkit.backend, "_evolve", recording)
    seeds = [11, 12, 13, 14]
    for shots in (None, 300):
        stacks.clear()
        got = collect_weights(preps, qx4, (1, 0), shots, seeds)
        # the two preparations on q4 q2 q1 q0 share a stack, which the 3
        # rotations of q1 and then the 3 rotations and measures of q0 run
        # over; q1 q0 of a 5-qubit and of a 3-qubit register are two more
        wide, narrow = (4, 2, 1, 0), (1, 0)
        assert stacks == [(2, 1, wide), (3, 2, wide), (3, 6, wide),
                          (1, 1, narrow), (3, 1, narrow), (3, 3, narrow),
                          (1, 1, narrow), (3, 1, narrow), (3, 3, narrow)]
        circuits = [p.then(c) for p in preps for c in setting_circuits((1, 0), p.qubit_count)]
        circuit_seeds = [s for seed in seeds for s in child_seeds(seed, 9)]
        want = [r.probabilities if shots is None else r.counts
                for r in execute_many(circuits, qx4, shots, circuit_seeds)]
        assert np.array_equal(got.reshape(len(circuits), -1), want)


def _built_circuits(monkeypatch, preps, backend, qubits):
    """The circuits ``collect_weights`` hands to the backend: each preparation
    joined to each setting of the product of the stages it is handed with."""
    built = []
    execute = qptkit.state_tomography._execute_preparations

    def recording(preps, stages, *args):
        built.extend(reduce(Circuit.then, setting, p)
                     for p, chain in zip(preps, stages) for setting in itertools.product(*chain))
        return execute(preps, stages, *args)

    monkeypatch.setattr(qptkit.state_tomography, "_execute_preparations", recording)
    collect_weights(preps, backend, qubits)
    monkeypatch.undo()
    return built


def test_setting_circuits_match_extended_with_suffixes_checked_once(qx4_quiet, monkeypatch):
    prep = parse_qasm("OPENQASM 2.0;\nqreg r[5];\ncreg m[3];\nh r[2];\ncx r[2],r[4];\n"
                      "t r[1];\n")
    assert (prep.qreg, prep.creg, prep.classical_count) == ("r", "m", 3)
    _setting_stages.cache_clear()
    checks = []
    check = qptkit.qasm._check_instruction
    for qubits in ((4, 1), (0, 2, 4, 1, 3)):
        for preps in ([prep], [prep, parse_qasm("OPENQASM 2.0;\n" + _ROUNDTRIP_CIRCUITS[5])]):
            checks.clear()
            monkeypatch.setattr(qptkit.qasm, "_check_instruction",
                                lambda *args: checks.append(args[0]) or check(*args))
            built = _built_circuits(monkeypatch, preps, qx4_quiet, qubits)
            settings = setting_circuits(qubits, 5)
            # each instruction of each stage is checked once per (qubits,
            # register size), on the first call, and never when joined to a
            # preparation or to another stage
            first = preps == [prep]
            stages = _setting_stages(qubits, 5)
            assert len(checks) == (sum(len(c.instructions) for stage in stages for c in stage)
                                   if first else 0)
            want = [p.extended(*c.instructions, classical_count=len(qubits))
                    for p in preps for c in settings]
            assert len(built) == len(want)
            for got, expected in zip(built, want):
                assert got == expected and got.measurements == expected.measurements
                assert vars(got) == vars(expected)  # fields and cached measurements
                assert all(a is b for a, b in zip(got.instructions, expected.instructions))
    assert _setting_stages.cache_info().misses == 2
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
                        lambda stack, shots: calls.append(len(stack)) or check(stack, shots))
    prep = parse_qasm(CI_FIVE_QUBITS)
    for shots in (None, 100):
        calls.clear()
        run = run_qst(prep, qx4, shots=shots, seed=4)
        dataset = collect_dataset(prep, qx4, shots=shots, seed=4)
        # the stack _collect checks, once per run; the datasets keep its rows
        assert calls == [243, 243]
        for got in (run.dataset, dataset):
            assert got == TomographyDataset(shots, dataset.weights)
            assert got.weights.dtype == float and not got.weights.flags.writeable
            assert got.shots == shots


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_setting_stages_multiply_to_the_setting_circuits(n):
    qubits = (0, 2, 4, 1, 3)[:n]
    stages = _setting_stages(qubits, 5)
    settings = setting_circuits(qubits, 5)
    tags = qst_settings(n)
    # the heads rotate the first n // 2 qubits and measure nothing; one
    # qubit has no head stage
    *heads, tails = stages
    heads = heads[0] if heads else (Circuit(5, 0),)
    assert len(stages) == (1 if n == 1 else 2)
    assert (len(heads), len(tails)) == (3 ** (n // 2), 3 ** (n - n // 2))
    assert all(not h.measurements and h.classical_count == 0 for h in heads)
    for h, head in enumerate(heads):
        for t, tail in enumerate(tails):
            s = h * len(tails) + t
            joined = head.then(tail).instructions
            assert all(a is b for a, b in zip(joined, settings[s].instructions, strict=True))
            assert joined == append_setting(Circuit(5, 0), tags[s], qubits).instructions


# preparations on all five qubits of CI's register, on some, and on one
_STAGED_PREPS = (CI_FIVE_QUBITS,
                 "OPENQASM 2.0;\nqreg q[5];\nh q[3];\ncx q[3],q[2];\nt q[2];\nsdg q[0];\n",
                 "OPENQASM 2.0;\nqreg q[5];\ny q[4];\n")


@pytest.mark.parametrize("mode", ["exact", "idle", "flips"])
@pytest.mark.parametrize("lines", [(4, 2, 0), (3, 2, 1, 0), (1, 4, 0, 3, 2)])
def test_staged_settings_match_each_setting_run_alone(qx4, mode, lines):
    flipping = tuple(dataclasses.replace(q, readout_flip_prob=0.02) for q in qx4.qubits)
    backend = {"exact": qx4, "idle": qx4.with_idle_decay(True),
               "flips": dataclasses.replace(qx4, qubits=flipping)}[mode]
    shots = 8192 if mode == "flips" else None
    for count in (2, 3):
        preps = [parse_qasm(text) for text in _STAGED_PREPS[:count]]
        seeds = child_seeds(0, count)
        got = collect_weights(preps, backend, lines, shots, seeds)
        circuits = [p.then(s) for p in preps for s in setting_circuits(lines, 5)]
        circuit_seeds = [s for seed in seeds for s in child_seeds(seed, 3 ** len(lines))]
        want = [r.probabilities if shots is None else r.counts
                for r in execute_many(circuits, backend, shots, circuit_seeds)]
        assert got.dtype == want[0].dtype and np.array_equal(got.reshape(len(circuits), -1), want)


# a 24-gate 5-qubit circuit, 7 of them cx on qx4's coupling map: the size of
# the benchmark's qst circuits
_TWENTY_FOUR_GATES = (
    "OPENQASM 2.0;\nqreg q[5];\nh q[0];\ncx q[1],q[0];\nt q[2];\nsdg q[4];\ncx q[2],q[4];\n"
    "x q[3];\ns q[1];\ncx q[3],q[2];\ny q[0];\ntdg q[3];\nh q[4];\ncx q[2],q[1];\nz q[2];\n"
    "h q[1];\ncx q[3],q[4];\nt q[0];\ns q[4];\nsdg q[2];\ncx q[2],q[0];\nh q[3];\nx q[1];\n"
    "cx q[1],q[0];\nt q[4];\ny q[3];\n")


def test_five_qubit_qst_applies_75_maps_and_checks_28_stacks(qx4_quiet, monkeypatch):
    circuit = parse_qasm(_TWENTY_FOUR_GATES)
    assert len(circuit.instructions) == 24
    applied, full, readout = [], [], []
    apply, check = qptkit.backend._apply, qptkit.backend.check_density_matrix
    check_readout = qptkit.backend._check_readout
    monkeypatch.setattr(qptkit.backend, "_apply",
                        lambda sup, rho, *args: applied.append(len(rho)) or apply(sup, rho, *args))
    monkeypatch.setattr(qptkit.backend, "check_density_matrix",
                        lambda m, *args, **kwargs: full.append(len(m)) or check(m, *args, **kwargs))
    monkeypatch.setattr(qptkit.backend, "_check_readout",
                        lambda m: readout.append(len(m)) or check_readout(m))
    run = run_qst(circuit, qx4_quiet)
    assert run.reference is not None
    # the 24 gates on one state; the heads' 12 rotations of q4 q3 on it
    # (h for X, sdg and h for Y, each shared prefix once); the tails' 39
    # rotations of q2 q1 q0 over the 9 head states; noiseless measures apply
    # nothing
    assert applied == [1] * (24 + 12) + [9] * 39
    # each tail's 9 final states pass the readout test, and only the
    # reference meets the full check
    assert readout == [9] * 27 and full == [1]


def test_head_stacks_stay_under_the_readout_cap(qx4_quiet, monkeypatch):
    lines = (4, 3, 2, 1, 0)
    preps = [preparation_circuit("".join(label), lines)
             for label in itertools.islice(itertools.product("01pr", repeat=5), 40)]
    starts = []
    evolve = qptkit.backend._evolve

    def recording(circuits, backend, start=None):
        if start is not None and circuits[0].measurements:  # the tails over a stack
            starts.append(start[1].nbytes)
        return evolve(circuits, backend, start)

    monkeypatch.setattr(qptkit.backend, "_evolve", recording)
    got = collect_weights(preps, qx4_quiet, lines)
    monkeypatch.undo()
    # 9 head states of 16 KiB each: one preparation a batch, two would pass the cap
    assert starts == [9 << 14] * 40
    assert 9 << 14 <= qptkit.backend._READOUT_BYTES < 18 << 14
    want = [r.probabilities for r in execute_many(
        [p.then(s) for p in preps for s in setting_circuits(lines, 5)], qx4_quiet)]
    assert np.array_equal(got.reshape(-1, 32), want)
    # four measured qubits of a four-qubit stack: 7 preparations a batch
    narrow = [preparation_circuit("".join(label), lines[1:])
              for label in itertools.islice(itertools.product("01pr", repeat=4), 40)]
    monkeypatch.setattr(qptkit.backend, "_evolve", recording)
    starts.clear()
    collect_weights(narrow, qx4_quiet, lines[1:])
    assert starts == [7 * 9 << 12] * 5 + [5 * 9 << 12]


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


def test_estimates_are_sequential_sums():
    # sum([0.1] * 10) is 0.9999999999999999 added left to right and 1.0 when
    # compensated, as the builtin sum is from Python 3.12 on
    tenths = np.array([0.1] * 10 + [0.0] * 6)
    assert reduce(operator.add, tenths.tolist(), 0.0) == 0.9999999999999999
    rng = np.random.default_rng(4)
    ds = TomographyDataset(None, np.array([rng.permutation(tenths) for _ in range(3 ** 4)]))
    stack = ds.weights[None]
    for pauli in ("ZIII", "IIIZ", "ZZZZ", "IZIZ", "XXXX", "IXII", "YIXZ"):
        assert _estimate(stack, pauli) == _reduce_estimate(ds, pauli)


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


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_all_expectations_match_per_string_oracle(n):
    rng = np.random.default_rng(100 + n)
    strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    for shots in (None, 64):
        ds = _random_dataset(rng, n, shots)
        want = [_reduce_estimate(ds, p) for p in strings[1:]]
        stack = ds.weights[None]
        assert _estimates(stack)[0].tolist() == want
        # the reconstruction is the dense sum over those same values, bitwise
        rho = np.eye(1 << n, dtype=complex)
        for value, pauli in zip(want, strings[1:]):
            rho += value * pauli_string_matrix(pauli)
        rho /= 1 << n
        assert np.array_equal(reconstruct_states(stack)[0], (rho + rho.conj().T) / 2.0)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_densities_match_add_at_oracle(n):
    rng = np.random.default_rng(40 + n)
    for count in (1, 3):
        values = rng.uniform(-1.0, 1.0, size=(count, 4 ** n - 1))
        values[:, 0::4] = 0.0
        values[:, 1::4] = -0.0
        values[0] = -0.0  # every term a signed zero: the sums must start from zeros
        got = _densities(values, n)
        assert got.tobytes() == add_at_densities(values, n).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_string_tables_match_per_string_oracle(n):
    got = _pauli_strings(n)
    for name, want in pauli_strings(n).items():
        table = getattr(got, name)
        assert table.shape == want.shape and np.array_equal(table, want), name
        assert not table.flags.writeable, name
