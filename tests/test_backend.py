"""Backend config parsing and density-matrix execution."""

import itertools
import math
import operator
import re
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from qptkit import (
    BackendModel,
    Circuit,
    ConfigError,
    Gate,
    Measure,
    TopologyError,
    builtin_backend,
    execute,
    execute_exact,
    execute_many,
    load_backend,
    parse_qasm,
    run_qpt,
    run_qst,
)
from golden import regen
from qptkit import backend as backend_module
from qptkit.backend import DEFAULT_DURATIONS_NS, MAX_SHOTS, builtin_backend_names, read_backend
from oracles import (
    SINGLE_QUBIT_GATES,
    append_setting,
    distribution,
    embed_channel,
    embed_gate,
    flip_matrix,
    flipped,
    outcome_dict,
    sample,
)
from qptkit.channels import KrausChannel, decoherence_channel
from qptkit.operators import GATES, check_density_matrix, standard_gate
from qptkit.process_tomography import preparation_circuit
from qptkit.state_tomography import collect_weights, qst_settings


def _config(**overrides):
    lines = ["name=test"]
    for i in range(5):
        lines.append(f"q{i}.t1_us=50 q{i}.t2_us=50")
    lines.append("coupling=1>0")
    base = "\n".join(lines) + "\n"
    for key, value in overrides.items():
        base += f"{key.replace('__', '.')}={value}\n"
    return base


# --- configs -----------------------------------------------------------------


def test_builtin_names():
    assert builtin_backend_names() == ["qx2", "qx4"]
    with pytest.raises(ConfigError, match="available"):
        builtin_backend("qx9")


def test_builtin_backend_parsed_once_with_read_only_durations(qx4, tmp_path):
    assert builtin_backend("qx4") is qx4 and builtin_backend("qx2") is builtin_backend("qx2")
    for model in (qx4, qx4.scaled_durations(2.0), load_backend(_config())):
        with pytest.raises(TypeError):
            model.gate_durations_ns["h"] = 1.0
    assert qx4.gate_durations_ns["h"] == 60.0
    # a config file is read afresh on every call
    path = tmp_path / "device.cfg"
    path.write_text(_config(), encoding="utf-8")
    first = read_backend(path)
    path.write_text(_config().replace("name=test", "name=edited"), encoding="utf-8")
    second = read_backend(path)
    assert first.name == "test" and second.name == "edited"
    assert read_backend(path) is not second


def test_qx4_transcription(qx4):
    assert qx4.name == "ibmqx4-sim"
    assert qx4.qubits[0].t1_us == 48.70 and qx4.qubits[0].t2_us == 14.00
    assert qx4.qubits[4].t1_us == 56.60 and qx4.qubits[4].t2_us == 31.5
    assert qx4.coupling.to_text() == "1>0,2>0,2>1,2>4,3>2,3>4"
    assert qx4.coupling.allows(3, 2) and not qx4.coupling.allows(0, 1)
    assert qx4.gate_durations_ns["h"] == 60.0
    assert qx4.gate_durations_ns["cx"] == 300.0
    assert qx4.measure_duration_ns == 300.0
    assert qx4.noise_enabled and not qx4.idle_decay


def test_qx2_transcription(qx2):
    assert qx2.name == "ibmqx2-sim"
    assert qx2.qubits[2].t1_us == 52.08 and qx2.qubits[2].t2_us == 89.73
    assert qx2.coupling.allows(0, 1) and qx2.coupling.allows(4, 2)
    assert not qx2.coupling.allows(1, 0)


def test_minimal_config_defaults():
    b = load_backend(_config())
    assert b.name == "test"
    assert b.measure_duration_ns == DEFAULT_DURATIONS_NS["measure"]
    assert b.gate_durations_ns["x"] == DEFAULT_DURATIONS_NS["single"]
    assert b.qubits[3].readout_flip_prob == 0.0
    assert b.noise_enabled and not b.idle_decay


def test_config_comments_and_packed_lines():
    text = "# header\nname=t # trailing\n" + _config()[len("name=test\n"):]
    b = load_backend(text)
    assert b.name == "t"


@pytest.mark.parametrize(
    "text, message",
    [
        (_config() + "name=again\n", "duplicate key"),
        (_config() + "q7.t1_us=10\n", "unknown key"),
        (_config() + "format=2\n", "unsupported config format"),
        (_config() + "q0.readout_flip=maybe\n", "not a number"),
        (_config() + "noise=true\n", "expected on/off"),
        (_config().replace("name=test\n", ""), "missing required key 'name'"),
        ("name=x\nbroken\n", "expected key=value"),
    ],
)
def test_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        load_backend(text)


def test_config_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 8: duplicate key"):
        load_backend(_config() + "q3.t1_us=99\n")  # line 8 duplicates line 5


def test_unphysical_qubit_named():
    bad = _config().replace("q3.t1_us=50 q3.t2_us=50", "q3.t1_us=10 q3.t2_us=30")
    with pytest.raises(ConfigError, match="qubit 3"):
        load_backend(bad)


def test_backend_model_validation(qx4):
    with pytest.raises(ConfigError, match="exactly 5 qubits"):
        BackendModel("x", qx4.qubits[:3], qx4.gate_durations_ns, 300.0, qx4.coupling)
    with pytest.raises(ConfigError, match="missing gate durations"):
        BackendModel("x", qx4.qubits, {"h": 60.0}, 300.0, qx4.coupling)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_durations_must_be_finite_and_non_negative(qx4, value):
    # a non-finite duration used to load and fail later, inside the evolution
    for key, gate in (("dur.single_ns", "id"), ("dur.cx_ns", "cx")):
        with pytest.raises(ConfigError, match=f"^duration of gate '{gate}' must be finite "
                                              f"and non-negative, got {float(value)!r}$"):
            load_backend(_config() + f"{key}={value}\n")
    with pytest.raises(ConfigError, match="^measure duration must be finite and non-negative"):
        load_backend(_config() + f"dur.measure_ns={value}\n")
    # a scale factor is rejected where it enters, named as the factor
    with pytest.raises(ValueError, match=f"^duration scale factor must be finite and "
                                         f"non-negative, got {float(value)!r}$") as raised:
        qx4.scaled_durations(float(value))
    assert type(raised.value) is ValueError


def test_switch_copies(qx4):
    quiet = qx4.with_noise(False)
    assert not quiet.noise_enabled and qx4.noise_enabled
    lazy = qx4.with_idle_decay(True)
    assert lazy.idle_decay and not qx4.idle_decay


def test_scaled_durations(qx4):
    fast = qx4.scaled_durations(2.0)
    assert fast.gate_durations_ns["h"] == 120.0
    assert fast.gate_durations_ns["cx"] == 600.0
    assert fast.measure_duration_ns == 600.0
    assert qx4.gate_durations_ns["h"] == 60.0
    with pytest.raises(ValueError, match="non-negative"):
        qx4.scaled_durations(-1.0)
    # a finite factor whose products overflow
    with pytest.raises(ConfigError, match="^duration of gate 'id' .* got inf$"):
        qx4.scaled_durations(1e308)


# --- exact evolution ---------------------------------------------------------


def test_exact_x_noiseless(qx4_quiet):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
    res = execute_exact(c, qx4_quiet)
    assert outcome_dict(res.probabilities) == {"1": 1.0}
    assert np.allclose(res.final_state, np.diag([0.0, 1.0]))


def test_exact_h_noiseless(qx4_quiet):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n")
    probs = outcome_dict(execute_exact(c, qx4_quiet).probabilities)
    assert set(probs) == {"0", "1"}
    assert abs(probs["0"] - 0.5) < 1e-12 and abs(probs["1"] - 0.5) < 1e-12


def test_exact_bell_noiseless(qx4_quiet):
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[1];\ncx q[1], q[0];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    probs = outcome_dict(execute_exact(c, qx4_quiet).probabilities)
    assert set(probs) == {"00", "11"}
    assert abs(probs["11"] - 0.5) < 1e-12


def test_counts_key_is_msb_first():
    b = load_backend(_config()).with_noise(False)
    # q1 is excited and lands in c0; q0 stays ground and lands in c1.
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nx q[1];\n"
        "measure q[1] -> c[0];\nmeasure q[0] -> c[1];\n"
    )
    assert outcome_dict(execute_exact(c, b).probabilities) == {"01": 1.0}


def test_no_measurement_gives_state_only(qx4_quiet):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    res = execute_exact(c, qx4_quiet)
    assert res.probabilities is None
    assert abs(res.final_state[0, 1] - 0.5) < 1e-12


def test_gate_decay_population(qx4):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
    rho = execute_exact(c, qx4).final_state
    expected = math.exp(-60.0 / (48.70 * 1e3))
    assert abs(rho[1, 1].real - expected) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_measure_decay_included(qx4):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
    res = execute_exact(c, qx4)
    expected = math.exp(-(60.0 + 300.0) / (48.70 * 1e3))
    assert abs(outcome_dict(res.probabilities)["1"] - expected) < 1e-12
    assert abs(res.final_state[1, 1].real - expected) < 1e-12


def test_coherence_decay(qx4):
    # Off-diagonal decays with both T1 and pure dephasing over one h gate.
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    rho = execute_exact(c, qx4).final_state
    t1_ns, t2_ns = 48.70e3, 14.00e3
    gamma = -math.expm1(-60.0 / t1_ns)
    rate_phi = 1.0 / t2_ns - 1.0 / (2.0 * t1_ns)
    p = -math.expm1(-60.0 * rate_phi) / 2.0
    expected = 0.5 * math.sqrt(1.0 - gamma) * (1.0 - 2.0 * p)
    assert abs(rho[0, 1].real - expected) < 1e-12


def test_idle_decay_switch(qx4):
    text = "OPENQASM 2.0;\nqreg q[2];\nx q[0];\nid q[1];\nid q[1];\n"
    c = parse_qasm(text)
    t1_ns = 48.70e3
    busy = execute_exact(c, qx4).final_state
    assert abs(busy[1, 1].real - math.exp(-60.0 / t1_ns)) < 1e-12
    lazy = execute_exact(c, qx4.with_idle_decay(True)).final_state
    assert abs(lazy[1, 1].real - math.exp(-180.0 / t1_ns)) < 1e-12


def test_noiseless_purity(qx4_quiet):
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nt q[1];\ncx q[2], q[1];\ns q[2];\n"
    )
    rho = execute_exact(c, qx4_quiet).final_state
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12


def test_topology_enforced(qx4):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n")
    with pytest.raises(TopologyError, match=r"cx 0>1.*coupling map"):
        execute_exact(c, qx4)
    with pytest.raises(TopologyError):
        execute(c, qx4, shots=16, seed=0)


# --- sampling ----------------------------------------------------------------

H_MEASURED = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"


def test_sampling_deterministic(qx4_quiet):
    c = parse_qasm(H_MEASURED)
    a = execute(c, qx4_quiet, shots=1024, seed=7)
    b = execute(c, qx4_quiet, shots=1024, seed=7)
    assert outcome_dict(a.counts) == outcome_dict(b.counts) and a.shots == 1024
    other = execute(c, qx4_quiet, shots=1024, seed=8)
    assert outcome_dict(other.counts) != outcome_dict(a.counts)


def test_sampling_sums_to_shots(qx4_quiet):
    c = parse_qasm(H_MEASURED)
    res = execute(c, qx4_quiet, shots=4096, seed=3)
    assert res.counts.shape == (2,)
    counts = outcome_dict(res.counts)
    assert sum(counts.values()) == 4096
    assert set(counts) <= {"0", "1"}


def test_sampling_deterministic_circuit(qx4_quiet):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
    res = execute(c, qx4_quiet, shots=500, seed=0)
    assert outcome_dict(res.counts) == {"1": 500}


def test_sampling_binomial_bound(qx4_quiet):
    shots = 10000
    res = execute(parse_qasm(H_MEASURED), qx4_quiet, shots=shots, seed=11)
    p_hat = outcome_dict(res.counts).get("1", 0) / shots
    assert abs(p_hat - 0.5) < 5.0 * math.sqrt(0.25 / shots)


def test_sampling_tv_distance(qx4_quiet):
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[1];\ncx q[1], q[0];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    shots = 8192
    exact = outcome_dict(execute_exact(c, qx4_quiet).probabilities)
    sampled = outcome_dict(execute(c, qx4_quiet, shots=shots, seed=5).counts)
    keys = set(exact) | set(sampled)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - sampled.get(k, 0) / shots) for k in keys)
    assert tv < 5.0 * math.sqrt(math.log(2.0 / 1e-6) / (2.0 * shots))


def test_readout_flip():
    b = load_backend(_config(q0__readout_flip="0.2"))
    # ground state, so every observed "1" comes from the readout flip
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n")
    shots = 8192
    res = execute(c, b, shots=shots, seed=2)
    frac = outcome_dict(res.counts).get("1", 0) / shots
    assert abs(frac - 0.2) < 5.0 * math.sqrt(0.2 * 0.8 / shots)


def test_sampling_rejects_unmeasured(qx4_quiet):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
    with pytest.raises(ValueError, match="no measurements"):
        execute(c, qx4_quiet, shots=10, seed=0)
    with pytest.raises(ValueError, match="shots"):
        execute(parse_qasm(H_MEASURED), qx4_quiet, shots=0, seed=0)


# Counts recorded when the sampler became one multinomial per circuit; a
# seeded sampled run must keep reproducing them exactly under one numpy.


def test_golden_counts_readout_flips():
    b = load_backend(_config(q0__readout_flip="0.1", q1__readout_flip="0.3"))
    # c[1] is never written, so a flip must land on the measure's own bit
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[3];\nh q[1];\ncx q[1], q[0];\n"
                   "measure q[0] -> c[2];\nmeasure q[1] -> c[0];\n")
    res = execute(c, b, shots=2000, seed=5)
    assert outcome_dict(res.counts) == {"000": 683, "001": 331, "100": 357, "101": 629}


def test_golden_counts_five_qubits(qx4):
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[5];\ncreg c[5];\nx q[0];\nh q[3];\ncx q[3], q[2];\nh q[4];\n"
        "measure q[0] -> c[4];\nmeasure q[1] -> c[3];\nmeasure q[2] -> c[0];\n"
        "measure q[3] -> c[2];\nmeasure q[4] -> c[1];\n"
    )
    res = execute(c, qx4, shots=4096, seed=11)
    # 12 of the 32 outcomes drawn, keys in increasing order
    assert list(outcome_dict(res.counts).items()) == [
        ("00000", 5), ("00010", 8), ("00101", 11), ("00111", 4), ("10000", 961),
        ("10001", 16), ("10010", 1036), ("10011", 14), ("10100", 9), ("10101", 1021),
        ("10110", 12), ("10111", 999),
    ]


def test_golden_counts_undrawn_outcome_absent(qx4):
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\n")
    assert 0.0 < outcome_dict(execute_exact(c, qx4).probabilities)["0"] < 0.01
    assert outcome_dict(execute(c, qx4, shots=64, seed=1).counts) == {"1": 64}
    assert outcome_dict(execute(c, qx4, shots=64, seed=5).counts) == {"0": 1, "1": 63}


def _dict_distribution(reduced, active, circuit):
    """The outcome weights as the backend built them before they were arrays.

    A dict by classical bitstring, zero weights skipped while accumulating,
    normalised by the sum of its values in insertion order.
    """
    if not circuit.measurements:
        return None
    k, m = len(active), circuit.classical_count
    shift = {q: k - 1 - i for i, q in enumerate(active)}
    keys = []
    for idx in range(1 << k):
        bits = ["0"] * m
        for meas in circuit.measurements:
            bits[m - 1 - meas.clbit] = str((idx >> shift[meas.qubit]) & 1)
        keys.append("".join(bits))
    weights = np.clip(np.diag(reduced).real, 0.0, None)
    probs = {}
    for key, w in zip(keys, weights.tolist()):
        if w == 0.0:
            continue
        probs[key] = probs.get(key, 0.0) + w
    total = sum(probs.values())
    return {key: v / total for key, v in sorted(probs.items())}


def _tomography_batches(backend):
    """The setting circuits of every qx4 placement, one batch per preparation
    as ``collect_dataset`` runs them, then those of three random 5-qubit
    preparations measured on every qubit and on two of them, and those of a
    parity register measured on two of its three qubits."""
    placements = [(g, (q,)) for g in SINGLE_QUBIT_GATES for q in range(5)]
    placements += [("cx", pair) for pair in sorted(backend.coupling.pairs)]
    assert len(placements) == 51
    for gate, lines in placements:
        for label in map("".join, itertools.product("01pr", repeat=len(lines))):
            prep = preparation_circuit(label, lines).extended(Gate(gate, lines))
            yield [append_setting(prep, tag, lines) for tag in qst_settings(len(lines))]
    rng = np.random.default_rng(5)
    pairs = sorted(backend.coupling.pairs)
    for _ in range(3):
        gates = [Gate("cx", pairs[int(rng.integers(len(pairs)))]) if rng.random() < 0.3
                 else Gate(SINGLE_QUBIT_GATES[int(rng.integers(len(SINGLE_QUBIT_GATES)))],
                           (int(rng.integers(5)),))
                 for _ in range(24)]
        prep = Circuit(5, 0, tuple(gates))
        yield [append_setting(prep, tag) for tag in qst_settings(5)]
        yield [append_setting(prep, tag, (0, 3)) for tag in qst_settings(2)]
    # q4 = NOT(q3 XOR q2), read out on q3 and q2: with noise off the outcome at
    # local index 0 has its only nonzero weight at index 4, so the order of the
    # first nonzero weights, which the total follows, is not the index order
    rotated = [Gate(g, (q,)) for q in (3, 2) for g in ("h", "t", "h")]
    parity = Circuit(5, 0, (*rotated, Gate("x", (4,)), Gate("cx", (3, 4)), Gate("cx", (2, 4))))
    for lines in ((3, 2), (2, 3)):
        yield [append_setting(parity, tag, lines) for tag in qst_settings(2)]


def _per_circuit(circuits, backend):
    """(circuit, final state, active qubits) of each circuit, evolved alone
    by ``_evolve``."""
    return [(circuit, *backend_module._evolve(circuit, backend)) for circuit in circuits]


@pytest.mark.parametrize("mode", ["quiet", "noisy", "idle"])
def test_distribution_matches_dict_reference(qx4, mode):
    backend = {"quiet": qx4.with_noise(False), "noisy": qx4,
               "idle": qx4.with_idle_decay(True)}[mode]
    compared = 0
    for batch in _tomography_batches(qx4):
        evolved = _per_circuit(batch, backend)
        for (circuit, reduced, active), result in zip(evolved, execute_many(batch, backend),
                                                      strict=True):
            got = result.probabilities
            assert got.dtype == np.float64 and got.shape == (1 << circuit.classical_count,)
            assert not got.flags.writeable
            assert got.tobytes() == distribution(reduced, active, circuit).tobytes()
            assert list(outcome_dict(got).items()) == list(
                _dict_distribution(reduced, active, circuit).items())
            compared += 1
    assert compared == 45 * 12 + 6 * 144 + 3 * 243 + 3 * 9 + 2 * 9


def _with_flips(backend, flips):
    """The backend with qubit q's readout flip probability set to flips[q]."""
    return replace(backend, qubits=tuple(replace(p, readout_flip_prob=f)
                                         for p, f in zip(backend.qubits, flips)))


@pytest.mark.parametrize("shots", [1, 5, 8192])
@pytest.mark.parametrize("flips", ["zero", "random"])
def test_sampled_stream_matches_per_circuit_oracle(qx4, flips, shots):
    rng = np.random.default_rng(shots)
    if flips == "random":
        backend = _with_flips(qx4, rng.uniform(0.0, 0.1, size=5).tolist())
        assert all(q.readout_flip_prob > 0.0 for q in backend.qubits)
    else:
        backend = qx4
    batches = list(_tomography_batches(qx4))
    # a share of the placements' batches, one 5-qubit preparation measured on
    # all qubits and on two, and both parity batches, at the test's shots
    chosen = batches[:-8:4 if shots < 8192 else 9] + batches[-8:-6] + batches[-2:]
    runs = [(batch, shots, [int(s) for s in rng.integers(0, 2**63, size=len(batch))])
            for batch in chosen]
    # and the 18 setting circuits of two 2-qubit preparations at 300 shots
    two = [append_setting(preparation_circuit(label, (1, 0)), tag, (1, 0))
           for label in ("0p", "r1") for tag in qst_settings(2)]
    runs.append((two, 300, list(range(100, 100 + len(two)))))
    compared = 0
    for batch, n, seeds in runs:
        evolved = _per_circuit(batch, backend)
        got = execute_many(batch, backend, shots=n, seeds=seeds)
        for (circuit, reduced, active), seed, result in zip(evolved, seeds, got, strict=True):
            want = sample(distribution(reduced, active, circuit), circuit, backend, n, seed)
            assert result.counts.dtype == want.dtype and not result.counts.flags.writeable
            assert np.array_equal(result.counts, want)
            compared += 1
    assert compared > 300


def test_chunk_with_mixed_readouts_matches_per_circuit_oracle(qx4):
    backend = _with_flips(qx4, [0.0, 0.03, 0.0, 0.08, 0.0])
    prep = (Gate("h", (1,)), Gate("cx", (1, 0)), Gate("t", (3,)), Gate("h", (3,)))
    readouts = [
        (Measure(0, 0), Measure(1, 1)),
        (Measure(0, 0), Measure(1, 1)),
        (),
        (Measure(1, 0), Measure(0, 1)),
        (Measure(3, 2), Measure(0, 0)),
        (),
        (),
        (Measure(0, 0), Measure(1, 1)),
    ]
    batch = [Circuit(5, 3, (*prep, Gate("x", (3,)) if i % 2 else Gate("h", (0,)), *measures))
             for i, measures in enumerate(readouts)]
    evolved = _per_circuit(batch, backend)
    active = (3, 1, 0)
    assert all(on == active for _, _, on in evolved)
    for (circuit, state, _), result in zip(evolved, execute_many(batch, backend), strict=True):
        want = distribution(state, active, circuit)
        if want is None:
            assert result.probabilities is None
        else:
            assert result.probabilities.tobytes() == want.tobytes()
    measured = [(c, s) for c, s, _ in evolved if c.measurements]
    seeds = list(range(len(measured)))
    got = execute_many([c for c, _ in measured], backend, shots=500, seeds=seeds)
    for (circuit, state), seed, result in zip(measured, seeds, got, strict=True):
        want = sample(distribution(state, active, circuit), circuit, backend, 500, seed)
        assert np.array_equal(result.counts, want)


def _counting(monkeypatch, calls, *names):
    """Record (name, rows) of each call of the named backend readout steps."""
    for name in names:
        def counting(stack, *args, original=getattr(backend_module, name), name=name):
            calls.append((name, len(stack)))
            return original(stack, *args)
        monkeypatch.setattr(backend_module, name, counting)


@pytest.mark.parametrize("shots", [None, 100])
def test_execute_many_yields_its_first_result_before_the_second_circuit_evolves(
        qx4, shots, monkeypatch):
    backend = _with_flips(qx4, [0.0, 0.03, 0.0, 0.08, 0.0])
    evolved, read = [], []
    evolve = backend_module._evolve
    monkeypatch.setattr(backend_module, "_evolve",
                        lambda circuit, *args: evolved.append(circuit) or evolve(circuit, *args))
    _counting(monkeypatch, read, "_distributions", "_sample")
    prep = parse_qasm(FIVE_QUBIT_PREP)
    circuits = [append_setting(prep, tag, (3, 1)) for tag in qst_settings(2)]
    seeds = None if shots is None else list(range(len(circuits)))
    results = execute_many(circuits, backend, shots, seeds)
    first = next(results)
    # one circuit evolved and read out, one row, and the rest not yet
    per_circuit = [("_distributions", 1)] + ([] if shots is None else [("_sample", 1)])
    assert evolved == circuits[:1] and evolved[0] is circuits[0] and read == per_circuit
    rest = list(results)
    assert evolved == circuits and read == per_circuit * len(circuits)
    monkeypatch.undo()
    for (circuit, state, active), got, i in zip(_per_circuit(circuits, backend), [first, *rest],
                                                range(len(circuits)), strict=True):
        want = distribution(state, active, circuit)
        if shots is None:
            assert got.probabilities.tobytes() == want.tobytes()
        else:
            assert np.array_equal(got.counts, sample(want, circuit, backend, shots, i))


def test_sample_matches_per_circuit_oracle():
    rng = np.random.default_rng(8)
    # random flips, then every flip zero; some classical bits never written
    for trial, flip_choices in enumerate([["0.0", "0.05", "0.3"]] * 40 + [["0.0"]] * 30):
        m = int(rng.integers(1, 6))
        flips = {f"q{q}__readout_flip": str(rng.choice(flip_choices)) for q in range(5)}
        backend = load_backend(_config(**flips))
        count = int(rng.integers(m, 6))
        qubits = rng.permutation(5)[:m]
        clbits = rng.permutation(count)[:m]
        circuit = Circuit(5, count, tuple(Measure(int(q), int(c))
                                          for q, c in zip(qubits, clbits)))
        written = np.bitwise_or.reduce(1 << clbits)
        weights = rng.random(1 << count) * (rng.random(1 << count) < 0.6)
        weights[np.arange(1 << count) & ~written != 0] = 0.0
        weights[int(rng.integers(1 << count)) & written] += 0.01
        probabilities = weights / weights.sum()
        # the oracle's fold is the Kronecker product of the flip matrices
        assert np.allclose(flipped(probabilities, circuit, backend),
                           flip_matrix(circuit, backend) @ probabilities, rtol=0.0, atol=1e-15)
        # seeds of 2^64 and above take more than two words of numpy's pool
        seed = trial if trial % 2 else (trial + 1) << 64
        for shots in (int(rng.integers(1, 3000)), 1):
            got = backend_module._sample(probabilities[None], circuit.measurements, backend,
                                         shots, [seed])[0]
            want = sample(probabilities, circuit, backend, shots, seed)
            assert got.dtype == want.dtype and not got.flags.writeable
            assert np.array_equal(got, want)


@pytest.mark.parametrize("count", [1, 3, 4, 9, 16, 243])
def test_seed_words_match_numpy(count):
    rng = np.random.default_rng(count)
    seeds = [*rng.integers(0, 1 << 64, 2000, dtype=np.uint64).tolist(),
             0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1, 1 << 64, 1 << 100]
    got = backend_module._seed_words(seeds, count)
    want = np.array([np.random.SeedSequence(s).generate_state(count, np.uint64) for s in seeds])
    assert got.dtype == np.uint64 and got.shape == (len(seeds), count)
    assert np.array_equal(got, want)


def test_seed_words_fresh_entropy_and_errors():
    rows = backend_module._seed_words([None, None, 7, None], 4)
    assert len({row.tobytes() for row in rows}) == 4
    assert np.array_equal(rows[2], np.random.SeedSequence(7).generate_state(4, np.uint64))
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        backend_module._seed_words([1, -3], 4)
    # PCG64 asks for exactly the four uint64 words it is handed, nothing else
    words = backend_module._Words(rows[2])
    assert np.array_equal(words.generate_state(4, np.uint64), rows[2])
    for n_words, dtype in [(3, np.uint64), (5, np.uint64), (4, np.uint32), (8, np.uint32)]:
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            words.generate_state(n_words, dtype)
    rng = np.random.Generator(np.random.PCG64(words))
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state


@pytest.mark.parametrize("flips", ["zero", "some"])
def test_sample_moments_match_the_multinomial(flips):
    # over 2,000 fixed seeds the counts' mean and covariance are N p' and
    # N (diag p' - p' p'^T) within 4 standard errors, p' the flipped weights
    config = {"q0__readout_flip": "0.05", "q2__readout_flip": "0.2"} if flips == "some" else {}
    backend = load_backend(_config(**config))
    # c[1] is never written, so its outcomes keep weight zero with flips too
    circuit = Circuit(5, 4, (Measure(2, 0), Measure(0, 2), Measure(3, 3)))
    weights = np.random.default_rng(4).random(16)
    weights[(np.arange(16) & 2 != 0) | np.isin(np.arange(16), [0, 9])] = 0.0
    probabilities = weights / weights.sum()
    p = flip_matrix(circuit, backend) @ probabilities
    seeds, shots = 2000, 500
    counts = backend_module._sample(np.broadcast_to(probabilities, (seeds, 16)),
                                    circuit.measurements, backend, shots, range(seeds))
    assert counts.shape == (seeds, 16) and (counts.sum(axis=1) == shots).all()
    mean = counts.mean(axis=0)
    assert (abs(mean - shots * p) <= 4.0 * np.sqrt(shots * p * (1.0 - p) / seeds)).all()
    deviations = counts - mean
    products = deviations[:, :, None] * deviations[:, None, :]
    covariance = shots * (np.diag(p) - np.outer(p, p))
    error = products.std(axis=0) / np.sqrt(seeds)
    assert (abs(products.mean(axis=0) - covariance) <= 4.0 * error + 1e-12).all()
    # an outcome of weight zero is never drawn
    assert not counts[:, p == 0.0].any()
    assert (p == 0.0).sum() == (8 if flips == "some" else 10)


def _tensordot_apply(sup, rho, axes, k):
    """The contraction _apply replaced, written out."""
    m = len(axes)
    state_axes = list(axes) + [k + a for a in axes]
    out = np.tensordot(sup, rho, axes=(list(range(2 * m, 4 * m)), state_axes))
    return np.moveaxis(out, list(range(2 * m)), state_axes)


def _stored(stack, layout):
    """A ``(B, 2, ..., 2)`` stack of states stored in ``layout``, as the
    evolution holds it, C-contiguous ``(B, 4**k)``."""
    return stack.transpose(0, *(1 + a for a in layout)).reshape(len(stack), -1)


def _unstored(stored, layout):
    """The ``(B, 2, ..., 2)`` states of a stack stored in ``layout``."""
    return stored.reshape(len(stored), *(2,) * len(layout)).transpose(0, *(1 + np.argsort(layout)))


def _layouts(k):
    """Every layout _apply leaves a stack of 2k-axis states in (one per
    single target and per ordered pair of targets), and the canonical one."""
    targets = [axes for m in (1, 2) for axes in itertools.permutations(range(k), m)]
    return list(dict.fromkeys([tuple(range(2 * k)),
                               *(backend_module._order(axes, k) for axes in targets)]))


def test_apply_matches_tensordot():
    rng = np.random.default_rng(31)
    for k in range(1, 6):
        shape = (2,) * (2 * k)
        rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # canonical, reversed, and each layout a map leaves: the evolution
        # hands _apply its stack as the map before stored it
        layouts = [tuple(range(2 * k)), tuple(range(2 * k))[::-1], *_layouts(k)]
        for m in (1, 2):
            sup = (rng.normal(size=(2,) * (4 * m))
                   + 1j * rng.normal(size=(2,) * (4 * m)))
            for axes in itertools.permutations(range(k), m):
                want = _tensordot_apply(sup, rho, axes, k)
                for layout in layouts:
                    got, order = backend_module._apply(sup, _stored(rho[None], layout), layout,
                                                       axes, k)
                    assert got.shape == (1, 1 << (2 * k)) and got.flags.c_contiguous
                    assert order == backend_module._order(axes, k)
                    assert np.array_equal(_unstored(got, order)[0], want)


def _dot_apply(sup, rho, axes, k):
    """One state's product as one ``np.dot``, the form the stacked product replaced."""
    targets = axes + tuple(k + a for a in axes)
    order = targets + tuple(a for a in range(2 * k) if a not in targets)
    n = 1 << (2 * len(axes))
    out = np.dot(sup.reshape(n, n), rho.transpose(order).reshape(n, -1))
    return out.reshape((2,) * (2 * k)).transpose(np.argsort(order))


def test_stacked_apply_matches_each_state_alone():
    rng = np.random.default_rng(47)
    for k in range(1, 6):
        for size in (1, 4, 16):
            shape = (size,) + (2,) * (2 * k)
            stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for m in range(1, min(k, 2) + 1):
                sup = rng.normal(size=(2,) * (4 * m)) + 1j * rng.normal(size=(2,) * (4 * m))
                for axes in itertools.permutations(range(k), m):
                    # stored canonically and reversed, as the evolution may hand them
                    for layout in (tuple(range(2 * k)), tuple(range(2 * k))[::-1]):
                        states = _stored(stack, layout)
                        got, order = backend_module._apply(sup, states, layout, axes, k)
                        assert got.shape == states.shape
                        for b in range(size):
                            alone, _ = backend_module._apply(sup, states[b:b + 1], layout, axes, k)
                            assert got[b].tobytes() == alone[0].tobytes()
                            assert (_unstored(alone, order)[0].tobytes()
                                    == _dot_apply(sup, stack[b], axes, k).tobytes())


@pytest.mark.parametrize("k", range(1, 6))
def test_gather_is_bitwise_the_transpose_it_replaces(k):
    # -0.0 and NaN entries, whose bits an arithmetic move could change
    rng = np.random.default_rng(k)
    shape = (3,) + (2,) * (2 * k)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = stack.reshape(-1)
    flat[rng.choice(flat.size, flat.size // 4, replace=False)] = complex(-0.0, -0.0)
    flat[rng.choice(flat.size, flat.size // 8, replace=False)] = complex(np.nan, -0.0)
    layouts = _layouts(k)
    for layout in layouts:
        stored = _stored(stack, layout)
        for order in layouts:
            got = backend_module._gather(stored, layout, order)
            assert got.flags.c_contiguous and got.tobytes() == _stored(stack, order).tobytes()


# --- dense oracle ------------------------------------------------------------


def _dense_reference(circuit, backend):
    """Full-register evolution: embedded gates, embedded decay Kraus sums."""
    n = circuit.qubit_count
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0

    def decay(rho, q, duration):
        channel = decoherence_channel(backend.qubits[q], duration)
        ops = embed_channel(channel, [q], n).operators
        return sum(e @ rho @ e.conj().T for e in ops)

    for inst in circuit.instructions:
        if isinstance(inst, Gate):
            u = embed_gate(standard_gate(inst.name), inst.targets, n)
            rho = u @ rho @ u.conj().T
            if backend.noise_enabled:
                involved = range(n) if backend.idle_decay else inst.targets
                for q in involved:
                    rho = decay(rho, q, backend.gate_durations_ns[inst.name])
        elif backend.noise_enabled:
            rho = decay(rho, inst.qubit, backend.measure_duration_ns)
    probs = {}
    for idx, w in enumerate(np.diag(rho).real):
        bits = ["0"] * circuit.classical_count
        for m in circuit.measurements:
            bits[circuit.classical_count - 1 - m.clbit] = str((idx >> m.qubit) & 1)
        key = "".join(bits)
        probs[key] = probs.get(key, 0.0) + w
    return rho, probs


def _random_measured_circuit(rng, coupling_pairs):
    qubits = [int(q) for q in rng.permutation(5)[: int(rng.integers(1, 6))]]
    pairs = [p for p in coupling_pairs if p[0] in qubits and p[1] in qubits]
    instructions = []
    for _ in range(int(rng.integers(1, 12))):
        if pairs and rng.random() < 0.3:
            instructions.append(Gate("cx", pairs[int(rng.integers(len(pairs)))]))
        else:
            name = SINGLE_QUBIT_GATES[int(rng.integers(len(SINGLE_QUBIT_GATES)))]
            instructions.append(Gate(name, (qubits[int(rng.integers(len(qubits)))],)))
    measured = qubits[: int(rng.integers(1, len(qubits) + 1))]
    for clbit, q in enumerate(measured):
        instructions.append(Measure(q, clbit))
    # a gate after the measures lets idle decay act on measured qubits
    if len(measured) < len(qubits):
        instructions.append(Gate("h", (qubits[-1],)))
    return Circuit(5, len(measured), tuple(instructions))


@pytest.mark.parametrize("mode", ["quiet", "noisy", "idle"])
def test_execute_exact_matches_dense_oracle(qx4, mode):
    backend = {"quiet": qx4.with_noise(False), "noisy": qx4,
               "idle": qx4.with_idle_decay(True)}[mode]
    rng = np.random.default_rng(2024)
    for _ in range(25):
        circuit = _random_measured_circuit(rng, sorted(qx4.coupling.pairs))
        rho, probs = _dense_reference(circuit, backend)
        got = execute_exact(circuit, backend)
        assert np.abs(got.final_state - rho).max() <= 1e-12
        got_probs = outcome_dict(got.probabilities)
        assert set(got_probs) <= set(probs)
        for key, p in probs.items():
            assert abs(got_probs.get(key, 0.0) - p) <= 1e-12


_MODES = ["quiet", "noisy", "idle"]


def _mode_backend(qx4, mode):
    return {"quiet": qx4.with_noise(False), "noisy": qx4,
            "idle": qx4.with_idle_decay(True)}[mode]


def _assert_same_result(got, want):
    """Bitwise equality of the probabilities and counts of two ExecutionResults."""
    for a, b in ((got.probabilities, want.probabilities), (got.counts, want.counts)):
        assert (a is None) == (b is None)
        if b is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.shots == want.shots


def _qubits(circuit):
    return {q for inst in circuit.instructions
            for q in (inst.targets if isinstance(inst, Gate) else (inst.qubit,))}


def _mixed_batch(rng, coupling_pairs):
    """Circuits in runs that share prefixes, on changing active registers."""
    batch = []
    for _ in range(8):
        base = _random_measured_circuit(rng, coupling_pairs)
        gates = [i for i in base.instructions if isinstance(i, Gate)]
        measures = base.measurements
        for _ in range(int(rng.integers(1, 4))):
            cut = int(rng.integers(0, len(gates) + 1))
            head = gates[:cut]
            extra = [Gate(SINGLE_QUBIT_GATES[int(rng.integers(len(SINGLE_QUBIT_GATES)))],
                          (m.qubit,)) for m in measures if rng.random() < 0.5]
            batch.append(Circuit(5, base.classical_count, (*head, *extra, *measures)))
        batch.append(base)
    batch.append(Circuit(5, 0))
    return batch


@pytest.mark.parametrize("mode", _MODES)
def test_execute_many_mixed_batch_matches_one_call_per_circuit(qx4, mode):
    backend = _mode_backend(qx4, mode)
    rng = np.random.default_rng(77)
    batch = _mixed_batch(rng, sorted(qx4.coupling.pairs))
    neighbours = list(zip(batch, batch[1:]))
    # some neighbours share a prefix, some run on different active qubits
    assert any(a.instructions[:2] == b.instructions[:2] and len(b.instructions) > 2
               for a, b in neighbours)
    assert any(_qubits(a) != _qubits(b) for a, b in neighbours)
    got = list(execute_many(batch, backend))
    assert len(got) == len(batch)
    for circuit, result in zip(batch, got):
        assert result.final_state is None
        _assert_same_result(result, execute_exact(circuit, backend))
    measured = [c for c in batch if c.measurements]
    seeds = [int(s) for s in rng.integers(0, 2**32, size=len(measured))]
    sampled = list(execute_many(measured, backend, shots=200, seeds=seeds))
    for circuit, seed, result in zip(measured, seeds, sampled):
        _assert_same_result(result, execute(circuit, backend, shots=200, seed=seed))


def test_shots_above_int64_raise_before_anything_evolves(qx4_quiet, monkeypatch):
    def evolve(*args):
        raise AssertionError("evolved")

    monkeypatch.setattr(backend_module, "_evolve", evolve)
    c = parse_qasm(H_MEASURED)
    too_many = rf"^shots must be at most {MAX_SHOTS}, got {MAX_SHOTS + 1}$"
    with pytest.raises(ValueError, match=too_many):
        next(execute_many([c], qx4_quiet, shots=MAX_SHOTS + 1, seeds=[1]))
    with pytest.raises(ValueError, match=too_many):
        collect_weights([Circuit(1, 0)], qx4_quiet, shots=MAX_SHOTS + 1, seeds=[1])
    monkeypatch.undo()
    # the largest count still draws
    assert MAX_SHOTS == 2**63 - 1
    assert int(execute(c, qx4_quiet, MAX_SHOTS, 1).counts.sum()) == MAX_SHOTS


@pytest.mark.parametrize("shots", [2.5, 10.0, True, np.bool_(True), np.float64(8.0), "10"])
def test_shots_must_be_integers_before_anything_evolves(qx4_quiet, monkeypatch, shots):
    def evolve(*args):
        raise AssertionError("evolved")

    monkeypatch.setattr(backend_module, "_evolve", evolve)
    c = parse_qasm(H_MEASURED)
    entry_points = [
        lambda: execute(c, qx4_quiet, shots, 1),
        lambda: next(execute_many([c], qx4_quiet, shots, [1])),
        lambda: collect_weights([Circuit(1, 0)], qx4_quiet, shots=shots, seeds=[1]),
        lambda: run_qpt("h", (0,), qx4_quiet, shots, 0),
        lambda: run_qst(Circuit(1, 0), qx4_quiet, shots, 0),
    ]
    for run in entry_points:
        with pytest.raises(ValueError, match=rf"^shots must be an integer, got "
                                             rf"{re.escape(repr(shots))}$"):
            run()
    monkeypatch.undo()
    # numpy integers are integers
    for n in (np.int64(10), np.uint8(10)):
        assert int(execute(c, qx4_quiet, n, 1).counts.sum()) == 10
        assert collect_weights([Circuit(1, 0)], qx4_quiet, shots=n, seeds=[1]).sum() == 30


def test_execute_many_rejections(qx4_quiet):
    c = parse_qasm(H_MEASURED)
    with pytest.raises(ValueError, match="one seed per circuit"):
        next(execute_many([c, c], qx4_quiet, shots=10, seeds=[1]))
    with pytest.raises(ValueError, match="one seed per circuit"):
        next(execute_many([c], qx4_quiet, shots=10))
    with pytest.raises(ValueError, match="shots must be positive"):
        next(execute_many([c], qx4_quiet, shots=0, seeds=[1]))
    results = execute_many([c, Circuit(5, 0)], qx4_quiet, shots=10, seeds=[1, 2])
    assert next(results).counts is not None
    with pytest.raises(ValueError, match="no measurements"):
        next(results)


def test_trace_drift_is_reported(qx4_quiet, monkeypatch):
    superoperator = backend_module._superoperator
    # x loses half the trace, patched in past the certificate that rejects
    # it where it is built; a measure with noise off applies nothing after it
    monkeypatch.setattr(backend_module, "_superoperator",
                        lambda gate, *rest: superoperator(gate, *rest) * (0.5 if gate == "x" else 1))
    ok = Circuit(1, 1, (Gate("h", (0,)), Measure(0, 0)))
    leaky = Circuit(1, 1, (Gate("h", (0,)), Gate("x", (0,)), Measure(0, 0)))
    # the full check of the final state, before execute_exact returns it
    with pytest.raises(ValueError, match=r"^density matrix trace 0\.5\+0j differs from 1$"):
        execute_exact(leaky, qx4_quiet)
    # the readout test of each circuit's state, before its result is yielded
    results = execute_many([ok, ok, leaky], qx4_quiet)
    assert [next(results).probabilities.tolist() for _ in range(2)] == [[0.5, 0.5]] * 2
    with pytest.raises(ValueError, match=r"^circuit 2: density matrix trace 0\.5\+0j differs "
                                         r"from 1$"):
        next(results)


def test_trace_drift_inside_a_stack_is_reported(qx4_quiet, monkeypatch):
    apply = backend_module._apply
    calls = itertools.count()

    def leaky(sup, rho, layout, axes, k):
        out, order = apply(sup, rho, layout, axes, k)
        if next(calls) == 1:  # the h of preparation p
            out = out * 0.5
        return out, order

    monkeypatch.setattr(backend_module, "_apply", leaky)
    preps = [preparation_circuit(label, (1,), 5) for label in "01pr"]
    # the x of 1, then the h of p: state 2 of the stack of the 4
    # preparations' states loses half its trace, and the readout test of the
    # stack stops the run before any weight is handed out
    with pytest.raises(ValueError, match=r"^circuits 0\.\.3: matrix 2: density matrix trace "
                                         r"0\.5\+0j differs from 1$"):
        collect_weights(preps, qx4_quiet, (1,))


def _constant_state_map():
    """rho -> diag(1.5, -0.5) for every input: trace preserving, not positive."""
    sup = np.zeros((2, 2, 2, 2), dtype=complex)
    sup[0, 0, 0, 0] = sup[0, 0, 1, 1] = 1.5
    sup[1, 1, 0, 0] = sup[1, 1, 1, 1] = -0.5
    return sup


def _coherence_map(factor):
    """rho -> rho with its off-diagonal entries times ``factor``: trace
    preserving, and a channel exactly when |factor| <= 1."""
    sup = np.zeros((2, 2, 2, 2), dtype=complex)
    for i, j in itertools.product(range(2), repeat=2):
        sup[i, j, i, j] = 1.0 if i == j else factor
    return sup


@pytest.mark.parametrize("sup, lowest", [(_constant_state_map(), "-5.000e-01"),
                                         (_coherence_map(1.2), "-2.000e-01")])
def test_a_map_that_is_not_completely_positive_is_no_channel(sup, lowest):
    with pytest.raises(ValueError, match=rf"^not completely positive: Choi eigenvalue {lowest}$"):
        backend_module._check_channel(sup)
    for factor in (1.0, 0.9, -1.0):
        backend_module._check_channel(_coherence_map(factor))


def test_a_kraus_set_that_is_not_trace_preserving_fails_where_its_map_is_built(
        qx4, monkeypatch, fresh_maps):
    def leaky(params, duration_ns):
        return KrausChannel(1, tuple(1.1 * op for op in
                                     decoherence_channel(params, duration_ns).operators))

    monkeypatch.setattr(backend_module, "decoherence_channel", leaky)
    applied = []
    _counting(monkeypatch, applied, "_apply")
    circuit = Circuit(1, 1, (Gate("h", (0,)), Measure(0, 0)))
    with pytest.raises(ValueError, match=r"^gate 'h' with decay T1/T2 48\.7/14\.0 us for 60\.0 ns "
                                         r"is no channel: not trace preserving: deviation "
                                         r"2\.100e-01$"):
        execute_exact(circuit, qx4)
    assert applied == []


@pytest.mark.parametrize("gate", ["y", "s", "sdg", "t", "tdg"])
def test_a_superoperator_without_its_conjugate_is_no_channel(qx4, gate):
    # the complex gates: a real Kraus operator is its own conjugate
    ops = [op @ standard_gate(gate) for op in decoherence_channel(qx4.qubits[0], 60.0).operators]
    backend_module._check_channel(sum(np.kron(a, a.conj()) for a in ops).reshape((2,) * 4))
    with pytest.raises(ValueError, match="^(Choi matrix not Hermitian|not completely positive|"
                                         "not trace preserving)"):
        backend_module._check_channel(sum(np.kron(a, a) for a in ops).reshape((2,) * 4))


def test_golden_exact_runs_leave_only_density_matrices(monkeypatch):
    # the full check, which the readout no longer runs, as an oracle on
    # every final state the golden reports' runs read out: exact qpt, and qst
    # exact and at 8192 shots
    checked = []
    readout = backend_module._check_readout

    def full(states):
        check_density_matrix(states)
        checked.append(len(states))
        readout(states)

    monkeypatch.setattr(backend_module, "_check_readout", full)
    regen.report_digests()
    # the preparation states the settings are read out of: 54 single-qubit
    # placements of 4 (45 on qx4, 9 on qx2), 6 cx of 16, 8 qst of 1
    assert sum(checked) == 54 * 4 + 6 * 16 + 8 * 1


def test_each_state_is_checked_alone_before_it_is_yielded(qx4_quiet, monkeypatch, fresh_maps):
    stacks = []
    _counting(monkeypatch, stacks, "_check_readout", "check_density_matrix")
    prep = parse_qasm(FIVE_QUBIT_PREP)
    circuits = [append_setting(prep, tag) for tag in qst_settings(5)]
    for count, _ in enumerate(execute_many(circuits, qx4_quiet), start=1):
        assert len(stacks) == count
    # each final state passes the readout test as one (32, 32) matrix, and
    # a valid one never meets the full check
    assert stacks == [("_check_readout", 32)] * len(circuits)

    # a gate table entry that is no unitary: its map is no channel, and it
    # stops the stream where the circuit that applies it evolves, after the
    # results of the circuits before it and before its state is checked
    monkeypatch.setitem(GATES, "x", 1.1 * standard_gate("x"))
    backend_module._superoperator.cache_clear()
    ok = Circuit(1, 1, (Gate("h", (0,)), Measure(0, 0)))
    bad = Circuit(1, 1, (Gate("x", (0,)), Measure(0, 0)))
    stacks.clear()
    results = execute_many([ok, ok, ok, bad], qx4_quiet)
    assert [next(results).probabilities.tolist() for _ in range(3)] == [[0.5, 0.5]] * 3
    with pytest.raises(ValueError, match=r"^gate 'x' with no decay for 60\.0 ns is no channel: "
                                         r"not trace preserving: deviation 2\.100e-01$"):
        next(results)
    assert stacks == [("_check_readout", 2)] * 3


FIVE_QUBIT_PREP = """OPENQASM 2.0;
qreg q[5];
h q[0];
cx q[1],q[0];
t q[2];
h q[3];
cx q[3],q[4];
s q[1];
x q[4];
cx q[2],q[1];
"""


def test_each_circuit_is_checked_once_and_runs_on_the_qubits_it_touches(qx4_quiet,
                                                                        monkeypatch):
    checked = []
    original = backend_module.validate_topology

    def recording(circuit, coupling):
        checked.append(circuit)
        return original(circuit, coupling)

    monkeypatch.setattr(backend_module, "validate_topology", recording)
    prep = parse_qasm(FIVE_QUBIT_PREP)
    circuits = [append_setting(prep, tag, (4, 1)) for tag in qst_settings(2)]
    list(execute_many(circuits, qx4_quiet))
    assert len(checked) == len(circuits) and all(map(operator.is_, checked, circuits))
    # an off-map cx is named by its position in its circuit
    off_map = prep.extended(Gate("cx", (0, 1)), Measure(0, 0), classical_count=1)
    with pytest.raises(TopologyError, match=f"instruction {len(prep.instructions)}: cx 0>1"):
        list(execute_many([circuits[0], off_map], qx4_quiet))
    # a circuit that adds a qubit to another's prefix runs on the larger register
    wider = prep.extended(Gate("h", (0,)), Measure(4, 0), classical_count=1)
    narrow = Circuit(5, 1, (*prep.instructions[:2], Measure(0, 0)))
    for batch in ([narrow, wider], [wider, narrow]):
        got = list(execute_many(batch, qx4_quiet))
        for circuit, result in zip(batch, got):
            _assert_same_result(result, execute_exact(circuit, qx4_quiet))


def _no_evolution(monkeypatch):
    def apply(*args):
        raise AssertionError("evolved")

    monkeypatch.setattr(backend_module, "_apply", apply)


def test_off_map_cx_of_a_later_circuit_raises_before_anything_evolves(qx4_quiet, monkeypatch):
    prep = parse_qasm(FIVE_QUBIT_PREP)
    circuits = [append_setting(prep, tag, (4, 1)) for tag in qst_settings(2)]
    off_map = prep.extended(Gate("cx", (0, 1)), Measure(0, 0), classical_count=1)
    _no_evolution(monkeypatch)
    with pytest.raises(TopologyError, match=r"^instruction 8: cx 0>1 not in the ibmqx4-sim "
                                            r"coupling map \(1>0,2>0,2>1,2>4,3>2,3>4\)$"):
        next(execute_many([*circuits, off_map], qx4_quiet))


def test_start_must_hold_every_qubit_a_circuit_touches(qx4_quiet, monkeypatch):
    # from |00> on q1 q0 the circuit flips q0, so outcome 01 is certain
    circuit = Circuit(2, 2, (Gate("x", (0,)), Measure(0, 0), Measure(1, 1)))
    state, active = backend_module._evolve(circuit, qx4_quiet, (1, 0))
    assert active == (1, 0) and outcome_dict(
        backend_module._distributions(np.diagonal(state).real[None], active,
                                      circuit.measurements, 2)[0]) == {"01": 1.0}
    # a start on q1 alone does not hold q0: the circuit is rejected before anything evolves
    _no_evolution(monkeypatch)
    with pytest.raises(ValueError, match=r"^circuit acts on qubit 0, outside the start's "
                                         r"qubits \(1,\)$"):
        backend_module._evolve(circuit, qx4_quiet, (1,))


def test_distributions_raise_for_clipped_weight_past_1e_12():
    # the readout clips a negative weight to 0 and says so once a row's
    # clipped weights sum past 1e-12; rounding-sized ones pass
    circuit = Circuit(2, 2, (Measure(1, 1), Measure(0, 0)))
    diagonals = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0]])
    for negative, raises in ((-1e-9, True), (-1e-18, False)):
        drifted = diagonals.copy()
        drifted[1] = [0.25, 0.25 - negative, 0.5, negative]
        if raises:
            with pytest.raises(ValueError, match=r"^row 1: clipped negative weights sum to "
                                                 r"-1\.000e-09, past -1e-12$"):
                backend_module._distributions(drifted, (1, 0), circuit.measurements, 2)
        else:
            probs = backend_module._distributions(drifted, (1, 0), circuit.measurements, 2)
            assert probs[1, 3] == 0.0 and np.array_equal(probs[0], [0.5, 0.5, 0.0, 0.0])


def test_distribution_total_is_a_sequential_sum():
    # sum([0.1] * 10) is 0.9999999999999999 added left to right and 1.0 when
    # compensated, as the builtin sum is from Python 3.12 on
    circuit = Circuit(4, 4, tuple(Measure(q, q) for q in range(4)))
    active = (3, 2, 1, 0)
    diagonal = np.array([0.1] * 10 + [0.0] * 6)
    probs = backend_module._distributions(diagonal[None], active, circuit.measurements, 4)[0]
    total = reduce(operator.add, [0.1] * 10, 0.0)
    assert total == 0.9999999999999999
    assert np.array_equal(probs, diagonal / total)
