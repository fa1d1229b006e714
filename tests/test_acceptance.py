"""End-to-end acceptance checks for the tomography toolkit.

Each test covers one headline guarantee and finishes by printing a single
PASS line (visible under ``pytest -s``/on failure); run the module with
``pytest -v tests/test_acceptance.py`` for the per-criterion verdicts.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from qptkit import (
    GATE_TABLE_ORDER,
    QasmError,
    emit_qasm,
    parse_qasm,
    process_fidelity,
    qpt_channel,
    run_qpt,
    theoretical_chi,
)
from qptkit.channels import amplitude_damping, apply_channel, compose, pure_dephasing
from qptkit.process_tomography import tp_deviation
from qptkit.qasm import Circuit, Gate, Measure

from conftest import haar_unitary
from oracles import (
    beta_tensor,
    chi_to_channel,
    embed_channel,
    matrix_unit_basis,
    preparation_recipes,
    preparation_state,
    unitary_as_channel,
)

DATA_DIR = Path(__file__).parent / "data"

SINGLE_GATES = GATE_TABLE_ORDER  # id x y z h t tdg s sdg
CX_PLACEMENTS = ((1, 0), (2, 0), (3, 2))


def _pass(message: str) -> None:
    print(f"PASS: {message}")


@pytest.fixture(scope="module")
def single_sweep(qx4_quiet):
    start = time.perf_counter()
    results = {
        (gate, q): run_qpt(gate, (q,), qx4_quiet)
        for gate in SINGLE_GATES
        for q in range(5)
    }
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def cx_sweep(qx4_quiet):
    start = time.perf_counter()
    results = {lines: run_qpt("cx", lines, qx4_quiet) for lines in CX_PLACEMENTS}
    return results, time.perf_counter() - start


def test_noiseless_single_qubit_sweep(single_sweep):
    results, elapsed = single_sweep
    assert len(results) == 45
    for (gate, q), res in results.items():
        assert res.fidelity >= 1.0 - 1e-6, f"{gate} on q{q}: {res.fidelity}"
        assert res.executions == 12
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    _pass(
        "45/45 noiseless single-qubit runs reach fidelity >= 1-1e-6 "
        f"in {elapsed:.2f}s"
    )


def test_noiseless_cx(cx_sweep):
    results, elapsed = cx_sweep
    for lines, res in results.items():
        assert res.fidelity >= 1.0 - 1e-6, f"cx {lines}: {res.fidelity}"
        assert res.executions == 144
    assert elapsed < 30.0, f"cx runs took {elapsed:.2f}s"
    _pass(
        "cx on 1>0, 2>0, 3>2 reaches fidelity >= 1-1e-6 with 144 "
        f"executions each in {elapsed:.2f}s"
    )


def test_noiseless_sweep_worst_fidelity_nine_decimals(single_sweep, cx_sweep, qx4_quiet):
    # the full sweep of scripts/noiseless_sweep.py, at the bound it prints
    cx = {lines: cx_sweep[0].get(lines) or run_qpt("cx", lines, qx4_quiet)
          for lines in sorted(qx4_quiet.coupling.pairs)}
    fidelities = [r.fidelity for r in single_sweep[0].values()]
    fidelities += [r.fidelity for r in cx.values()]
    assert len(fidelities) == 51
    assert f"{min(fidelities):.9f}" == "1.000000000"
    _pass(f"all 51 noiseless qx4 placements: worst fidelity {min(fidelities):.9f}")


def _random_decoherence(rng):
    t1 = rng.uniform(10.0, 100.0)
    t2 = rng.uniform(0.5 * t1, 2.0 * t1)
    return (
        amplitude_damping(rng.uniform(0.0, 1e5), t1),
        pure_dephasing(rng.uniform(0.0, 1e5), t1, t2),
    )


def test_channel_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = {1: 0.0, 2: 0.0}

    for _ in range(50):
        amp, deph = _random_decoherence(rng)
        channel = compose(compose(unitary_as_channel(haar_unitary(rng, 2)), amp), deph)
        tomographed = chi_to_channel(qpt_channel(channel))
        for unit in matrix_unit_basis(1):
            dev = np.abs(
                tomographed(unit) - apply_channel(channel, unit)
            ).max()
            worst[1] = max(worst[1], dev)
    assert worst[1] <= 1e-8

    for _ in range(10):
        channel = unitary_as_channel(haar_unitary(rng, 4))
        for q in (0, 1):
            amp, deph = _random_decoherence(rng)
            channel = compose(channel, embed_channel(amp, [q], 2))
            channel = compose(channel, embed_channel(deph, [q], 2))
        tomographed = chi_to_channel(qpt_channel(channel))
        for unit in matrix_unit_basis(2):
            dev = np.abs(
                tomographed(unit) - apply_channel(channel, unit)
            ).max()
            worst[2] = max(worst[2], dev)
    assert worst[2] <= 1e-7

    _pass(
        "tomographed channels match 50 random single-qubit channels to "
        f"{worst[1]:.2e} (<=1e-8) and 10 two-qubit channels to {worst[2]:.2e} "
        "(<=1e-7) on every basis element"
    )


def test_preparation_recipe_identities():
    worst = 0.0
    for n in (1, 2):
        basis = matrix_unit_basis(n)
        for unit, terms in zip(basis, preparation_recipes(n)):
            acc = sum(c * preparation_state(label) for c, label in terms)
            dev = np.abs(acc - unit).max()
            worst = max(worst, dev)
    assert worst <= 1e-12
    _pass(f"all 20 preparation recipes rebuild their matrix units to {worst:.2e}")


def test_linear_system_quality(single_sweep, cx_sweep):
    residuals = [r.residual for r in single_sweep[0].values()]
    residuals += [r.residual for r in cx_sweep[0].values()]
    assert max(residuals) <= 1e-10
    conds = {
        n: np.linalg.cond(beta_tensor(n))
        for n in (1, 2)
    }
    assert conds[1] < 10.0 and conds[2] < 10.0
    _pass(
        f"every exact run has residual <= 1e-10 (max {max(residuals):.2e}); "
        f"cond(beta) = {conds[1]:.3f} (n=1), {conds[2]:.3f} (n=2)"
    )


def test_shot_noise_fidelity(qx4_quiet):
    fidelities = [
        run_qpt("h", (0,), qx4_quiet, shots=8192, seed=s).fidelity for s in range(20)
    ]
    mean = float(np.mean(fidelities))
    low = min(fidelities)
    assert mean >= 0.98 and low >= 0.95
    again = run_qpt("h", (0,), qx4_quiet, shots=8192, seed=0)
    first = run_qpt("h", (0,), qx4_quiet, shots=8192, seed=0)
    assert np.array_equal(again.chi.matrix, first.chi.matrix)
    assert again.fidelity == fidelities[0]
    _pass(
        f"h on q0 at 8192 shots: mean fidelity {mean:.5f} (>=0.98), "
        f"min {low:.5f} (>=0.95) over 20 seeds, bit-identical on reruns"
    )


def test_noise_monotonicity(qx4):
    placements = [(gate, (2,)) for gate in SINGLE_GATES] + [("cx", (3, 2))]
    for gate, lines in placements:
        fids = [
            run_qpt(gate, lines, qx4.scaled_durations(scale)).fidelity
            for scale in (1.0, 2.0, 4.0)
        ]
        assert fids[0] < 1.0, f"{gate}: noisy fidelity not below 1 ({fids[0]})"
        assert fids[0] > fids[1] > fids[2], f"{gate}: not monotone {fids}"
    _pass(
        "all 10 gates lose fidelity strictly monotonically as durations "
        "scale x1 -> x2 -> x4 under noise"
    )


def test_trace_preservation_certificate(single_sweep, cx_sweep):
    deviations = [tp_deviation(r.chi) for r in single_sweep[0].values()]
    deviations += [tp_deviation(r.chi) for r in cx_sweep[0].values()]
    assert max(deviations) <= 1e-8
    _pass(
        "sum_mn chi_mn E_n^dag E_m = I to within "
        f"{max(deviations):.2e} (<=1e-8) on all 48 exact reconstructions"
    )


def test_theoretical_chi_values():
    h = theoretical_chi("h").matrix
    expected_h = np.zeros((4, 4))
    for i in (1, 3):
        for j in (1, 3):
            expected_h[i, j] = 0.5
    assert np.abs(h - expected_h).max() <= 1e-12

    s = theoretical_chi("s").matrix
    expected_s = np.zeros((4, 4), dtype=complex)
    expected_s[0, 0] = expected_s[3, 3] = 0.5
    expected_s[0, 3] = 0.5j
    expected_s[3, 0] = -0.5j
    assert np.abs(s - expected_s).max() <= 1e-12

    x = theoretical_chi("x").matrix
    expected_x = np.zeros((4, 4))
    expected_x[1, 1] = 1.0
    assert np.abs(x - expected_x).max() <= 1e-12

    _pass("theoretical chi for H, S and X match their closed forms to 1e-12")


def test_fidelity_reference_values():
    for gate in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx"):
        chi = theoretical_chi(gate)
        assert abs(process_fidelity(chi, chi) - 1.0) <= 1e-12
    assert abs(process_fidelity(theoretical_chi("x"), theoretical_chi("id"))) <= 1e-12
    assert (
        abs(process_fidelity(theoretical_chi("h"), theoretical_chi("x")) - 0.5) <= 1e-12
    )
    _pass("F(chi,chi)=1 for all 10 gates, F(chi_X,chi_I)=0, F(chi_H,chi_X)=0.5")


_GATE_POOL = ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx")


def _random_circuit(rng: np.random.Generator) -> Circuit:
    n = int(rng.integers(1, 6))
    instructions: list[Gate | Measure] = []
    for _ in range(int(rng.integers(0, 12))):
        name = _GATE_POOL[int(rng.integers(len(_GATE_POOL)))]
        if name == "cx":
            if n < 2:
                continue
            control = int(rng.integers(n))
            target = int(rng.integers(n - 1))
            if target >= control:
                target += 1
            instructions.append(Gate("cx", (control, target)))
        else:
            instructions.append(Gate(name, (int(rng.integers(n)),)))
    measured = int(rng.integers(0, n + 1))
    qubits = rng.permutation(n)[:measured]
    clbits = rng.permutation(n)[:measured]
    for q, cl in zip(qubits, clbits):
        instructions.append(Measure(int(q), int(cl)))
    return Circuit(n, n if measured else 0, tuple(instructions))


def test_parser_corpus():
    rng = np.random.default_rng(1729)
    for _ in range(100):
        circuit = _random_circuit(rng)
        assert parse_qasm(emit_qasm(circuit)) == circuit

    expected_positions = {
        "bad_token.qasm": (6, 11),
        "index_out_of_range.qasm": (6, 5),
        "missing_cx_argument.qasm": (6, 8),
    }
    for name, (line, col) in expected_positions.items():
        text = (DATA_DIR / name).read_text(encoding="utf-8")
        with pytest.raises(QasmError) as exc:
            parse_qasm(text)
        assert (exc.value.line, exc.value.col) == (line, col), name
        assert f"line {line}, column {col}" in str(exc.value)

    _pass(
        "100 generated circuits round-trip through the parser; all 3 "
        "malformed fixtures fail with line/column positions"
    )
