"""Parser, printer, circuit invariants, coupling maps."""

import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptkit import (Circuit, CircuitError, Gate, Measure, QasmError, builtin_backend, emit_qasm,
                    execute_exact, parse_qasm)
from qptkit.qasm import CouplingMap, validate_topology

MINIMAL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[1], q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""


def test_parse_minimal():
    c = parse_qasm(MINIMAL)
    assert c.qubit_count == 2 and c.classical_count == 2
    assert c.instructions == (
        Gate("h", (0,)),
        Gate("cx", (1, 0)),
        Measure(0, 0),
        Measure(1, 1),
    )


def test_parse_without_include_or_creg():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
    assert c.classical_count == 0
    assert c.instructions == (Gate("x", (0,)),)


def test_parse_comments_and_spacing():
    text = (
        "OPENQASM 2.0; // header\n"
        "qreg  q[ 3 ];\ncreg c[1];\n"
        "h q[2]; x q[2]; // two on one line\n"
        "measure q[2]->c[0];\n"
    )
    c = parse_qasm(text)
    assert [type(i).__name__ for i in c.instructions] == ["Gate", "Gate", "Measure"]


def test_emit_canonical_form():
    c = Circuit(2, 1, (Gate("h", (0,)), Gate("cx", (1, 0)), Measure(0, 0)))
    assert emit_qasm(c) == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "creg c[1];\n"
        "h q[0];\n"
        "cx q[1], q[0];\n"
        "measure q[0] -> c[0];\n"
    )


def test_emit_empty_circuit_has_no_creg():
    assert emit_qasm(Circuit(1, 0)) == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
    )


def test_emit_parse_roundtrip_idempotent():
    c = parse_qasm(MINIMAL)
    once = emit_qasm(c)
    assert emit_qasm(parse_qasm(once)) == once


def _position(err: QasmError) -> tuple[int, int]:
    assert isinstance(err.line, int) and isinstance(err.col, int)
    return err.line, err.col


def test_error_cx_same_qubit():
    with pytest.raises(QasmError, match="repeats a qubit") as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n")
    assert _position(exc.value) == (3, 1)


def test_error_index_out_of_range():
    with pytest.raises(QasmError, match="out of range") as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[5];\ny q[7];\n")
    line, col = _position(exc.value)
    assert line == 3 and col == 5


def test_error_unknown_gate():
    with pytest.raises(QasmError, match="unknown gate 'foo'") as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
    assert _position(exc.value) == (3, 1)


def test_error_redeclaration():
    with pytest.raises(QasmError, match="redeclaration") as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nqreg r[2];\n")
    assert _position(exc.value) == (4, 1)


def test_error_missing_cx_argument():
    with pytest.raises(QasmError, match="expected ','"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")


def test_error_gate_after_measure():
    text = (
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
        "measure q[0] -> c[0];\nx q[0];\n"
    )
    with pytest.raises(QasmError, match="already measured") as exc:
        parse_qasm(text)
    assert exc.value.line == 5


def test_error_oversized_register():
    with pytest.raises(QasmError, match="supported range"):
        parse_qasm("OPENQASM 2.0;\nqreg q[6];\n")


@pytest.mark.parametrize("size", [6, 22, 40])
def test_classical_register_above_the_qubit_count_fails_before_any_outcome_array(size):
    # a readout holds 2^m outcomes per row: creg c[22] asked for 2^22 of them
    # on a two-gate circuit, and creg c[40] for 2^40
    backend = builtin_backend("qx4")
    text = f"OPENQASM 2.0;\nqreg q[2];\ncreg c[{size}];\nh q[1];\ncx q[1],q[0];\n"
    gates = (Gate("h", (1,)), Gate("cx", (1, 0)))
    tracemalloc.start()
    try:
        with pytest.raises(QasmError, match=f"^line 3, column 8: creg size {size} outside "
                                            r"supported range 0\.\.5$"):
            execute_exact(parse_qasm(text), backend)
        with pytest.raises(CircuitError, match=f"^classical count must be between 0 and 5, "
                                               f"got {size}$"):
            execute_exact(Circuit(2, size, gates), backend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # five bits, one per qubit of the register, still parse and run
    five = parse_qasm(text.replace(f"c[{size}]", "c[5]") + "measure q[0] -> c[4];\n")
    assert execute_exact(five, backend).probabilities.shape == (32,)
    assert Circuit(2, 0, gates).classical_count == 0


@pytest.mark.parametrize("source, line, name", [
    ("qreg Q[2];\n", 2, "Q"),
    ("qreg Q[2];\nh Q[0];\n", 2, "Q"),
    ("qreg q[2];\ncreg C[2];\n", 3, "C"),
    ("qreg q[2];\ncreg C[2];\nh q[0];\nmeasure q[0] -> C[0];\n", 3, "C"),
], ids=["qreg", "qreg-then-a-gate", "creg", "creg-then-statements"])
def test_error_register_name_at_its_declaration(source, line, name):
    with pytest.raises(QasmError, match=f"^line {line}, column 6: invalid register name "
                                        f"'{name}'$") as exc:
        parse_qasm("OPENQASM 2.0;\n" + source)
    assert (exc.value.line, exc.value.col) == (line, 6)


def test_error_missing_semicolon():
    with pytest.raises(QasmError, match="expected ';'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0]\nh q[0];\n")


def test_error_bad_character():
    with pytest.raises(QasmError, match="unexpected character") as exc:
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0]!;\n")
    assert _position(exc.value) == (3, 7)


def test_error_duplicate_classical_target():
    text = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[0];\n"
    )
    with pytest.raises(QasmError, match="written twice"):
        parse_qasm(text)


def test_parse_time_linear_in_gate_count():
    texts = {gates: "OPENQASM 2.0;\nqreg q[5];\n" + "h q[0];\ncx q[1], q[0];\n" * (gates // 2)
             for gates in (500, 4000)}
    best = dict.fromkeys(texts, float("inf"))
    # the sizes alternate, so a slow phase of the machine slows both
    for _ in range(7):
        for gates, text in texts.items():
            start = time.perf_counter()
            circuit = parse_qasm(text)
            best[gates] = min(best[gates], time.perf_counter() - start)
            assert len(circuit.instructions) == gates

    # 8x the gates: about 8x the time when linear, 64x when quadratic
    assert best[4000] < 24 * best[500]


def test_circuit_invariants_direct():
    with pytest.raises(CircuitError, match="unknown gate"):
        Circuit(1, 0, (Gate("rx", (0,)),))
    with pytest.raises(CircuitError, match="takes 2"):
        Circuit(2, 0, (Gate("cx", (0,)),))
    with pytest.raises(CircuitError, match="qubit count"):
        Circuit(6, 0)
    with pytest.raises(CircuitError, match="classical index"):
        Circuit(1, 0, (Measure(0, 0),))
    with pytest.raises(CircuitError, match="already measured"):
        Circuit(1, 1, (Measure(0, 0), Gate("x", (0,))))


def test_extended_raises_what_construction_raises():
    gates = Circuit(3, 0, tuple(Gate("h", (q % 3,)) for q in range(7)))
    measured = Circuit(3, 2, (Gate("x", (0,)), Measure(0, 1)))
    with pytest.raises(CircuitError, match="^instruction 1: classical index 1 out of range"):
        measured.extended(classical_count=1)
    with pytest.raises(CircuitError, match="^instruction 2: qubit 0 already measured"):
        measured.extended(Gate("h", (0,)))
    with pytest.raises(CircuitError, match="^classical count must be between 0 and 5, got -1$"):
        gates.extended(Gate("h", (1,)), classical_count=-1)


GATE_POOL = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "cx"]


@st.composite
def circuits(draw, qubit_count=None):
    n = qubit_count or draw(st.integers(1, 5))
    qreg = draw(st.sampled_from(["q", "qr", "reg0"]))
    count = draw(st.integers(0, 10))
    instructions = []
    for _ in range(count):
        name = draw(st.sampled_from(GATE_POOL))
        if name == "cx":
            if n < 2:
                continue
            control = draw(st.integers(0, n - 1))
            target = draw(st.integers(0, n - 2))
            if target >= control:
                target += 1
            instructions.append(Gate(name, (control, target)))
        else:
            instructions.append(Gate(name, (draw(st.integers(0, n - 1)),)))
    measured = draw(st.permutations(range(n)))
    how_many = draw(st.integers(0, n))
    clbits = draw(st.permutations(range(n)))
    for q, cl in list(zip(measured, clbits))[:how_many]:
        instructions.append(Measure(q, cl))
    m = n if how_many else draw(st.integers(0, 3))
    # An empty creg is never printed, so its name is only observable when m > 0.
    creg = draw(st.sampled_from(["c", "cl"])) if m else "c"
    return Circuit(n, m, tuple(instructions), qreg, creg)


@given(circuits())
@settings(max_examples=150, deadline=None)
def test_roundtrip_structural_equality(circuit):
    assert parse_qasm(emit_qasm(circuit)) == circuit


@given(circuits())
@settings(max_examples=150, deadline=None)
def test_parsed_circuit_is_the_checked_circuit(circuit):
    # the parser checks each statement as it reads it and builds the circuit
    # without a second check: it is the circuit construction checks
    parsed = parse_qasm(emit_qasm(circuit))
    checked = Circuit(parsed.qubit_count, parsed.classical_count, parsed.instructions,
                      parsed.qreg, parsed.creg)
    assert vars(parsed) == vars(checked)  # fields, and no measurements cached yet
    assert parsed == checked and hash(parsed) == hash(checked)
    assert type(parsed.instructions) is tuple
    assert parsed.measurements == checked.measurements == circuit.measurements


@st.composite
def appended(draw):
    """Instructions to append, valid or not."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["gate", "cx", "measure", "unknown"]))
        a, b = draw(st.integers(-1, 5)), draw(st.integers(-1, 5))
        out.append({"gate": Gate("h", (a,)), "cx": Gate("cx", (a, b)),
                    "measure": Measure(a, b), "unknown": Gate("rx", (a,))}[kind])
    return out


def _built_or_error(build):
    try:
        return build()
    except CircuitError as exc:
        return str(exc)


@given(circuits(), appended(), st.one_of(st.none(), st.integers(-1, 6)))
@settings(max_examples=300, deadline=None)
def test_extended_matches_construction(circuit, extra, classical_count):
    m = circuit.classical_count if classical_count is None else classical_count
    want = _built_or_error(lambda: Circuit(circuit.qubit_count, m,
                                           circuit.instructions + tuple(extra),
                                           circuit.qreg, circuit.creg))
    got = _built_or_error(lambda: circuit.extended(*extra, classical_count=classical_count))
    assert got == want


@given(circuits(), st.data())
@settings(max_examples=200, deadline=None)
def test_then_matches_construction(a, data):
    b = data.draw(circuits(a.qubit_count))
    n = data.draw(st.integers(1, 5).filter(lambda n: n != a.qubit_count))
    other = data.draw(circuits(n))
    if a.measurements:
        for c in (b, other):
            with pytest.raises(CircuitError, match="^circuit already contains measurements$"):
                a.then(c)
        return
    with pytest.raises(CircuitError, match=f"^qubit counts differ: {a.qubit_count} then {n}$"):
        a.then(other)
    got = a.then(b)
    want = Circuit(a.qubit_count, b.classical_count, a.instructions + b.instructions,
                   a.qreg, a.creg)
    assert got.measurements is b.measurements == want.measurements
    assert vars(got) == vars(want)  # fields and cached measurements
    assert all(x is y for x, y in zip(got.instructions, a.instructions + b.instructions))


def test_coupling_map_parsing():
    cmap = CouplingMap.from_text("1>0, 2>0,2>1")
    assert cmap.allows(1, 0) and cmap.allows(2, 1)
    assert not cmap.allows(0, 1)
    assert cmap.to_text() == "1>0,2>0,2>1"
    with pytest.raises(ValueError, match="bad coupling entry"):
        CouplingMap.from_text("1-0")
    with pytest.raises(ValueError, match="equal endpoints"):
        CouplingMap.from_text("1>1")


def test_validate_topology():
    qx4_map = CouplingMap.from_text("1>0,2>0,2>1,3>2,3>4,2>4")
    ok = Circuit(5, 0, (Gate("cx", (1, 0)), Gate("h", (3,))))
    assert validate_topology(ok, qx4_map) == []
    bad = Circuit(5, 0, (Gate("h", (0,)), Gate("cx", (0, 1))))
    assert validate_topology(bad, qx4_map) == [(1, 0, 1)]


def test_measurements_computed_once_and_never_carried_over():
    measured = Circuit(2, 2, (Gate("h", (0,)), Measure(0, 0)))
    assert measured.measurements is measured.measurements == (Measure(0, 0),)
    gates = Circuit(2, 0, (Gate("h", (0,)),))
    assert gates.measurements == ()
    for circuit, extra, m in ((measured, (Gate("x", (1,)), Measure(1, 1)), None),
                              (measured, (Measure(1, 2),), 3),
                              (gates, (Measure(1, 0),), 1),
                              (gates, (Gate("x", (1,)),), None)):
        got = circuit.extended(*extra, classical_count=m)
        assert got.measurements == tuple(i for i in got.instructions if isinstance(i, Measure))
        assert all(a is b for a, b in zip(circuit.instructions, got.instructions))
