"""Report serialisation, renderings, and the command-line front end."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qptkit.backend
import qptkit.cli
import qptkit.reports
import qptkit.state_tomography

from qptkit import parse_report, run_qpt
from qptkit.reports import (
    _grid,
    check_report,
    chi_grids,
    chi_report_dict,
    dump_report,
    load_report,
    qst_report_dict,
    render_fidelity_tables,
    seed_summary_dict,
)
from qptkit.state_tomography import collect_weights, read_dataset
from qptkit.cli import build_parser, main
from golden import regen


@pytest.fixture(scope="module")
def h_result(qx4_quiet):
    return run_qpt("h", (2,), qx4_quiet)


@pytest.fixture(scope="module")
def h_report(h_result):
    return chi_report_dict(h_result)


# --- reports -----------------------------------------------------------------


def test_report_roundtrip(h_result, h_report):
    text = dump_report(h_report)
    assert parse_report(text) == h_report
    loaded = json.loads(text)
    for key, want in (("chi", h_result.chi.matrix), ("chi_theory", h_result.chi_theory.matrix)):
        got = np.array(loaded[f"{key}_real"]) + 1j * np.array(loaded[f"{key}_imag"])
        assert np.abs(got - want).max() < 1e-12
    assert loaded["fidelity"] == h_result.fidelity
    assert loaded["residual"] == h_result.residual
    assert parse_report(dump_report(_QST_REPORT)) == _QST_REPORT
    assert parse_report(dump_report(_SEEDS_REPORT)) == _SEEDS_REPORT


def test_report_fields(h_report):
    assert h_report["format"] == 1 and h_report["kind"] == "qpt"
    assert h_report["gate"] == "h" and h_report["lines"] == [2]
    assert h_report["backend"] == "ibmqx4-sim" and h_report["noise"] is False
    assert h_report["shots"] is None and h_report["executions"] == 12
    assert h_report["operator_labels"] == ["I", "X", "-iY", "Z"]
    assert len(h_report["chi_real"]) == 4 and len(h_report["chi_theory_imag"]) == 4


def test_report_bytes_deterministic(qx4_quiet):
    a = run_qpt("h", (0,), qx4_quiet, shots=256, seed=4)
    b = run_qpt("h", (0,), qx4_quiet, shots=256, seed=4)
    assert dump_report(chi_report_dict(a)) == dump_report(chi_report_dict(b))


class _Float(float):
    """A float subclass with its own repr, which JSON does not use."""

    def __repr__(self):
        return "not JSON"


_SCALARS = st.one_of(
    st.floats(), st.builds(_Float, st.floats()), st.integers(), st.booleans(), st.none(),
    st.text(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]))
_ROWS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5)
_VALUES = st.recursive(
    _SCALARS | _ROWS | st.lists(_ROWS, max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


@given(st.dictionaries(st.text(), _VALUES, max_size=6))
@settings(max_examples=150, deadline=None)
def test_dump_report_writes_the_bytes_of_json_dumps(report):
    assert dump_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_dump_report_writes_the_bytes_of_json_dumps_for_every_kind(h_report):
    grid = [[1.0, -0.0, 5e-324], [math.nan, 1e16, -math.inf], [0.5, _Float(0.25), 1]]
    edge = {"grid": grid, "é ☃": [True, None, [], {}, ()], "nested": {"": [[[]]], "z": {}}}
    for report in (h_report, _QST_REPORT, _SEEDS_REPORT, edge, {}):
        assert dump_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


# a valid one-qubit qst report, for the cases that need one
_QST_REPORT = qst_report_dict(backend_name="ibmqx4-sim", noise=False, shots=None, seed=None,
                              executions=3, qubit_count=1, rho=np.diag([1.0, 0.0]),
                              fidelity=1.0, psd_projected=False)


# a valid qpt-seeds report, as seed_summary_dict writes one
_SEEDS_REPORT = {"format": 1, "kind": "qpt-seeds", "gate": "h", "lines": [0],
                 "backend": "ibmqx4-sim", "noise": False, "shots": 256, "executions": 12,
                 "seeds": [3], "fidelities": [0.5], "fidelity_mean": 0.5,
                 "fidelity_min": 0.5, "fidelity_max": 0.5}


def _as(report, **changes):
    """A mutation that turns the report into a copy of ``report``, with changes."""
    return lambda r: (r.clear(), r.update(copy.deepcopy(report), **changes))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r.update(format=2), "unsupported format"),
        (lambda r: r.update(kind="mystery"), "unknown kind"),
        (lambda r: r.update(fidelity=2.0), "fidelity out of range"),
        (lambda r: r.update(residual=-1.0), "negative residual"),
        (lambda r: r.update(executions=13), "executions"),
        (lambda r: r.update(executions=144), "executions 144 != 12"),
        (lambda r: r["chi_real"][0].append(0.0), "not 4x4"),
        (lambda r: r["chi_real"][0].__setitem__(1, 9.0), "not Hermitian"),
        (lambda r: r.pop("operator_labels"), "missing field.* operator_labels"),
        (lambda r: r.update(operator_labels=["I"] * 64, executions=1728,
                            **{key: [[0.0] * 64 for _ in range(64)]
                               for key in ("chi_real", "chi_imag",
                                           "chi_theory_real", "chi_theory_imag")}),
         "chi dimension 64 is not 4 or 16"),
        (lambda r: r.update(fidelity="0.9"), "invalid report: fidelity '0.9' is not a number"),
        (lambda r: r.update(residual=None), "invalid report: residual None is not a number"),
        (lambda r: r.update(executions=12.0), "invalid report: executions 12.0 is not an integer"),
        (lambda r: r.update(executions=True), "invalid report: executions True is not an integer"),
        (_as(_QST_REPORT, qubits=-1), "invalid report: qubits -1 is not an integer in 1..5"),
        (_as(_QST_REPORT, qubits="a"), "invalid report: qubits 'a' is not an integer in 1..5"),
        (_as(_QST_REPORT, qubits=True), "invalid report: qubits True is not an integer in 1..5"),
        # rejected before 1 << qubits, which would allocate without bound
        (_as(_QST_REPORT, qubits=10**12), "invalid report: qubits 1000000000000 is not an integer"),
        (_as(_QST_REPORT, qubits=2), "rho_real is not 4x4"),
        # a NaN off the diagonal, or a one-sided imaginary part, leaves the trace alone
        (_as(_QST_REPORT, rho_real=[[1.0, math.nan], [0.0, 0.0]]),
         "^invalid report: stored rho is not Hermitian$"),
        (_as(_QST_REPORT, rho_imag=[[0.0, 0.4], [0.0, 0.0]]),
         "^invalid report: stored rho is not Hermitian$"),
        (_as(_QST_REPORT, fidelity="high"), "invalid report: fidelity 'high' is not a number"),
        (_as(_QST_REPORT, executions="3"), "invalid report: executions '3' is not an integer"),
        (_as(_SEEDS_REPORT, fidelities=["a"]),
         r"invalid report: fidelities \['a'\] is not a list of numbers in -1..1"),
        (_as(_SEEDS_REPORT, fidelities=[None]), r"invalid report: fidelities \[None\] is not a list"),
        (_as(_SEEDS_REPORT, fidelities=[2.0]), r"invalid report: fidelities \[2.0\] is not a list"),
        (_as(_SEEDS_REPORT, seeds=5), "invalid report: seeds 5 is not a list of integers"),
        (_as(_SEEDS_REPORT, seeds=[3.0]), r"invalid report: seeds \[3.0\] is not a list of integers"),
        (_as(_SEEDS_REPORT, fidelity_mean="x"), "invalid report: fidelity_mean 'x' is not a number"),
        (_as(_SEEDS_REPORT, fidelity_max=None), "invalid report: fidelity_max None is not a number"),
        (lambda r: r.update(gate=7), "invalid report: gate 7 is not a gate name"),
        (lambda r: r.update(lines="x"), "invalid report: lines 'x' is not a list of distinct lines"),
        (lambda r: r.update(noise="maybe"), "invalid report: noise 'maybe' is not true or false"),
        (lambda r: r.update(shots=-3), "invalid report: shots -3 is not null or a positive integer"),
        (lambda r: r.update(backend=None), "invalid report: backend None is not a string"),
        (lambda r: r.update(seed="s"), "invalid report: seed 's' is not null or an integer"),
        (lambda r: r.update(psd_projected="no"),
         "invalid report: psd_projected 'no' is not true or false"),
        (lambda r: r.update(tp_deviation="z"), "invalid report: tp_deviation 'z' is not a number"),
        (lambda r: r["chi_imag"][1].__setitem__(1, False),
         r"invalid report: chi_imag \[\[.*\]\] is not a list of lists of numbers"),
        (_as(_SEEDS_REPORT, executions=5), "invalid report: executions 5 != 12"),
        (_as(_SEEDS_REPORT, gate="cx"), r"invalid report: gate 'cx' takes 2 line\(s\), not 1"),
        (_as(_SEEDS_REPORT, fidelity_min=0.9, fidelity_max=-0.2),
         "invalid report: stored min/max are inconsistent"),
        (_as(_QST_REPORT, gate="cx"), r"invalid report: unknown field\(s\) gate"),
        (_as(_SEEDS_REPORT, fidelity=0.5, seed=3), r"invalid report: unknown field\(s\) fidelity, seed"),
        (lambda r: r.update(qubits=1), r"invalid report: unknown field\(s\) qubits"),
        (_as(_QST_REPORT, fidelity=-0.5), "invalid report: negative fidelity"),
        (lambda r: r.update(tp_deviation=-1e-12), "invalid report: negative tp_deviation"),
        (lambda r: r.update(operator_labels=["I", "X", "Y", "Z"]),
         r"invalid report: operator_labels \['I', 'X', 'Y', 'Z'\] are not \['I', 'X', '-iY', 'Z'\]"),
    ],
)
def test_report_validation(h_report, mutate, message):
    bad = copy.deepcopy(h_report)
    mutate(bad)
    text = dump_report(bad)
    with pytest.raises(ValueError, match=message) as from_text:
        parse_report(text)
    # the CLI checks the dict it dumps: the dict fails with the text's message
    for report in (json.loads(text), bad):
        with pytest.raises(ValueError) as from_dict:
            check_report(report)
        assert str(from_dict.value) == str(from_text.value)


def test_check_report_names_keys_json_cannot_hold():
    # a dict built in code can carry keys json would turn into strings
    for extra, names in (({1: 0.0}, "1"), ({2: 0.0, "x": 0.0}, "2, x")):
        with pytest.raises(ValueError, match=rf"^invalid report: unknown field\(s\) {names}$"):
            check_report({**_QST_REPORT, **extra})


def test_check_report_formats_no_message_for_a_valid_report(h_report, monkeypatch):
    # a message is built only for a report that fails a check
    def refuse(obj):
        raise AssertionError("a message was formatted for a valid report")

    monkeypatch.setattr(qptkit.reports.reprlib, "repr", refuse)
    for report in (h_report, _QST_REPORT, _SEEDS_REPORT):
        assert check_report(report) is report


def test_report_nested_too_deeply_is_invalid():
    # json's decoder recurses once per level and runs out of stack first
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(ValueError, match="^report nested too deeply$"):
            parse_report(text)


def test_seed_summary(qx4_quiet):
    seeds = [0, 1, 2]
    results = [run_qpt("h", (0,), qx4_quiet, shots=256, seed=s) for s in seeds]
    summary = seed_summary_dict(results, seeds)
    assert summary["kind"] == "qpt-seeds"
    assert summary["seeds"] == seeds
    assert summary["fidelity_min"] == min(r.fidelity for r in results)
    assert summary["fidelity_max"] == max(r.fidelity for r in results)
    assert summary["fidelity_mean"] == pytest.approx(
        sum(r.fidelity for r in results) / 3.0
    )
    assert parse_report(dump_report(summary)) == summary
    broken = dict(summary, fidelity_mean=0.0)
    with pytest.raises(ValueError, match="mean is inconsistent"):
        parse_report(dump_report(broken))
    with pytest.raises(ValueError, match="no results"):
        seed_summary_dict([], [])


def test_render_fidelity_tables():
    def fake(gate, lines, fidelity):
        return {"kind": "qpt", "gate": gate, "lines": lines, "fidelity": fidelity}

    reports = [
        fake("h", [0], 0.9121),
        fake("h", [2], 0.9605),
        fake("x", [0], 0.9093),
        fake("cx", [1, 0], 0.7092),
        {"kind": "qpt-seeds", "gate": "h"},  # ignored
    ]
    csv_text, aligned = render_fidelity_tables(reports)
    assert csv_text.splitlines() == [
        "gate,q0,q2,1>0",
        "x,0.9093,,",
        "h,0.9121,0.9605,",
        "cx,,,0.7092",
    ]
    lines = aligned.splitlines()
    assert lines[0].split() == ["gate", "q0", "q2", "1>0"]
    assert lines[2].split() == ["h", "0.9121", "0.9605"]


def test_chi_grids(h_report):
    real_text, imag_text = chi_grids(h_report)
    header = "chi\tI\tX\t-iY\tZ"
    assert real_text.splitlines()[0] == header
    assert imag_text.splitlines()[0] == header
    x_row = real_text.splitlines()[2].split("\t")
    assert x_row[0] == "X" and float(x_row[1]) == pytest.approx(0.0, abs=1e-9)
    assert float(x_row[2]) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError, match="not a qpt report"):
        chi_grids({"kind": "qst"})


# --- CLI ---------------------------------------------------------------------

BELL = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[1];\ncx q[1], q[0];\n'


def test_cli_qpt_exact(tmp_path, capsys):
    code = main([
        "qpt", "--gate", "h", "--lines", "2",
        "--backend", "qx4", "--noise", "off", "--out", str(tmp_path),
    ])
    assert code == 0
    report = load_report(tmp_path / "qpt_h_2.json")
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
    out = capsys.readouterr().out
    assert "h 2: fidelity=1.000000" in out


def test_cli_reuses_one_parser_without_carrying_state():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["qpt", "--gate", "h", "--gate", "x", "--lines", "1",
                                       "--backend", "qx4"])
    second = build_parser().parse_args(["qpt", "--gate", "t", "--backend", "qx4"])
    assert first.gate == ["h", "x"] and first.lines == ["1"]
    assert second.gate == ["t"] and second.lines is None


def test_cli_qpt_all_lines(tmp_path):
    code = main([
        "qpt", "--gate", "t", "--all-lines",
        "--backend", "qx4", "--noise", "off", "--out", str(tmp_path),
    ])
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        f"qpt_t_{q}.json" for q in range(5)
    ]


def test_cli_qpt_cx_all_lines_follows_coupling(tmp_path):
    code = main([
        "qpt", "--gate", "cx", "--all-lines",
        "--backend", "qx4", "--noise", "off", "--out", str(tmp_path),
    ])
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "qpt_cx_1-0.json", "qpt_cx_2-0.json", "qpt_cx_2-1.json",
        "qpt_cx_2-4.json", "qpt_cx_3-2.json", "qpt_cx_3-4.json",
    ]


def test_cli_qpt_sampled_bytes_identical(tmp_path):
    args = ["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
            "--noise", "off", "--shots", "512", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "qpt_h_0.json").read_bytes() == (b / "qpt_h_0.json").read_bytes()


def test_cli_qpt_seeds_summary(tmp_path):
    code = main([
        "qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
        "--noise", "off", "--shots", "256", "--seed", "0", "--seeds", "3",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = load_report(tmp_path / "qpt_h_0_seeds.json")
    assert report["kind"] == "qpt-seeds"
    assert report["seeds"] == [0, 1, 2] and len(report["fidelities"]) == 3


def test_cli_qpt_project_psd(tmp_path):
    code = main([
        "qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
        "--noise", "off", "--shots", "256", "--seed", "1", "--project-psd",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = load_report(tmp_path / "qpt_h_0.json")
    assert report["psd_projected"] is True
    chi = np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"])
    assert np.linalg.eigvalsh(chi).min() >= -1e-12


def test_cli_qpt_failure_exit_code(tmp_path, capsys):
    code = main([
        "qpt", "--gate", "cx", "--lines", "0,1",
        "--backend", "qx4", "--out", str(tmp_path),
    ])
    assert code == 1
    assert "coupling map" in capsys.readouterr().err


def test_cli_argument_validation(tmp_path):
    base = ["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="--seed requires --shots"):
        main(base + ["--seed", "1"])
    with pytest.raises(SystemExit, match="--seeds requires --shots"):
        main(base + ["--seeds", "2"])
    with pytest.raises(SystemExit) as exc:
        main(base + ["--shots", "8", "--seeds", "0"])
    assert exc.value.code == 2  # an argparse error: "must be at least 1, got 0"
    with pytest.raises(SystemExit, match="neither a file nor a builtin"):
        main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx9",
              "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="unknown gate"):
        main(base[:2] + ["rx"] + base[3:])


def test_cli_qst_seed_requires_shots(tmp_path):
    circuit = tmp_path / "h.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="^error: --seed requires --shots$"):
        main(["qst", "--circuit", str(circuit), "--backend", "qx4", "--seed", "5",
              "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("command", ["qpt", "qst"])
@pytest.mark.parametrize("shots", ["0", "-5", "many"])
def test_cli_rejects_bad_shots_at_parsing(tmp_path, capsys, command, shots):
    circuit = tmp_path / "h.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    what = (["--all-gates", "--all-lines"] if command == "qpt"
            else ["--circuit", str(circuit)])
    with pytest.raises(SystemExit) as exc:
        main([command, *what, "--backend", "qx4", "--shots", shots, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    reason = f"invalid int value: '{shots}'" if shots == "many" else f"must be at least 1, got {shots}"
    # one error line, before any placement runs
    assert err.count("error:") == 1 and f"error: argument --shots: {reason}" in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("command", ["qpt", "qst"])
@pytest.mark.parametrize("shots", [str(2**63), "99999999999999999999"])
def test_cli_rejects_shots_above_int64_at_parsing(tmp_path, capsys, monkeypatch, command, shots):
    def evolve(*args):
        raise AssertionError("evolved")

    monkeypatch.setattr(qptkit.backend, "_evolve", evolve)
    circuit = tmp_path / "h.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    what = (["--all-gates", "--all-lines"] if command == "qpt"
            else ["--circuit", str(circuit)])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *what, "--backend", "qx4", "--shots", shots, "--seed", "0",
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    reason = f"must be at most {2**63 - 1}, got {shots}"
    assert err.count("error:") == 1 and f"error: argument --shots: {reason}" in err
    assert not out.exists()
    # the largest count the sampler takes parses
    args = build_parser().parse_args([command, *what, "--backend", "qx4",
                                      "--shots", str(2**63 - 1)])
    assert args.shots == 2**63 - 1


@pytest.mark.parametrize("command, extra", [("qpt", []), ("qpt", ["--seeds", "3"]),
                                            ("qst", [])])
def test_cli_rejects_negative_seed_at_parsing(tmp_path, capsys, command, extra):
    circuit = tmp_path / "h.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    what = (["--all-gates", "--all-lines", *extra] if command == "qpt"
            else ["--circuit", str(circuit)])
    with pytest.raises(SystemExit) as exc:
        main([command, *what, "--backend", "qx4", "--shots", "8", "--seed", "-1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # one error line, before any placement runs
    assert err.count("error:") == 1 and "error: argument --seed: must be at least 0, got -1" in err
    assert not list(tmp_path.glob("*.json"))


def test_cli_qst_unreadable_circuit(tmp_path):
    base = ["qst", "--backend", "qx4", "--out", str(tmp_path), "--circuit"]
    missing = tmp_path / "missing.qasm"
    with pytest.raises(SystemExit) as exc:
        main(base + [str(missing)])
    assert exc.value.code == f"error: {missing}: No such file or directory"
    with pytest.raises(SystemExit) as exc:
        main(base + [str(tmp_path)])
    assert str(exc.value.code).startswith(f"error: {tmp_path}: ")
    binary = tmp_path / "binary.qasm"
    binary.write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit, match=r"^error: .*binary\.qasm: 'utf-8' codec can't decode"):
        main(base + [str(binary)])
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(base + [str(bad)])
    assert exc.value.code == f"error: {bad}: line 3, column 1: unexpected end of input"
    assert not list(tmp_path.glob("*.json"))


def test_cli_backend_name_beside_a_directory_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qx4").mkdir()
    assert main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
                 "--out", "reports"]) == 0
    assert load_report(tmp_path / "reports" / "qpt_h_0.json")["backend"] == "ibmqx4-sim"


def test_cli_malformed_backend_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("name=x\nbroken\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["qpt", "--gate", "h", "--lines", "0", "--backend", "bad.cfg"])
    assert exc.value.code == ("error: backend bad.cfg: line 2: expected key=value, "
                              "got 'broken'")
    assert not list(tmp_path.glob("*.json"))


def test_grid_matches_per_element_oracle():
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    matrix[3, 4] = complex(-0.0, 0.5)
    matrix[5, 6] = complex(0.25, -0.0)
    matrix[7, 7] = complex(-0.0, -0.0)
    for part in (np.real, np.imag):
        want = [[float(part(v)) for v in row] for row in matrix]
        got = _grid(matrix, part)
        assert json.dumps(got) == json.dumps(want)
        assert all(type(v) is float for row in got for v in row)
    assert [repr(v) for row in _grid(matrix, np.real) for v in row].count("-0.0") == 2


def test_cli_qpt_gate_and_all_gates_exclusive(tmp_path, capsys):
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        main(["qpt", "--gate", "cx", "--all-gates", "--all-lines", "--backend", "qx4",
              "--out", str(out)])
    assert exc.value.code != 0
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["qpt", "--all-lines", "--backend", "qx4", "--out", str(out)])
    assert exc.value.code != 0
    assert "one of the arguments --gate --all-gates is required" in capsys.readouterr().err
    assert not out.exists()


def test_cli_qst(tmp_path, capsys):
    circuit = tmp_path / "bell.qasm"
    circuit.write_text(BELL, encoding="utf-8")
    code = main([
        "qst", "--circuit", str(circuit), "--backend", "qx4", "--noise", "off",
        "--out", str(tmp_path),
    ])
    assert code == 0
    report = load_report(tmp_path / "bell_qst.json")
    assert report["kind"] == "qst" and report["qubits"] == 2
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
    dataset = read_dataset((tmp_path / "bell_qst_dataset.txt").read_text())
    assert dataset.qubit_count == 2 and dataset.weights.shape == (9, 4)
    assert "state fidelity=1.000000" in capsys.readouterr().out


def test_cli_qst_sampled_is_deterministic(tmp_path):
    circuit = tmp_path / "hq0.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["qst", "--circuit", str(circuit), "--backend", "qx4",
                     "--noise", "off", "--shots", "8192", "--seed", "11",
                     "--out", str(out)]) == 0
        payloads.append((out / "hq0_qst.json").read_bytes())
    assert payloads[0] == payloads[1]
    report = parse_report(payloads[0].decode("utf-8"))
    assert report["shots"] == 8192 and report["seed"] == 11
    assert report["fidelity"] >= 0.99


def test_cli_qst_sampled_fidelity_above_one_loads(tmp_path):
    # <psi|rho|psi> of the unprojected estimate: shot noise takes it above 1
    # with this seed (1.0088)
    circuit = tmp_path / "ht.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\n", encoding="utf-8")
    assert main(["qst", "--circuit", str(circuit), "--backend", "qx4", "--noise", "off",
                 "--shots", "8192", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert load_report(tmp_path / "ht_qst.json")["fidelity"] > 1.0
    main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4", "--noise", "off",
          "--out", str(tmp_path)])
    assert main(["table", "--reports", str(tmp_path)]) == 0


def test_cli_qst_rejects_measured_circuit(tmp_path):
    circuit = tmp_path / "measured.qasm"
    circuit.write_text(
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n",
        encoding="utf-8",
    )
    with pytest.raises(SystemExit, match="must not measure"):
        main(["qst", "--circuit", str(circuit), "--backend", "qx4",
              "--out", str(tmp_path)])


_QST_MODES = {"noise-on": [], "noise-off": ["--noise", "off"],
              "idle-decay": ["--idle-decay", "on"], "shots": ["--shots", "8192", "--seed", "0"]}


@pytest.mark.parametrize("argv", _QST_MODES.values(), ids=_QST_MODES.keys())
def test_cli_qst_reference_off_the_stream_keeps_the_bytes(monkeypatch, argv):
    # CI's circuit touches every qubit of its register: the reference is the
    # state the tomography stream evolved, and execute_exact never runs
    def refuse(*args):
        raise AssertionError("execute_exact ran")

    monkeypatch.setattr(qptkit.cli, "execute_exact", refuse)
    streamed = regen.qst_files(regen.FIVE_QUBIT_QASM, argv)
    monkeypatch.undo()
    # the same files when the run hands back no reference and execute_exact evolves it
    calls = []
    execute_exact = qptkit.cli.execute_exact
    monkeypatch.setattr(qptkit.state_tomography, "_exact_state", lambda *args: None)
    monkeypatch.setattr(qptkit.cli, "execute_exact",
                        lambda *args: calls.append(args) or execute_exact(*args))
    assert regen.qst_files(regen.FIVE_QUBIT_QASM, argv) == streamed
    assert len(calls) == 1


def test_cli_qst_of_a_circuit_with_idle_qubits_evolves_the_reference_again(monkeypatch):
    calls = []
    execute_exact = qptkit.cli.execute_exact
    monkeypatch.setattr(qptkit.cli, "execute_exact",
                        lambda *args: calls.append(args[0]) or execute_exact(*args))
    regen.qst_files(regen.BELL_ON_FIVE_QASM, [])
    assert calls == [qptkit.parse_qasm(regen.BELL_ON_FIVE_QASM)]


def test_cli_qst_applies_the_circuits_instructions_once(qx4, monkeypatch):
    applied = []
    apply = qptkit.backend._apply

    def counting(sup, rho, layout, axes, k):
        applied.append(len(axes))
        return apply(sup, rho, layout, axes, k)

    monkeypatch.setattr(qptkit.backend, "_apply", counting)
    collect_weights([qptkit.parse_qasm(regen.FIVE_QUBIT_QASM)], qx4)
    stream = list(applied)
    applied.clear()
    regen.qst_files(regen.FIVE_QUBIT_QASM, [])
    # the circuit's three cx are the only two-qubit maps, each applied once:
    # the command applies what its tomography stream does and nothing more
    assert stream.count(2) == 3 and applied == stream


def test_cli_qst_reference_failing_its_density_check_reads_as_before(tmp_path, monkeypatch):
    check = qptkit.backend.check_density_matrix

    def failing_alone(states, **kwargs):
        # the reference is checked alone, as one matrix
        if states.ndim == 2:
            raise ValueError("density matrix is not Hermitian")
        return check(states, **kwargs)

    monkeypatch.setattr(qptkit.backend, "check_density_matrix", failing_alone)
    circuit = tmp_path / "five.qasm"
    circuit.write_text(regen.FIVE_QUBIT_QASM, encoding="utf-8")
    errors = []
    # off the stream, then through execute_exact as when the run has no reference
    for exact_state in (qptkit.state_tomography._exact_state, lambda *args: None):
        monkeypatch.setattr(qptkit.state_tomography, "_exact_state", exact_state)
        with pytest.raises(SystemExit) as exc:
            main(["qst", "--circuit", str(circuit), "--backend", "qx4",
                  "--out", str(tmp_path / "out")])
        errors.append(exc.value.code)
    assert errors == [f"error: {circuit}: density matrix is not Hermitian"] * 2
    assert not (tmp_path / "out").exists()


def test_cli_table(tmp_path, capsys):
    main(["qpt", "--gate", "h", "--lines", "2", "--backend", "qx4",
          "--noise", "off", "--out", str(tmp_path)])
    main(["qpt", "--gate", "x", "--lines", "0", "--backend", "qx4",
          "--noise", "off", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["table", "--reports", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].split() == ["gate", "q0", "q2"]
    prefix = tmp_path / "grid"
    assert main(["table", "--reports", str(tmp_path), "--out", str(prefix)]) == 0
    csv_text = (tmp_path / "grid.csv").read_text()
    assert csv_text.splitlines()[0] == "gate,q0,q2"
    assert "1.0000" in csv_text
    assert (tmp_path / "grid.txt").exists()
    with pytest.raises(SystemExit, match="no qpt reports"):
        main(["table", "--reports", str(tmp_path / "empty")])


def test_cli_chi_plot(tmp_path):
    main(["qpt", "--gate", "s", "--lines", "1", "--backend", "qx4",
          "--noise", "off", "--out", str(tmp_path)])
    prefix = tmp_path / "s_chi"
    assert main(["chi-plot", "--report", str(tmp_path / "qpt_s_1.json"),
                 "--out", str(prefix)]) == 0
    real_text = (tmp_path / "s_chi_real.tsv").read_text()
    assert real_text.startswith("chi\tI\tX\t-iY\tZ\n")
    imag_lines = (tmp_path / "s_chi_imag.tsv").read_text().splitlines()
    imag = {row[0]: [float(v) for v in row[1:]]
            for row in (line.split("\t") for line in imag_lines[1:])}
    assert imag["I"][3] == pytest.approx(0.5, abs=1e-9)
    assert imag["Z"][0] == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("command", ["table", "chi-plot"])
def test_cli_table_and_chi_plot_name_an_unusable_report(tmp_path, h_report, command):
    # a file either command cannot use ends it with one error line naming the
    # file and why, before anything is written
    bad_labels = dict(h_report, operator_labels=["I", "X", "Y", "Z"])
    faults = {
        "missing.json": (None, "No such file or directory"),
        "text.json": ("not json\n", "Expecting value: line 1 column 1 (char 0)"),
        "labels.json": (dump_report(bad_labels),
                        "invalid report: operator_labels ['I', 'X', 'Y', 'Z'] are not "
                        "['I', 'X', '-iY', 'Z']"),
        "binary.json": (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
        "folder.json": ("dir", "Is a directory"),
        "nested.json": ("[" * 100_000, "report nested too deeply"),
    }
    for name, (content, reason) in faults.items():
        folder = tmp_path / name.split(".")[0]
        folder.mkdir()
        dump_report(h_report, folder / "good.json")
        path = folder / name
        if content is None:
            path.symlink_to(folder / "nowhere.json")  # a dangling link the table globs
        elif content == "dir":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        argv = (["table", "--reports", str(folder), "--out", str(folder / "grid")]
                if command == "table" else
                ["chi-plot", "--report", str(path), "--out", str(folder / "chi")])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith(f"error: {path}: {reason}"), exc.value.code
        assert sorted(p.name for p in folder.iterdir()) == sorted(["good.json", name])


def test_cli_table_and_chi_plot_create_the_out_directory(tmp_path, h_report, capsys):
    # as qpt and qst do, both create the missing directories of their --out
    # prefix and write there what they write beside existing ones
    reports = tmp_path / "r"
    reports.mkdir()
    dump_report(h_report, reports / "qpt_h_0.json")
    runs = {"table": (["table", "--reports", str(reports)], ["grid.csv", "grid.txt"]),
            "chi-plot": (["chi-plot", "--report", str(reports / "qpt_h_0.json")],
                         ["grid_imag.tsv", "grid_real.tsv"])}
    for command, (argv, names) in runs.items():
        fresh, existing = tmp_path / command / "nodir" / "deeper", tmp_path
        for folder in (fresh, existing):
            assert main([*argv, "--out", str(folder / "grid")]) == 0
        assert sorted(p.name for p in fresh.iterdir()) == names
        for name in names:
            assert (fresh / name).read_bytes() == (existing / name).read_bytes()
    capsys.readouterr()


_COUPLING = "(1>0,2>0,2>1,2>4,3>2,3>4)"
_CLI_FAULTS = {
    "qpt-out-is-a-file": (["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4",
                           "--noise", "off", "--out", "afile"], "afile: File exists"),
    "qst-out-is-a-file": (["qst", "--circuit", "ok.qasm", "--backend", "qx4", "--out", "afile"],
                          "afile: File exists"),
    "table-out-under-a-file": (["table", "--reports", "r", "--out", "afile/grid"],
                               "afile: File exists"),
    "chi-plot-out-under-a-file": (["chi-plot", "--report", "r/qpt_h_0.json",
                                   "--out", "afile/chi"], "afile: File exists"),
    "backend-not-utf-8": (["qpt", "--gate", "h", "--lines", "0", "--backend", "bin.cfg"],
                          "backend bin.cfg: 'utf-8' codec can't decode byte 0xff in "
                          "position 2: invalid start byte"),
    "qst-off-the-coupling-map": (["qst", "--circuit", "cx01.qasm", "--backend", "qx4"],
                                 "cx01.qasm: instruction 0: cx 0>1 not in the ibmqx4-sim "
                                 f"coupling map {_COUPLING}"),
    "qst-report-path-is-a-directory": (["qst", "--circuit", "ok.qasm", "--backend", "qx4",
                                        "--out", "out"], "out/ok_qst.json: Is a directory"),
    "qst-dataset-path-is-a-directory": (["qst", "--circuit", "ok.qasm", "--backend", "qx4",
                                         "--out", "data"],
                                        "data/ok_qst_dataset.txt: Is a directory"),
}


@pytest.mark.parametrize("argv, message", _CLI_FAULTS.values(), ids=_CLI_FAULTS.keys())
def test_cli_ends_in_one_error_line_and_writes_nothing(tmp_path, monkeypatch, h_report,
                                                        argv, message):
    # a directory or report that cannot be written, a backend file that is
    # not UTF-8 and a circuit the backend cannot run each end the command
    # with one error line instead of a traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    (tmp_path / "r").mkdir()
    dump_report(h_report, tmp_path / "r" / "qpt_h_0.json")
    (tmp_path / "out" / "ok_qst.json").mkdir(parents=True)
    (tmp_path / "data" / "ok_qst_dataset.txt").mkdir(parents=True)
    (tmp_path / "ok.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n", encoding="utf-8")
    (tmp_path / "cx01.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n",
                                        encoding="utf-8")
    (tmp_path / "bin.cfg").write_bytes(b"x=\xff\xfe\n")
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: {message}"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_bytes() == b""


def test_cli_qpt_creates_its_out_directory_with_the_first_report(tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    # every placement fails: no directory is left behind
    assert main(["qpt", "--gate", "cx", "--lines", "0,1", "--backend", "qx4",
                 "--out", "fresh/reports"]) == 1
    assert capsys.readouterr().err == ("error: cx 0,1: cx 0>1 not in the "
                                       f"ibmqx4-sim coupling map {_COUPLING}\n")
    assert list(tmp_path.iterdir()) == []
    # a failing placement before a good one: the good one creates it
    assert main(["qpt", "--gate", "cx", "--lines", "0,1", "--lines", "1,0", "--backend", "qx4",
                 "--noise", "off", "--out", "fresh/reports"]) == 1
    assert [p.name for p in (tmp_path / "fresh" / "reports").iterdir()] == ["qpt_cx_1-0.json"]


def test_cli_chi_plot_rejects_a_qst_report(tmp_path):
    circuit = tmp_path / "h.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", encoding="utf-8")
    main(["qst", "--circuit", str(circuit), "--backend", "qx4", "--out", str(tmp_path)])
    report = tmp_path / "h_qst.json"
    with pytest.raises(SystemExit) as exc:
        main(["chi-plot", "--report", str(report), "--out", str(tmp_path / "chi")])
    assert exc.value.code == f"error: {report}: not a qpt report"
    assert not list(tmp_path.glob("*.tsv"))


def test_cli_checks_every_report_before_writing_it(tmp_path, monkeypatch):
    import qptkit.cli

    checked = []
    original = qptkit.cli.check_report

    def recording(report):
        checked.append((report["kind"], sorted(p.name for p in tmp_path.glob("*.json"))))
        return original(report)

    monkeypatch.setattr(qptkit.cli, "check_report", recording)
    monkeypatch.setattr(qptkit.cli, "load_report", None)  # nothing is read back
    circuit = tmp_path / "ht.qasm"
    circuit.write_text('OPENQASM 2.0;\nqreg q[1];\nh q[0];\nt q[0];\n')
    assert main(["qst", "--circuit", str(circuit), "--backend", "qx4",
                 "--out", str(tmp_path)]) == 0
    assert main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4", "--shots", "64",
                 "--seed", "1", "--seeds", "2", "--out", str(tmp_path)]) == 0
    assert main(["qpt", "--gate", "x", "--lines", "0", "--backend", "qx4",
                 "--out", str(tmp_path)]) == 0
    assert checked == [("qst", []), ("qpt-seeds", ["ht_qst.json"]),
                       ("qpt", ["ht_qst.json", "qpt_h_0_seeds.json"])]


def _typed(value):
    """``value`` with the type of every container and scalar spelled out."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(item) for item in value]
    return type(value).__name__, value


def test_every_report_the_cli_checks_reads_back_as_itself(tmp_path, monkeypatch):
    # a report dict the CLI checks is what its text reads back as: no tuple
    # and no numpy scalar in it, so the dict check sees what a reader sees
    checked = []
    original = qptkit.cli.check_report
    monkeypatch.setattr(qptkit.cli, "check_report",
                        lambda report: checked.append(report) or original(report))
    circuit = tmp_path / "ht.qasm"
    circuit.write_text('OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[1],q[0];\nt q[0];\n')
    for psd in ([], ["--project-psd"]):
        for sampling in ([], ["--shots", "64", "--seed", "1"]):
            assert main(["qst", "--circuit", str(circuit), "--backend", "qx4",
                         "--out", str(tmp_path), *sampling, *psd]) == 0
            for gate, lines in (("h", "0"), ("cx", "1,0")):
                assert main(["qpt", "--gate", gate, "--lines", lines, "--backend", "qx4",
                             "--out", str(tmp_path), *sampling, *psd]) == 0
        assert main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4", "--shots", "64",
                     "--seed", "1", "--seeds", "2", "--out", str(tmp_path), *psd]) == 0
    kinds = [(r["kind"], r.get("psd_projected"), r["shots"]) for r in checked]
    assert kinds == [("qst", False, None), ("qpt", False, None), ("qpt", False, None),
                     ("qst", False, 64), ("qpt", False, 64), ("qpt", False, 64),
                     ("qpt-seeds", None, 64),
                     ("qst", True, None), ("qpt", True, None), ("qpt", True, None),
                     ("qst", True, 64), ("qpt", True, 64), ("qpt", True, 64),
                     ("qpt-seeds", None, 64)]
    for report in checked:
        assert _typed(json.loads(dump_report(report))) == _typed(report)


def test_cli_qpt_writes_no_report_that_fails_its_check(tmp_path, monkeypatch, capsys):
    import qptkit.cli

    def out_of_range(result):
        return {**chi_report_dict(result), "fidelity": 2.0}

    monkeypatch.setattr(qptkit.cli, "chi_report_dict", out_of_range)
    assert main(["qpt", "--gate", "h", "--lines", "0", "--backend", "qx4", "--noise", "off",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: h 0: invalid report: fidelity out of range\n"
    assert list(tmp_path.iterdir()) == []