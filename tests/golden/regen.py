"""Write ``counts.json``: the sha256 of every seeded count stack of a fixed
list of runs, each stack hashed as little-endian int64 bytes;
``states.json``: the sha256 of ``reconstruct_states`` of each of those stacks
and of seeded float stacks for 1-5 qubits, as little-endian complex128 bytes;
and ``reports.json``: the sha256 of the bytes of every exact ``qpt`` report
the CLI writes for the 51 qx4 placements and for the nine single-qubit gates
on line 2 of qx2, the paper's QX2 run, and of the report and dataset
``qptkit qst`` writes for CI's 5-qubit circuit and for a Bell pair on q0, q1
of a 5-qubit register, each on qx4 with noise on and off, exact and at 8192
shots with seed 0.  CI's circuit touches every qubit of its register, so its
run reads its reference state off the tomography stream; the Bell pair
leaves three qubits idle, so its run evolves the reference again.

The runs are the sampled ones the paper's figures and CI's determinism step
rest on:

* the stacks ``run_qpt`` draws for all 51 qx4 placements at 8192 shots;
* ``h`` and ``cx`` on all lines of qx4 with a 0.02 readout flip on every
  qubit, at 8192 and at 5 shots;
* ``run_qst`` of CI's 5-qubit circuit on qx4, with and without those
  flips, at 5 and at 8192 shots;
* the nine single-qubit gates on line 2 of qx2 at 8192 shots, the paper's
  QX2 run;
* ``h`` and ``cx`` on all lines of qx4 with idle decay on, at 8192 shots;
* ``h`` and ``cx`` on all lines of qx4 with noise off, at 8192 and at 5
  shots, where many outcome weights are exactly 0 and numpy's binomial
  draws nothing for them;
* ``run_qst`` of CI's 5-qubit circuit on qx4 with idle decay on, at 8192
  shots;

all with seed 0.  The float stacks hold ``Generator`` uniforms with about a
quarter of each row's weights zero.  Every input is an integer or a seeded
float and the reconstruction is elementwise, so neither manifest depends on
the BLAS.  An exact report's chi comes from linear algebra.  Every manifest
records the numpy version it was written with, since numpy does not promise
to keep its seeded draws across versions, and ``reports.json`` also records
the Python version.  ``tests/test_golden_counts.py``,
``tests/test_golden_states.py`` and ``tests/test_golden_reports.py``
recompute them through ``mismatch`` and name every entry that differs; each
is strict only under the versions its manifest records, unless pytest runs
with ``--golden-strict`` (``tests/conftest.py``).  Regenerating a
manifest changes what a seed or a stored dataset means; a change that does
so lists every changed entry.  Run it from the repository root::

    PYTHONPATH=src python3 tests/golden/regen.py

The float tier, ``floats.json``, holds values, not digests: the chi of
each exact ``qpt`` report that ``reports.json`` covers (the 51 qx4
placements and the nine QX2 q[2] ones, 2,400 complex entries) and the
exact noise-on ``run_qst`` states of CI's 5-qubit circuit and of the Bell
pair, each entry as ``repr`` floats, real and imaginary parts.
``tests/test_golden_floats.py`` recomputes them through ``float_mismatch``
and fails when any entry differs by more than ``FLOAT_ATOL`` (1e-12), under
every numpy and Python version, with no skip.  A change that moves output
bits but not values, such as a new order of floating-point operations,
leaves the tier as it is, so the tier checks that change instead of being
rewritten by it: ``regen.py`` writes it only when asked, for a change meant
to move values by more than ``FLOAT_ATOL``::

    PYTHONPATH=src python3 tests/golden/regen.py --floats
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from collections.abc import Iterator
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np

from qptkit import cli, process_tomography
from qptkit.backend import builtin_backend, load_backend
from qptkit.operators import GATE_ARITY
from qptkit.process_tomography import QptResult, run_qpt
from qptkit.qasm import parse_qasm
from qptkit.reports import chi_report_dict, dump_report
from qptkit.state_tomography import reconstruct_states, run_qst

MANIFEST = Path(__file__).with_name("counts.json")
STATES = Path(__file__).with_name("states.json")
REPORTS = Path(__file__).with_name("reports.json")
FLOATS = Path(__file__).with_name("floats.json")
FLOAT_ATOL = 1e-12

FIVE_QUBIT_QASM = """OPENQASM 2.0;
include "qelib1.inc";
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

# a Bell pair on q0, q1 of a register whose other three qubits stay idle
BELL_ON_FIVE_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[1];
cx q[1],q[0];
"""


def flips_backend():
    """qx4 with a 0.02 readout flip on every qubit, as CI builds it."""
    text = resources.files("qptkit").joinpath("configs/qx4.cfg").read_text(encoding="utf-8")
    assert text.count("readout_flip=0.0") == 5
    return load_backend(text.replace("readout_flip=0.0", "readout_flip=0.02"))


def qpt_counts(gate: str, lines: tuple[int, ...], backend, shots: int) -> np.ndarray:
    """The count stack ``run_qpt`` draws for one placement with seed 0."""
    drawn = []
    collect = process_tomography._collect

    def recording(*args, **kwargs):
        result = collect(*args, **kwargs)
        drawn.append(result[0])
        return result

    with mock.patch.object(process_tomography, "_collect", recording):
        run_qpt(gate, lines, backend, shots=shots, seed=0)
    (stack,) = drawn
    return stack


def count_stacks() -> Iterator[tuple[str, np.ndarray]]:
    """(entry name, count stack) of every run, in manifest order."""
    qx4, flips = builtin_backend("qx4"), flips_backend()
    single = [g for g, arity in GATE_ARITY.items() if arity == 1]
    pairs = sorted(qx4.coupling.pairs)
    placements = [(g, (q,)) for g in single for q in range(5)] + [("cx", p) for p in pairs]
    for gate, lines in placements:
        yield f"qpt qx4 {gate} {lines} shots=8192", qpt_counts(gate, lines, qx4, 8192)
    for shots in (8192, 5):
        for gate, lines in [("h", (q,)) for q in range(5)] + [("cx", p) for p in pairs]:
            yield (f"qpt qx4-flips {gate} {lines} shots={shots}",
                   qpt_counts(gate, lines, flips, shots))
    circuit = parse_qasm(FIVE_QUBIT_QASM)
    for name, backend in (("qx4", qx4), ("qx4-flips", flips)):
        for shots in (5, 8192):
            weights = run_qst(circuit, backend, shots=shots, seed=0).dataset.weights
            yield f"qst five {name} shots={shots}", weights[None]
    qx2 = builtin_backend("qx2")
    for gate in single:
        yield f"qpt qx2 {gate} (2,) shots=8192", qpt_counts(gate, (2,), qx2, 8192)
    idle = qx4.with_idle_decay(True)
    for gate, lines in [("h", (q,)) for q in range(5)] + [("cx", p) for p in pairs]:
        yield f"qpt qx4-idle {gate} {lines} shots=8192", qpt_counts(gate, lines, idle, 8192)
    quiet = qx4.with_noise(False)
    for shots in (8192, 5):
        for gate, lines in [("h", (q,)) for q in range(5)] + [("cx", p) for p in pairs]:
            yield (f"qpt qx4-noise-off {gate} {lines} shots={shots}",
                   qpt_counts(gate, lines, quiet, shots))
    weights = run_qst(circuit, idle, shots=8192, seed=0).dataset.weights
    yield "qst five qx4-idle shots=8192", weights[None]


def float_stacks() -> Iterator[tuple[str, np.ndarray]]:
    """(entry name, weight stack) of three seeded float datasets per qubit
    count, every weight below a quarter of its row's largest set to zero."""
    for n in range(1, 6):
        weights = np.random.default_rng(n).random((3, 3 ** n, 1 << n))
        weights[weights < 0.25 * weights.max(axis=-1, keepdims=True)] = 0.0
        yield f"floats n={n}", weights


def digest(stack: np.ndarray) -> str:
    """sha256 of the stack as little-endian int64; it must hold integers."""
    counts = np.asarray(stack).astype("<i8")
    assert np.array_equal(counts, stack), "count stack holds non-integers"
    return hashlib.sha256(counts.tobytes()).hexdigest()


def digests(stacks: list[tuple[str, np.ndarray]]) -> dict[str, str]:
    """The counts manifest's entries, from ``list(count_stacks())``."""
    return {name: digest(stack) for name, stack in stacks}


def state_digests(stacks: list[tuple[str, np.ndarray]]) -> dict[str, str]:
    """The states manifest's entries: each count stack of ``stacks``, then
    each float stack, reconstructed and hashed as little-endian complex128."""
    return {name: hashlib.sha256(reconstruct_states(weights).astype("<c16").tobytes()).hexdigest()
            for name, weights in [*stacks, *float_stacks()]}


def qst_files(qasm: str, argv: list[str]) -> dict[str, bytes]:
    """The bytes of the files ``qptkit qst`` writes for a circuit, by suffix."""
    with tempfile.TemporaryDirectory() as work:
        circuit = Path(work) / "circuit.qasm"
        circuit.write_text(qasm, encoding="utf-8")
        out = Path(work) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["qst", "--circuit", str(circuit), "--backend", "qx4",
                               "--out", str(out), *argv])
        assert status == 0, status
        return {suffix: (out / f"circuit{suffix}").read_bytes()
                for suffix in ("_qst.json", "_qst_dataset.txt")}


def exact_qpt_runs() -> Iterator[tuple[str, QptResult]]:
    """(entry name, ``run_qpt`` result) of each exact run: the 51 qx4
    placements, then the nine single-qubit gates on line 2 of qx2."""
    qx4, qx2 = builtin_backend("qx4"), builtin_backend("qx2")
    single = [g for g, arity in GATE_ARITY.items() if arity == 1]
    runs = [("qx4", qx4, g, (q,)) for g in single for q in range(5)]
    runs += [("qx4", qx4, "cx", p) for p in sorted(qx4.coupling.pairs)]
    runs += [("qx2", qx2, g, (2,)) for g in single]
    for name, backend, gate, lines in runs:
        yield f"qpt {name} {gate} {lines} exact", run_qpt(gate, lines, backend)


def report_digests() -> dict[str, str]:
    """The reports manifest's entries: each exact ``qpt`` report's bytes as
    ``qptkit qpt`` writes them, then each ``qst`` report and dataset as
    ``qptkit qst`` writes them."""
    entries = {name: hashlib.sha256(dump_report(chi_report_dict(run)).encode("utf-8")).hexdigest()
               for name, run in exact_qpt_runs()}
    for name, qasm in (("five", FIVE_QUBIT_QASM), ("bell-on-five", BELL_ON_FIVE_QASM)):
        for noise in ("on", "off"):
            for shots, argv in (("exact", []), ("shots=8192", ["--shots", "8192", "--seed", "0"])):
                files = qst_files(qasm, ["--noise", noise, *argv])
                for suffix, text in files.items():
                    entries[f"qst {name} qx4 noise={noise} {shots} {suffix[1:]}"] = (
                        hashlib.sha256(text).hexdigest())
    return entries


def float_values() -> dict[str, np.ndarray]:
    """The float tier's entries: each exact ``qpt`` run's chi, then the
    exact noise-on ``run_qst`` state of CI's circuit and of the Bell pair."""
    entries = {name: run.chi.matrix for name, run in exact_qpt_runs()}
    qx4 = builtin_backend("qx4").with_noise(True)
    for name, qasm in (("five", FIVE_QUBIT_QASM), ("bell-on-five", BELL_ON_FIVE_QASM)):
        entries[f"qst {name} qx4 noise=on exact"] = run_qst(parse_qasm(qasm), qx4).state
    return entries


def float_mismatch(got: dict[str, np.ndarray]) -> str:
    """Each entry of ``got`` farther than ``FLOAT_ATOL`` from the float
    tier, with its largest deviation, as one line ("" when none is)."""
    want = json.loads(FLOATS.read_text(encoding="utf-8"))["entries"]
    assert list(got) == list(want), f"{FLOATS.name} lists other entries"
    differing = []
    for name, value in got.items():
        stored = np.array(want[name]["real"]) + 1j * np.array(want[name]["imag"])
        deviation = (float(np.abs(value - stored).max()) if value.shape == stored.shape
                     else math.inf)
        if not deviation <= FLOAT_ATOL:
            differing.append(f"{name} (by {deviation:.3g})")
    summary = f"{len(differing)} of {len(want)} differ by more than {FLOAT_ATOL}: "
    return summary + "; ".join(differing) if differing else ""


def write_floats() -> None:
    """Write ``floats.json``, one line per entry."""
    entries = [f" {json.dumps(name)}: " + json.dumps(
                   {"real": value.real.tolist(), "imag": value.imag.tolist()},
                   separators=(",", ":"))
               for name, value in float_values().items()]
    header = {"values": "real and imaginary parts of each exact qpt chi and qst state",
              "python": platform.python_version(), "numpy": np.__version__}
    text = json.dumps(header, indent=1)[:-2] + ',\n "entries": {\n' + ",\n".join(entries)
    FLOATS.write_text(text + "\n }\n}\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {FLOATS}")


def mismatch(path: Path, got: dict[str, str]) -> tuple[str, list[str]]:
    """The entries of ``got`` that differ from the manifest at ``path``, as
    one line naming each ("" when none differ), and each version the
    manifest records that differs from this interpreter's."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    want = manifest["entries"]
    assert list(got) == list(want), f"{path.name} lists other entries"
    differing = [name for name in want if got[name] != want[name]]
    here = {"python": platform.python_version(), "numpy": np.__version__}
    other = [f"{key} {version} (manifest {manifest[key]})"
             for key, version in here.items() if key in manifest and manifest[key] != version]
    summary = f"{len(differing)} of {len(want)} differ: " + "; ".join(differing)
    return summary if differing else "", other


def main() -> None:
    if sys.argv[1:] not in ([], ["--floats"]):
        sys.exit("usage: regen.py [--floats]")
    if sys.argv[1:]:
        write_floats()
        return
    stacks = list(count_stacks())
    for path, hashed, entries, versions in (
            (MANIFEST, "each count stack as little-endian int64", digests(stacks), {}),
            (STATES, "each reconstructed state stack as little-endian complex128",
             state_digests(stacks), {}),
            (REPORTS, "the UTF-8 bytes of each exact qpt report and of each qst report "
                      "and dataset", report_digests(),
             {"python": platform.python_version()})):
        manifest = {"hash": f"sha256 of {hashed}", **versions, "numpy": np.__version__,
                    "entries": entries}
        path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} entries to {path}")


if __name__ == "__main__":
    main()
