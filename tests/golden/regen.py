"""Write ``counts.json``: the sha256 of every seeded count stack of a fixed
list of runs, each stack hashed as little-endian int64 bytes;
``states.json``: the sha256 of ``reconstruct_states`` of each of those stacks
and of seeded float stacks for 1-5 qubits, as little-endian complex128 bytes;
and ``reports.json``: the sha256 of the bytes of every exact ``qpt`` report
the CLI writes for the 51 qx4 placements and for the nine single-qubit gates
on line 2 of qx2, the paper's QX2 run.

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
"""

from __future__ import annotations

import hashlib
import json
import platform
from collections.abc import Iterator
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np

from qptkit import process_tomography
from qptkit.backend import builtin_backend, load_backend
from qptkit.operators import GATE_ARITY
from qptkit.process_tomography import run_qpt
from qptkit.qasm import parse_qasm
from qptkit.reports import chi_report_dict, dump_report
from qptkit.state_tomography import collect_weights, reconstruct_states, run_qst

MANIFEST = Path(__file__).with_name("counts.json")
STATES = Path(__file__).with_name("states.json")
REPORTS = Path(__file__).with_name("reports.json")

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


def flips_backend():
    """qx4 with a 0.02 readout flip on every qubit, as CI builds it."""
    text = resources.files("qptkit").joinpath("configs/qx4.cfg").read_text(encoding="utf-8")
    assert text.count("readout_flip=0.0") == 5
    return load_backend(text.replace("readout_flip=0.0", "readout_flip=0.02"))


def qpt_counts(gate: str, lines: tuple[int, ...], backend, shots: int) -> np.ndarray:
    """The count stack ``run_qpt`` draws for one placement with seed 0."""
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(collect_weights(*args, **kwargs))
        return drawn[-1]

    with mock.patch.object(process_tomography, "collect_weights", recording):
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


def report_digests() -> dict[str, str]:
    """The reports manifest's entries: each exact ``qpt`` report's bytes as
    ``qptkit qpt`` writes them."""
    qx4, qx2 = builtin_backend("qx4"), builtin_backend("qx2")
    single = [g for g, arity in GATE_ARITY.items() if arity == 1]
    runs = [("qx4", qx4, g, (q,)) for g in single for q in range(5)]
    runs += [("qx4", qx4, "cx", p) for p in sorted(qx4.coupling.pairs)]
    runs += [("qx2", qx2, g, (2,)) for g in single]
    return {f"qpt {name} {gate} {lines} exact": hashlib.sha256(
                dump_report(chi_report_dict(run_qpt(gate, lines, backend))).encode("utf-8")
            ).hexdigest() for name, backend, gate, lines in runs}


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
    stacks = list(count_stacks())
    for path, hashed, entries, versions in (
            (MANIFEST, "each count stack as little-endian int64", digests(stacks), {}),
            (STATES, "each reconstructed state stack as little-endian complex128",
             state_digests(stacks), {}),
            (REPORTS, "the UTF-8 bytes of each exact qpt report", report_digests(),
             {"python": platform.python_version()})):
        manifest = {"hash": f"sha256 of {hashed}", **versions, "numpy": np.__version__,
                    "entries": entries}
        path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} entries to {path}")


if __name__ == "__main__":
    main()
