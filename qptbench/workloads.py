"""The three benchmark workloads: seeded inputs, one pass of items, output checks.

Every input is generated here from the run's ``--seed`` with numpy alone, before
qptkit is imported; the program only ever receives the generated inputs (argv
strings, QASM files, Kraus operators).  A workload object is used as

    w = Workload(seed, workdir)     # generate inputs (untimed)
    w.bind(qptkit)                  # after each (re-)import of the package
    w.warm_up()                     # one untimed item of each kind, checked
    for step in w.steps(): out = step.run(); step.check(out)   # one pass

``step.check`` raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference_chi.json"

SHOTS = 8192
SINGLE_QUBIT_GATES = ("id", "x", "y", "z", "h", "t", "tdg", "s", "sdg")
# The builtin qx4 device: five lines and its directed cx pairs (control, target).
QX4_LINES = 5
QX4_PAIRS = ((1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (2, 4))
# Every gate placement of the sweep: 9 gates x 5 lines, then the 6 cx pairs.
QX4_PLACEMENTS = tuple([(g, (q,)) for g in SINGLE_QUBIT_GATES for q in range(QX4_LINES)]
                       + [("cx", pair) for pair in QX4_PAIRS])

# max |chi - chi_exact| * sqrt(shots) accepted for a sampled placement, by
# arity.  At the seed commit, 40 seeds of every placement give at most 1.30
# (single qubit, 1800 runs) and 0.80 (cx, 240 runs): about 1.9x headroom,
# while one chi entry wrong by 0.05 reads 4.5.
CHI_NOISE_LIMIT = {1: 2.5, 2: 1.5}
FIDELITY_GATE = 0.95
EXACT_ATOL = 1e-9


class CheckFailed(Exception):
    """An item's output is wrong."""


@dataclass(frozen=True)
class Step:
    """One timed call; ``is_item`` steps count as items, the rest as pass overhead."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    is_item: bool = True


def _seed_sequence(seed: int, workload: str) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *workload.encode("ascii")])


def call_cli(cli, argv: list[str]) -> None:
    """Run ``cli.main`` in-process with stdout captured; raise unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    if status != 0:
        raise RuntimeError(f"qptkit {' '.join(argv)} exited with {status}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- sweep_sampled -------------------------------------------------------------


class SweepSampled:
    """Every qx4 placement at 8192 shots through ``qptkit qpt``, then ``table``."""

    name = "sweep_sampled"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.placements = list(QX4_PLACEMENTS)
        warm = [("h", (2,)), ("cx", (3, 2))]
        state = _seed_sequence(seed, self.name).generate_state(
            len(self.placements) + len(warm), dtype=np.uint32)
        seeds = [str(int(s)) for s in state]
        self.seeds = dict(zip(self.placements + warm, seeds))
        self.warm = warm
        self.out = workdir / "reports"
        self.warm_out = workdir / "warmup"
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)["placements"]
        self.reference = {
            key: np.array(v["real"]) + 1j * np.array(v["imag"]) for key, v in ref.items()
        }
        self.first_report: dict[str, bytes] = {}
        self.fidelities: dict[tuple[str, tuple[int, ...]], float] = {}

    def bind(self, qptkit) -> None:
        self.cli = qptkit.cli

    def _qpt(self, gate: str, lines: tuple[int, ...], out: Path) -> Path:
        where = ",".join(map(str, lines))
        call_cli(self.cli, ["qpt", "--gate", gate, "--lines", where, "--backend", "qx4",
                            "--shots", str(SHOTS), "--seed", self.seeds[(gate, lines)],
                            "--out", str(out)])
        return out / f"qpt_{gate}_{'-'.join(map(str, lines))}.json"

    def _check_report(self, gate: str, lines: tuple[int, ...], path: Path,
                      repeatable: bool = True) -> None:
        text = path.read_bytes()
        report = json.loads(text)
        key = f"{gate} {','.join(map(str, lines))}"
        _require(report["gate"] == gate and tuple(report["lines"]) == lines,
                 f"{key}: report names {report['gate']} {report['lines']}")
        _require(report["fidelity"] >= FIDELITY_GATE,
                 f"{key}: fidelity {report['fidelity']:.4f} < {FIDELITY_GATE}")
        chi = np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"])
        noise = float(np.abs(chi - self.reference[key]).max()) * math.sqrt(SHOTS)
        limit = CHI_NOISE_LIMIT[len(lines)]
        _require(noise <= limit,
                 f"{key}: max|chi - exact| * sqrt(shots) = {noise:.3f} > {limit}")
        if repeatable:
            first = self.first_report.setdefault(key, text)
            _require(text == first, f"{key}: same seed, different report bytes")
        self.fidelities[(gate, lines)] = report["fidelity"]

    def _table(self, out: Path) -> Path:
        call_cli(self.cli, ["table", "--reports", str(out), "--out", str(out / "table")])
        return out / "table.csv"

    def _check_table(self, placements, path: Path) -> None:
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        header, body = rows[0], {row[0]: row[1:] for row in rows[1:]}
        for gate, lines in placements:
            col = f"q{lines[0]}" if len(lines) == 1 else f"{lines[0]}>{lines[1]}"
            _require(gate in body and col in header, f"table lacks {gate} {col}")
            cell = body[gate][header.index(col) - 1]
            want = f"{self.fidelities[(gate, lines)]:.4f}"
            _require(cell == want, f"table {gate} {col}: {cell!r} != {want!r}")

    def warm_up(self) -> None:
        for gate, lines in self.warm:
            self._check_report(gate, lines, self._qpt(gate, lines, self.warm_out),
                               repeatable=False)
        self._check_table(self.warm, self._table(self.warm_out))

    def steps(self):
        for gate, lines in self.placements:
            yield Step(
                f"{gate}:{','.join(map(str, lines))}",
                lambda g=gate, l=lines: self._qpt(g, l, self.out),
                lambda path, g=gate, l=lines: self._check_report(g, l, path),
            )
        yield Step("table", lambda: self._table(self.out),
                   lambda path: self._check_table(self.placements, path), is_item=False)


# --- channel_qpt ---------------------------------------------------------------


def _two_qubit_operators() -> np.ndarray:
    """The fixed operator set: Kronecker products of I, X, -iY, Z, first factor slowest."""
    single = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1], [1, 0]]),
              np.diag([1, -1])]
    return np.array([np.kron(a, b) for a in single for b in single], dtype=complex)


def random_kraus(rng: np.random.Generator, rank: int) -> tuple[np.ndarray, ...]:
    """Kraus operators of a random two-qubit CPTP map: 4x4 blocks of the Q factor
    of a (4 rank x 4) complex Gaussian, so that sum_k K^dagger K = Q^dagger Q = I."""
    gauss = rng.normal(size=(4 * rank, 4)) + 1j * rng.normal(size=(4 * rank, 4))
    isometry, _ = np.linalg.qr(gauss)
    return tuple(isometry[4 * k:4 * (k + 1)] for k in range(rank))


class ChannelQpt:
    """``qpt_channel`` on random two-qubit channels, Kraus rank cycling 1..4."""

    name = "channel_qpt"
    PASS_ITEMS = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(_seed_sequence(seed, self.name))
        self.channels = [random_kraus(rng, 1 + i % 4) for i in range(self.PASS_ITEMS)]
        self.warm = random_kraus(rng, 4)
        self.ops = _two_qubit_operators()

    def bind(self, qptkit) -> None:
        self.qptkit = qptkit

    def _run(self, kraus):
        return self.qptkit.qpt_channel(self.qptkit.KrausChannel(2, kraus))

    def _check(self, kraus, chi) -> None:
        # chi_to_channel evaluated independently of the package: the image of
        # |a><b| is sum_mn chi_mn E_m|a><b|E_n^dagger = sum_mn chi_mn E_m[:, a] E_n[:, b]^*,
        # and through the Kraus operators sum_k K[:, a] K[:, b]^*.
        kr = np.array(kraus)
        via_chi = np.einsum("mn,mia,nlb->abil", np.asarray(chi.matrix), self.ops, self.ops.conj())
        via_kraus = np.einsum("kia,klb->abil", kr, kr.conj())
        dev = float(np.abs(via_chi - via_kraus).max())
        _require(dev <= EXACT_ATOL, f"chi misses the channel on a matrix unit by {dev:.2e}")

    def warm_up(self) -> None:
        self._check(self.warm, self._run(self.warm))

    def steps(self):
        for i, kraus in enumerate(self.channels):
            yield Step(f"channel{i}:rank{len(kraus)}",
                       lambda k=kraus: self._run(k),
                       lambda chi, k=kraus: self._check(k, chi))


# --- qst_exact -----------------------------------------------------------------


def random_circuit(rng: np.random.Generator, gates: int, cx: int) -> list[tuple[str, tuple[int, ...]]]:
    """A measurement-free 5-qubit circuit with ``cx`` qx4-coupled cx gates, as
    (gate, lines) pairs in circuit order."""
    cx_at = set(rng.choice(gates, size=cx, replace=False).tolist())
    ops = []
    for pos in range(gates):
        if pos in cx_at:
            ops.append(("cx", QX4_PAIRS[rng.integers(len(QX4_PAIRS))]))
        else:
            gate = SINGLE_QUBIT_GATES[rng.integers(len(SINGLE_QUBIT_GATES))]
            ops.append((gate, (int(rng.integers(QX4_LINES)),)))
    return ops


def circuit_qasm(ops: list[tuple[str, tuple[int, ...]]]) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{QX4_LINES}];"]
    body = [f"{gate} {','.join(f'q[{q}]' for q in lines)};" for gate, lines in ops]
    return "\n".join(head + body) + "\n"


_T = np.exp(1j * np.pi / 4)
_UNITARIES = {
    "id": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1, -1]),
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, _T]),
    "tdg": np.diag([1, _T.conjugate()]),
    # (control out, target out, control in, target in)
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]).reshape(2, 2, 2, 2),
}


def ideal_rho(ops: list[tuple[str, tuple[int, ...]]]) -> np.ndarray:
    """The circuit's final density matrix from |0...0>, by a statevector of the
    benchmark's own, independent of the package: little-endian, so ``q[i]`` is
    bit ``i`` of the basis index, i.e. tensor axis ``QX4_LINES - 1 - i``."""
    psi = np.zeros((2,) * QX4_LINES, dtype=complex)
    psi[(0,) * QX4_LINES] = 1.0
    for gate, lines in ops:
        axes = [QX4_LINES - 1 - q for q in lines]
        u = _UNITARIES[gate]
        psi = np.tensordot(u, psi, axes=(list(range(len(axes), 2 * len(axes))), axes))
        psi = np.moveaxis(psi, list(range(len(axes))), axes)
    vec = psi.reshape(-1)
    return np.outer(vec, vec.conj())


class QstExact:
    """Exact 5-qubit ``qptkit qst`` of random 24-gate circuits, 7 of them cx.

    The device runs with ``--noise off``: only then is the exact tomogram the
    circuit's final state.  With decay on, each setting's basis rotations and
    measurement add their own decay, the estimate depends on which settings
    the estimator reads, and the seed commit's tomogram differs from
    ``execute_exact(circuit).final_state`` by about 1e-2.
    """

    name = "qst_exact"
    GATES = 24
    CX = 7
    POOL = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(_seed_sequence(seed, self.name))
        src = workdir / "circuits"
        src.mkdir(parents=True)
        self.circuits = []
        self.expected: dict[Path, np.ndarray] = {}
        for i in range(self.POOL + 1):
            ops = random_circuit(rng, self.GATES, self.CX)
            path = src / f"c{i}.qasm"
            path.write_text(circuit_qasm(ops), encoding="utf-8")
            self.circuits.append(path)
            self.expected[path] = ideal_rho(ops)
        self.warm = self.circuits.pop()
        self.out = workdir / "reports"

    def bind(self, qptkit) -> None:
        self.cli = qptkit.cli

    def _qst(self, circuit: Path) -> Path:
        call_cli(self.cli, ["qst", "--circuit", str(circuit), "--backend", "qx4",
                            "--noise", "off", "--out", str(self.out)])
        return self.out / f"{circuit.stem}_qst.json"

    def _check(self, circuit: Path, path: Path) -> None:
        report = json.loads(path.read_text(encoding="utf-8"))
        rho = np.array(report["rho_real"]) + 1j * np.array(report["rho_imag"])
        dev = float(np.abs(rho - self.expected[circuit]).max())
        _require(dev <= EXACT_ATOL, f"{circuit.name}: rho differs from the exact state by {dev:.2e}")

    def warm_up(self) -> None:
        self._check(self.warm, self._qst(self.warm))

    def steps(self):
        for circuit in self.circuits:
            yield Step(circuit.stem, lambda c=circuit: self._qst(c),
                       lambda path, c=circuit: self._check(c, path))


WORKLOADS = {w.name: w for w in (SweepSampled, ChannelQpt, QstExact)}
