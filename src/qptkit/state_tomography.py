"""Pauli-basis state tomography from counts.

A measurement setting is a string over {Z, X, Y}, one letter per measured
qubit, first letter = most significant qubit (same string convention as
Pauli strings, see ``operators``); a setting's outcomes are an array of
2**n weights, entry i for the bitstring ``format(i, f"0{n}b")``.  The
circuit rotations are the usual ones: X is measured after an H, Y after
Sdg then H, Z directly.  For ``n`` qubits all ``3**n`` settings are taken, enumerated with
the per-qubit order Z < X < Y, lexicographically:

    n=2:  ZZ ZX ZY XZ XX XY YZ YX YY

An expectation value for a Pauli string is estimated from the first
compatible setting in that enumeration (``I`` positions are marginalised by
summing outcomes: outcome i is signed by (-1)^popcount(mask & i), mask
marking the non-I positions); the reconstruction is the linear inversion

    rho = 2^-n  sum_P  <P> P

over all 4**n strings with the identity-string coefficient pinned to one,
followed by symmetrisation (rho + rho^dagger)/2.  The result can carry small
negative eigenvalues at finite shots; ``project_psd`` clips them for
reporting, the raw matrix is never silently altered.

``collect_dataset`` builds the 3**n setting circuits of a preparation and
runs them through one ``backend.execute_many`` stream, so the preparation
is evolved once and the settings branch off it (sampled runs keep one seed
per setting).  An expectation value reads its setting directly: for a
Pauli string, Z at every I position is the first compatible tag, and the
enumeration is scanned only when that setting was not recorded.

Datasets serialise to line-oriented text (``format=1`` header, one record
per setting, ``bitstring:weight`` for every nonzero weight) so runs can be
stored and re-analysed; that text is the only place outcome bitstrings are
written or read.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backend import BackendModel, execute_many
from .qasm import QUBIT_COUNT, Circuit, Gate, Measure

__all__ = [
    "BASIS_ORDER",
    "TomographyDataset",
    "qst_settings",
    "append_setting",
    "estimate_pauli",
    "all_expectations",
    "reconstruct_density",
    "reconstruct_from_dataset",
    "project_psd",
    "state_fidelity",
    "write_dataset",
    "read_dataset",
    "collect_dataset",
    "QstRun",
    "run_qst",
    "child_seeds",
]

BASIS_ORDER = "ZXY"


# the gates that rotate each setting letter's basis onto Z, in circuit order
_ROTATIONS = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}


def qst_settings(qubit_count: int) -> list[str]:
    """All 3**n setting tags in canonical order."""
    if not 1 <= qubit_count <= QUBIT_COUNT:
        raise ValueError(f"qubit count must be 1..{QUBIT_COUNT}, got {qubit_count}")
    return ["".join(p) for p in itertools.product(BASIS_ORDER, repeat=qubit_count)]


def append_setting(circuit: Circuit, setting: str,
                   qubits: list[int] | tuple[int, ...] | None = None) -> Circuit:
    """Append basis rotations and measurements for one setting.

    ``qubits`` lists the measured qubits most significant first and defaults
    to the whole register; ``setting[p]`` applies to ``qubits[p]``, which is
    measured into classical bit ``len(qubits)-1-p``.  The input circuit must
    not measure anything itself; its classical register is replaced.
    """
    if qubits is None:
        qubits = tuple(range(circuit.qubit_count - 1, -1, -1))
    qubits = tuple(qubits)
    if len(setting) != len(qubits):
        raise ValueError(
            f"setting {setting!r} has {len(setting)} letters for {len(qubits)} qubit(s)"
        )
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    if circuit.measurements:
        raise ValueError("circuit already contains measurements")
    extra: list[Gate | Measure] = []
    for basis, q in zip(setting, qubits):
        if basis not in _ROTATIONS:
            raise ValueError(f"invalid basis letter {basis!r} in {setting!r}")
        extra.extend(Gate(g, (q,)) for g in _ROTATIONS[basis])
    k = len(qubits)
    extra.extend(Measure(q, k - 1 - p) for p, q in enumerate(qubits))
    return circuit.extended(*extra, classical_count=k)


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """Outcome weights per measurement setting.

    ``records`` maps each setting tag to an array of 2**n counts (sampled
    runs) or exact probabilities, indexed by outcome as in the module
    docstring.  ``shots`` is the per-setting shot count, or None when the
    records hold exact probabilities from a density-matrix run.  Datasets
    are equal when their qubit counts, shots, tags and weight values are,
    whatever the arrays' dtypes.
    """

    qubit_count: int
    shots: int | None
    records: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        n = self.qubit_count
        if not 1 <= n <= QUBIT_COUNT:
            raise ValueError(f"qubit count must be 1..{QUBIT_COUNT}, got {n}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        expected = 1.0 if self.shots is None else float(self.shots)
        for tag, weights in self.records.items():
            if len(tag) != n or any(ch not in BASIS_ORDER for ch in tag):
                raise ValueError(f"bad setting tag {tag!r} for {n} qubit(s)")
            if np.shape(weights) != (1 << n,):
                raise ValueError(f"setting {tag!r}: weights have shape {np.shape(weights)}, "
                                 f"expected {(1 << n,)}")
            values = weights.tolist()
            for index, weight in enumerate(values):
                if not math.isfinite(weight) or weight < 0:
                    what = "negative" if math.isfinite(weight) else "non-finite"
                    raise ValueError(f"{what} weight for '{index:0{n}b}' under {tag!r}")
            total = sum(values)
            if abs(total - expected) > 1e-6 * max(1.0, expected):
                raise ValueError(
                    f"setting {tag!r}: weights sum to {total}, expected {expected}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TomographyDataset):
            return NotImplemented
        return ((self.qubit_count, self.shots, self.records.keys())
                == (other.qubit_count, other.shots, other.records.keys())
                and all(np.array_equal(w, other.records[t]) for t, w in self.records.items()))


def _first_compatible(dataset: TomographyDataset, pauli: str) -> str:
    # Z at every I position is the first compatible tag in Z < X < Y order
    tag = pauli.replace("I", "Z")
    if tag in dataset.records:
        return tag
    for tag in qst_settings(dataset.qubit_count):
        if tag in dataset.records and all(p in ("I", s) for p, s in zip(pauli, tag)):
            return tag
    raise ValueError(f"no recorded setting is compatible with {pauli!r}")


@lru_cache(maxsize=None)
def _parity_signs(qubit_count: int) -> tuple[tuple[float, ...], ...]:
    """(-1)^popcount(mask & outcome), indexed [mask][outcome]."""
    size = 1 << qubit_count
    return tuple(tuple(-1.0 if bin(mask & i).count("1") & 1 else 1.0 for i in range(size))
                 for mask in range(size))


_SUPPORT_BITS = str.maketrans("IXYZ", "0111")


def estimate_pauli(dataset: TomographyDataset, pauli: str) -> float:
    """Estimate <P> for a Pauli string (letters I X Y Z, high qubit first).

    Both sums run sequentially in outcome-index order, as Python sums.
    """
    n = dataset.qubit_count
    if len(pauli) != n or any(ch not in "IXYZ" for ch in pauli):
        raise ValueError(f"bad Pauli string {pauli!r} for {n} qubit(s)")
    if pauli == "I" * n:
        return 1.0
    weights = dataset.records[_first_compatible(dataset, pauli)].tolist()
    signs = _parity_signs(n)[int(pauli.translate(_SUPPORT_BITS), 2)]
    return sum(map(operator.mul, signs, weights)) / sum(weights)


def all_expectations(dataset: TomographyDataset) -> dict[str, float]:
    """<P> for every one of the 4**n Pauli strings."""
    paulis = map("".join, itertools.product("IXYZ", repeat=dataset.qubit_count))
    return {pauli: estimate_pauli(dataset, pauli) for pauli in paulis}


# I, X, Y, Z in monomial form: row r has its one nonzero entry at column
# r ^ _PAULI_XBIT[letter], and that entry is _PAULI_PHASE[letter, r].
_PAULI_XBIT = np.array([0, 1, 1, 0])
_PAULI_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)


def reconstruct_density(expectations: dict[str, float], qubit_count: int) -> np.ndarray:
    """Linear inversion rho = 2^-n sum <P> P, symmetrised.

    All 4**n strings except the identity must be present; the identity
    coefficient is pinned to 1, which fixes the trace exactly.  Each string
    is added in monomial form: row r holds its one nonzero entry at column
    r ^ xmask, so only those 2**n entries are touched, in lexicographic
    string order as in the dense sum.
    """
    n = qubit_count
    dim = 1 << n
    rows = np.arange(dim)
    # the same form for every string, in lexicographic order
    phases, xmasks = np.ones((1, 1), dtype=complex), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        phases = np.kron(phases, _PAULI_PHASE)
        xmasks = (2 * xmasks[:, None] + _PAULI_XBIT).ravel()
    rho = np.eye(dim, dtype=complex)
    for idx, letters in enumerate(itertools.product("IXYZ", repeat=n)):
        if idx == 0:  # the identity string, pinned to 1 by the eye above
            continue
        pauli = "".join(letters)
        if pauli not in expectations:
            raise ValueError(f"missing expectation for {pauli!r}")
        rho[rows, rows ^ xmasks[idx]] += expectations[pauli] * phases[idx]
    rho /= dim
    return (rho + rho.conj().T) / 2.0


def reconstruct_from_dataset(dataset: TomographyDataset) -> np.ndarray:
    return reconstruct_density(all_expectations(dataset), dataset.qubit_count)


def project_psd(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalise to the original trace."""
    rho = np.asarray(rho, dtype=complex)
    target = np.trace(rho).real
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    s = vals.sum()
    if s <= 0:
        raise ValueError("matrix has no positive part to project onto")
    vals *= target / s
    return (vecs * vals) @ vecs.conj().T


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity; tiny negative eigenvalues are clipped first."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    ra = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T  # sqrt(a)
    inner = ra @ ((b + b.conj().T) / 2.0) @ ra
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    root = np.sqrt(np.clip(vals, 0.0, None)).sum()
    return float(root * root)


# --- dataset (de)serialisation ------------------------------------------------


def write_dataset(dataset: TomographyDataset) -> str:
    n = dataset.qubit_count
    lines = ["format=1", f"qubits={n}",
             f"shots={'exact' if dataset.shots is None else dataset.shots}"]
    for tag in sorted(dataset.records):
        parts = [tag]
        for outcome, weight in enumerate(dataset.records[tag].tolist()):
            if weight:
                parts.append(f"{outcome:0{n}b}:{float(weight)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def read_dataset(text: str) -> TomographyDataset:
    header: dict[str, str] = {}
    items: dict[str, tuple[int, list[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and "=" in parts[0]:
            key, _, value = parts[0].partition("=")
            if key in header:
                raise ValueError(f"line {lineno}: duplicate header key {key!r}")
            header[key] = value
            continue
        tag = parts[0]
        if tag in items:
            raise ValueError(f"line {lineno}: duplicate setting {tag!r}")
        if len(parts) == 1:
            raise ValueError(f"line {lineno}: setting {tag!r} has no outcomes")
        items[tag] = (lineno, parts[1:])
    if header.get("format", "1") != "1":
        raise ValueError(f"unsupported dataset format {header.get('format')!r}")
    for key in ("qubits", "shots"):
        if key not in header:
            raise ValueError(f"missing dataset header {key!r}")
    n = int(header["qubits"])
    shots = None if header["shots"] == "exact" else int(header["shots"])
    TomographyDataset(n, shots, {})  # checks the header before the arrays are sized
    records: dict[str, np.ndarray] = {}
    for tag, (lineno, pairs) in items.items():
        weights = np.zeros(1 << n)
        seen: set[str] = set()
        for item in pairs:
            outcome, sep, weight = item.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: expected outcome:weight, got {item!r}")
            if outcome in seen:
                raise ValueError(f"line {lineno}: duplicate outcome {outcome!r} under {tag!r}")
            seen.add(outcome)
            if len(outcome) != n or any(ch not in "01" for ch in outcome):
                raise ValueError(f"bad outcome key {outcome!r} under {tag!r}")
            try:
                weights[int(outcome, 2)] = float(weight)
            except ValueError:
                raise ValueError(f"line {lineno}: bad weight {weight!r}") from None
        weights.setflags(write=False)
        records[tag] = weights
    return TomographyDataset(qubit_count=n, shots=shots, records=records)


# --- running tomography against a backend --------------------------------------


def child_seeds(seed: int | None, count: int) -> list[int]:
    """Per-circuit seeds derived from one master seed (fresh OS entropy when None)."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def collect_dataset(prep: Circuit, backend: BackendModel,
                    qubits: tuple[int, ...] | None = None,
                    shots: int | None = None,
                    seed: int | None = None) -> TomographyDataset:
    """Run every setting circuit for ``prep`` and bundle the outcomes.

    The 3**n circuits go through one ``execute_many`` stream in canonical
    order, so ``prep`` is evolved once and each setting evolves only the
    rotations and measures it does not share with the setting before it.
    """
    if qubits is None:
        qubits = tuple(range(prep.qubit_count - 1, -1, -1))
    settings = qst_settings(len(qubits))
    circuits = [append_setting(prep, tag, qubits) for tag in settings]
    seeds = None if shots is None else child_seeds(seed, len(settings))
    records = {
        tag: result.probabilities if shots is None else result.counts
        for tag, result in zip(settings, execute_many(circuits, backend, shots, seeds))
    }
    return TomographyDataset(qubit_count=len(qubits), shots=shots, records=records)


@dataclass(frozen=True)
class QstRun:
    state: np.ndarray
    dataset: TomographyDataset
    executions: int


def run_qst(circuit: Circuit, backend: BackendModel,
            shots: int | None = None, seed: int | None = None) -> QstRun:
    """Tomograph the state a measurement-free circuit prepares.

    ``shots=None`` uses exact outcome probabilities; otherwise each of the
    3**n settings is sampled with its own seed derived from ``seed``.
    """
    dataset = collect_dataset(circuit, backend, shots=shots, seed=seed)
    state = reconstruct_from_dataset(dataset)
    return QstRun(state=state, dataset=dataset, executions=len(dataset.records))
