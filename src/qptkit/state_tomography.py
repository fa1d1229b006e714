"""Pauli-basis state tomography from counts.

A measurement setting is a string over {Z, X, Y}, one letter per measured
qubit, first letter = most significant qubit (same string convention as
Pauli strings, see ``operators``); a setting's outcomes are an array of
2**n weights, entry i for the bitstring ``format(i, f"0{n}b")``.  The
circuit rotations are the usual ones: X is measured after an H, Y after
Sdg then H, Z directly.  For ``n`` qubits all ``3**n`` settings are taken,
enumerated with the per-qubit order Z < X < Y, lexicographically
(``qst_settings``):

    n=2:  ZZ ZX ZY XZ XX XY YZ YX YY

``collect_weights`` runs the 3**n setting circuits of each of a list of
preparations and returns the complete canonical stack ``(L, 3**n, 2**n)``:
preparation, setting in ``qst_settings`` order, outcome.  A sampled setting
draws with its own seed, derived from its preparation's seed.  That stack is
the only input ``reconstruct_states`` takes.

The expectation value of a Pauli string reads the string's Z-filled
setting (Z at every I position, the first compatible one in the
enumeration): outcome i is signed by (-1)^popcount(mask & i), mask marking
the non-I positions, and the signed sum is divided by the plain sum.  A
state's bits depend neither on the interpreter nor on the other datasets of
its stack.  The reconstruction is the linear inversion

    rho = 2^-n  sum_P  <P> P

over all 4**n strings with the identity-string coefficient pinned to one,
followed by symmetrisation (rho + rho^dagger)/2, so every state has trace 1
by construction.  The result can carry small negative eigenvalues at finite
shots; ``project_psd`` clips them for reporting, the raw matrix is never
silently altered.

A ``TomographyDataset`` is one row of the ``collect_weights`` stack: a
preparation's read-only float ``(3**n, 2**n)`` weights, settings in
``qst_settings`` order, so ``reconstruct_states(ds.weights[None])[0]`` is
its state.  It serialises to line-oriented text (``format=1`` header, one
record per setting in sorted tag order, ``bitstring:weight`` by ``repr`` for
every nonzero weight) so runs can be stored and re-analysed; the reader
rejects text that lacks a setting or names an unknown one.  That text is
the only place outcome bitstrings are written or read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .backend import BackendModel, _execute_preparations
from .qasm import QUBIT_COUNT, Circuit, Gate, Measure

__all__ = [
    "BASIS_ORDER",
    "TomographyDataset",
    "qst_settings",
    "reconstruct_states",
    "project_psd",
    "state_fidelity",
    "write_dataset",
    "read_dataset",
    "collect_weights",
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


@lru_cache(maxsize=64)
def _setting_circuits(qubits: tuple[int, ...], qubit_count: int) -> tuple[Circuit, ...]:
    """Every setting's circuit on ``qubits`` of a ``qubit_count``-qubit
    register in ``qst_settings`` order, the basis rotations and then the
    measures, sharing one rotation tuple per (qubit, letter) and one measure
    per qubit; building them checks them, once per key."""
    settings = qst_settings(len(qubits))
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    k = len(qubits)
    rotations = [{basis: tuple(Gate(g, (q,)) for g in gates) for basis, gates in _ROTATIONS.items()}
                 for q in qubits]
    measures = tuple(Measure(q, k - 1 - p) for p, q in enumerate(qubits))
    return tuple(Circuit(qubit_count, k, (*itertools.chain.from_iterable(
        r[basis] for r, basis in zip(rotations, tag)), *measures)) for tag in settings)


_SHAPES = {2: "a (3**n, 2**n) weight array", 3: "an (L, 3**n, 2**n) weight stack"}


def _shape_qubit_count(shape: tuple[int, ...], ndim: int) -> int:
    """n of an ``ndim``-axis weight array whose last two axes are (3**n, 2**n);
    ``ValueError`` for any other shape."""
    n = shape[-1].bit_length() - 1 if shape else 0
    if len(shape) != ndim or not 1 <= n <= QUBIT_COUNT or shape[-2:] != (3 ** n, 1 << n):
        raise ValueError(f"expected {_SHAPES[ndim]} with settings in qst_settings order, "
                         f"got shape {shape}")
    return n


def _check_weights(stack: np.ndarray, shots: int | None) -> None:
    """Raise for the first row of a ``(settings, 2**n)`` weight stack, its
    settings in ``qst_settings`` order (repeated per preparation), with a
    negative or non-finite weight or a total other than ``shots`` (1 for
    exact probabilities)."""
    n = stack.shape[1].bit_length() - 1
    stack = np.asarray(stack, dtype=float)
    bad = ~(np.isfinite(stack) & (stack >= 0))
    totals = np.cumsum(stack, axis=1)[:, -1]
    expected = 1.0 if shots is None else float(shots)
    off = np.abs(totals - expected) > 1e-6 * max(1.0, expected)
    wrong = np.flatnonzero(bad.any(axis=1) | off)
    if wrong.size:
        row = int(wrong[0])
        tag = qst_settings(n)[row % 3 ** n]
        if bad[row].any():
            index = int(np.argmax(bad[row]))
            what = "negative" if np.isfinite(stack[row, index]) else "non-finite"
            raise ValueError(f"{what} weight for '{index:0{n}b}' under {tag!r}")
        raise ValueError(
            f"setting {tag!r}: weights sum to {totals[row]}, expected {expected}"
        )


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """One preparation's outcome weights, a row of the canonical stack.

    Row s of ``weights`` holds the 2**n counts (sampled runs) or exact
    probabilities of setting ``qst_settings(n)[s]``, indexed by outcome as in
    the module docstring; the dataset keeps a checked, read-only float copy.
    ``shots`` is the per-setting shot count, or None for exact probabilities.
    """

    shots: int | None
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        weights = np.array(self.weights, dtype=float)
        _shape_qubit_count(weights.shape, 2)
        _check_weights(weights, self.shots)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def qubit_count(self) -> int:
        return self.weights.shape[1].bit_length() - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TomographyDataset):
            return NotImplemented
        return self.shots == other.shots and np.array_equal(self.weights, other.weights)


# I, X, Y, Z in monomial form: row r has its one nonzero entry at column
# r ^ _PAULI_XBIT[letter], and that entry is i ** _PAULI_POWER[letter, r].
_PAULI_XBIT = np.array([0, 1, 1, 0], dtype=np.uint8)
_PAULI_POWER = np.array([[0, 0], [0, 0], [3, 1], [0, 2]], dtype=np.uint8)
_POWERS_OF_I = np.array([1, 1j, -1, -1j])


class _PauliStrings(NamedTuple):
    """Read-only tables over the 4**n Pauli strings, by index in
    lexicographic I < X < Y < Z order, and over the 2**n outcomes."""

    masks: np.ndarray  # support mask: bit n-1-p set when letter p is not I
    settings: np.ndarray  # index in qst_settings order of the Z-filled setting
    signs: np.ndarray  # (-1)^popcount(mask & outcome), indexed [mask, outcome]
    # int16 [t, x, r] index of the row-r term of the t-th string with xmask x (in
    # lexicographic order) into the flattened (4**n, 4) table of values times powers of i
    terms: np.ndarray


@lru_cache(maxsize=None)
def _pauli_strings(qubit_count: int) -> _PauliStrings:
    """Every table of ``_PauliStrings``, from one ``(4**n, n)`` letter table."""
    n, dim = qubit_count, 1 << qubit_count
    place = np.arange(n - 1, -1, -1)
    letters = np.indices((4,) * n, dtype=np.uint8).reshape(n, -1).T  # I X Y Z as 0 1 2 3
    bits = (np.arange(dim)[:, None] >> place & 1).astype(np.uint8)  # [outcome or row, p]
    masks = ((letters != 0) << place).sum(axis=1)
    digits = np.array([BASIS_ORDER.index(b) for b in "ZXYZ"])  # the settings I X Y Z read in
    settings = (digits[letters] * 3 ** place).sum(axis=1)
    signs = 1.0 - 2.0 * ((bits[:, None] & bits).sum(axis=2) & 1)
    xmasks = (_PAULI_XBIT[letters] << place).sum(axis=1)
    powers = _PAULI_POWER[letters[:, None], bits].sum(axis=2, dtype=np.uint8) % 4
    order = np.argsort(xmasks, kind="stable").astype(np.int16)
    terms = (4 * order[:, None] + powers[order]).reshape(dim, dim, dim).transpose(1, 0, 2)
    tables = _PauliStrings(masks, settings, signs, np.ascontiguousarray(terms))
    for table in tables:
        table.setflags(write=False)
    return tables


def _estimates(weights: np.ndarray) -> np.ndarray:
    """<P> of every Pauli string but the identity, in lexicographic order,
    for each dataset of a canonical ``(L, 3**n, 2**n)`` stack, each from its
    Z-filled setting.

    Both sums run in outcome-index order, one vector add per outcome over
    all datasets and strings, so each value is bitwise the sequential sum
    of that string of that dataset alone.
    """
    n = weights.shape[-1].bit_length() - 1
    strings = _pauli_strings(n)
    rows, masks = strings.settings[1:], strings.masks[1:]
    weights = np.asarray(weights, dtype=float)
    signed = np.zeros((len(weights), len(rows)))
    total = np.zeros_like(signed)
    for outcome in range(1 << n):
        column = weights[:, rows, outcome]
        total += column
        signed += strings.signs[masks, outcome] * column
    return signed / total


def _densities(values: np.ndarray, qubit_count: int) -> np.ndarray:
    """rho = 2^-n sum <P> P, symmetrised, for each row of ``values``, the
    <P> of every string but the identity in lexicographic order.

    Each xmask's row of entries is the sum of its strings' terms from zeros
    in lexicographic order, the identity first: one gather of every
    xmask's t-th terms and one vector add per term position t."""
    dim = 1 << qubit_count
    values = np.concatenate([np.ones((len(values), 1)), values], axis=1)
    products = (_POWERS_OF_I * values[:, :, None]).reshape(len(values), -1)
    by_xmask = np.zeros((len(values), dim, dim), dtype=complex)
    for index in _pauli_strings(qubit_count).terms:
        by_xmask += np.take(products, index, axis=1)
    rows = np.arange(dim)[:, None]
    rho = by_xmask[:, rows ^ rows.T, rows]
    rho /= dim
    return (rho + rho.conj().swapaxes(1, 2)) / 2.0


def reconstruct_states(weights: np.ndarray) -> np.ndarray:
    """The reconstructed state of every dataset in an ``(L, 3**n, 2**n)``
    weight stack, settings in ``qst_settings`` order, as an
    ``(L, 2**n, 2**n)`` array.  Any other shape raises ``ValueError``.

    All L x (4**n - 1) estimates come from one ``_estimates`` pass and all L
    states from 2**n gathers and vector adds; each state is bitwise the
    reconstruction of its own dataset alone.
    """
    n = _shape_qubit_count(np.shape(weights), 3)
    return _densities(_estimates(weights), n)


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


@lru_cache(maxsize=None)
def _bitstrings(qubit_count: int) -> tuple[str, ...]:
    return tuple(f"{i:0{qubit_count}b}" for i in range(1 << qubit_count))


@lru_cache(maxsize=None)
def _sorted_settings(qubit_count: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The setting tags in sorted order and their rows in ``qst_settings``
    order; the rows are read-only."""
    settings = qst_settings(qubit_count)
    rows = np.array(sorted(range(len(settings)), key=settings.__getitem__))
    rows.setflags(write=False)
    return tuple(settings[r] for r in rows.tolist()), rows


def write_dataset(dataset: TomographyDataset) -> str:
    """The dataset's text; each distinct nonzero weight is formatted once."""
    n = dataset.qubit_count
    keys = _bitstrings(n)
    lines = ["format=1", f"qubits={n}",
             f"shots={'exact' if dataset.shots is None else dataset.shots}"]
    tags, rows = _sorted_settings(n)
    weights = dataset.weights[rows]
    nonzero = weights != 0.0
    values, which = np.unique(weights[nonzero], return_inverse=True)
    text = [f":{v!r}" for v in values.tolist()]
    pairs = [keys[i] + text[j] for i, j in
             zip(np.nonzero(nonzero)[1].tolist(), which.tolist())]
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    for tag, start, end in zip(tags, [0, *ends], ends):
        lines.append(" ".join([tag, *pairs[start:end]]))
    return "\n".join(lines) + "\n"


def read_dataset(text: str) -> TomographyDataset:
    header: dict[str, tuple[int, str]] = {}
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
            header[key] = (lineno, value)
            continue
        tag = parts[0]
        if tag in items:
            raise ValueError(f"line {lineno}: duplicate setting {tag!r}")
        if len(parts) == 1:
            raise ValueError(f"line {lineno}: setting {tag!r} has no outcomes")
        items[tag] = (lineno, parts[1:])
    for key, (lineno, _) in header.items():
        if key not in ("format", "qubits", "shots"):
            raise ValueError(f"line {lineno}: unknown dataset header {key!r}")
    if header.get("format", (0, "1"))[1] != "1":
        raise ValueError(f"unsupported dataset format {header['format'][1]!r}")
    for key in ("qubits", "shots"):
        if key not in header:
            raise ValueError(f"missing dataset header {key!r}")

    def integer(key: str) -> int:
        lineno, value = header[key]
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"line {lineno}: dataset header {key!r} is not an integer: "
                             f"{value!r}") from None

    n = integer("qubits")
    if not 1 <= n <= QUBIT_COUNT:
        raise ValueError(f"line {header['qubits'][0]}: qubit count must be 1..{QUBIT_COUNT}, "
                         f"got {n}")
    shots = None if header["shots"][1] == "exact" else integer("shots")
    if shots is not None and shots < 1:
        raise ValueError(f"line {header['shots'][0]}: shots must be positive, got {shots}")
    settings = qst_settings(n)
    row_of = {tag: row for row, tag in enumerate(settings)}
    weights = np.zeros((len(settings), 1 << n))
    for tag, (lineno, pairs) in items.items():
        if tag not in row_of:
            raise ValueError(f"line {lineno}: unknown setting {tag!r} for {n} qubit(s)")
        row = weights[row_of[tag]]
        seen: set[str] = set()
        for item in pairs:
            outcome, sep, weight = item.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: expected outcome:weight, got {item!r}")
            if outcome in seen:
                raise ValueError(f"line {lineno}: duplicate outcome {outcome!r} under {tag!r}")
            seen.add(outcome)
            if len(outcome) != n or any(ch not in "01" for ch in outcome):
                raise ValueError(f"line {lineno}: bad outcome key {outcome!r} under {tag!r}")
            try:
                row[int(outcome, 2)] = float(weight)
            except ValueError:
                raise ValueError(f"line {lineno}: bad weight {weight!r}") from None
    missing = [tag for tag in settings if tag not in items]
    if missing:
        raise ValueError(f"missing setting {missing[0]!r} "
                         f"({len(missing)} of {len(settings)} missing)")
    return TomographyDataset(shots, weights)


# --- running tomography against a backend --------------------------------------


def child_seeds(seed: int | None, count: int) -> list[int]:
    """Per-circuit seeds derived from one master seed (fresh OS entropy when None)."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def collect_weights(preps: Sequence[Circuit], backend: BackendModel,
                    qubits: tuple[int, ...] | None = None,
                    shots: int | None = None,
                    seeds: Sequence[int | None] | None = None) -> np.ndarray:
    """Run every setting circuit of every preparation.

    Returns the read-only ``(len(preps), 3**n, 2**n)`` stack of outcome
    weights, settings in canonical order: exact probabilities (float) when
    ``shots`` is None, else counts (int).  ``qubits`` lists the measured
    qubits most significant first and defaults to the whole register.  A
    sampled preparation takes its entry of ``seeds`` (fresh entropy when it
    or ``seeds`` is None) and its settings the seeds
    ``child_seeds(seed, 3**n)``.  The setting circuits are built and checked
    once per (qubits, register size).  Each preparation is evolved once,
    alone, and the settings run once over the stack of the preparations'
    states (see ``backend``); every row is bitwise what ``execute_many``
    gives for ``prep.then(setting)``.  The weights are checked as a
    dataset's are, all as one stack.  An empty ``preps`` raises
    ``ValueError``; a setting that does not fit the register, or a
    preparation that measures, ``CircuitError``.
    """
    if not preps:
        raise ValueError("no preparations to run")
    if qubits is None:
        qubits = tuple(range(preps[0].qubit_count - 1, -1, -1))
    qubits = tuple(qubits)
    settings = 3 ** len(qubits)
    suffixes = [_setting_circuits(qubits, prep.qubit_count) for prep in preps]
    circuit_seeds = None
    if shots is not None:
        seeds = [None] * len(preps) if seeds is None else seeds
        if len(seeds) != len(preps):
            raise ValueError(f"{len(seeds)} seed(s) for {len(preps)} preparation(s)")
        circuit_seeds = [s for seed in seeds for s in child_seeds(seed, settings)]
    stack = np.empty((len(preps) * settings, 1 << len(qubits)),
                     dtype=float if shots is None else np.intp)
    results = _execute_preparations(preps, suffixes, backend, shots, circuit_seeds)
    for row, result in enumerate(results):
        stack[row] = result.probabilities if shots is None else result.counts
    _check_weights(stack, shots)
    stack.setflags(write=False)
    return stack.reshape(len(preps), settings, 1 << len(qubits))


def collect_dataset(prep: Circuit, backend: BackendModel,
                    qubits: tuple[int, ...] | None = None,
                    shots: int | None = None,
                    seed: int | None = None) -> TomographyDataset:
    """Run every setting circuit for ``prep``: the one-preparation case of
    ``collect_weights``, whose row the dataset holds."""
    return TomographyDataset(shots, collect_weights([prep], backend, qubits, shots, [seed])[0])


@dataclass(frozen=True)
class QstRun:
    state: np.ndarray
    dataset: TomographyDataset

    @property
    def executions(self) -> int:
        return len(self.dataset.weights)


def run_qst(circuit: Circuit, backend: BackendModel,
            shots: int | None = None, seed: int | None = None) -> QstRun:
    """Tomograph the state a measurement-free circuit prepares.

    ``shots=None`` uses exact outcome probabilities; otherwise each of the
    3**n settings is sampled with its own seed derived from ``seed``.
    """
    dataset = collect_dataset(circuit, backend, shots=shots, seed=seed)
    return QstRun(state=reconstruct_states(dataset.weights[None])[0], dataset=dataset)
