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

``collect_dataset`` takes the 3**n settings of one preparation.  Every map
a setting applies acts on one qubit, idle decay on or off, so the backend
reads the settings out of the once-evolved preparation state one qubit at
a time, through the maps of that qubit's letter, and evolves no setting
circuit.  A sampled setting draws on its own stream: its 4 words of its
preparation's seed expansion.  The canonical stack ``(L, 3**n, 2**n)``,
preparation, setting in ``qst_settings`` order, outcome, is the only input
``reconstruct_states`` takes.

The expectation value of a Pauli string reads the string's Z-filled
setting (Z at every I position, the first compatible one in the
enumeration): outcome i is signed by (-1)^popcount(mask & i), mask marking
the non-I positions, and the signed sum is divided by the plain sum.  The
reconstruction is the linear inversion

    rho = 2^-n  sum_P  <P> P

over all 4**n strings.  It factors over the qubits: each weight, divided
by its setting's total, adds the Kronecker product of one ``_QUBIT_TABLE``
entry per qubit, for that qubit's letter and outcome bit.  A state's bits
depend neither on the interpreter nor on the other datasets of its stack;
it is exactly Hermitian, with trace 1 up to rounding.  The result can
carry small negative eigenvalues at finite shots; ``project_psd`` clips
them for reporting, the raw matrix is never silently altered.

A ``TomographyDataset`` is one row of a canonical stack: a preparation's
read-only float ``(3**n, 2**n)`` weights, settings in ``qst_settings``
order, so ``reconstruct_states(ds.weights[None])[0]`` is its state.  It
serialises to line-oriented text (``format=1`` header, one record per
setting in sorted tag order, ``bitstring:weight`` by ``repr`` for every
nonzero weight) so runs can be stored and re-analysed; the reader rejects
text that lacks a setting or names an unknown one.  That text is the only
place outcome bitstrings are written or read.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .backend import (BackendModel, _check_shots, _check_topology, _evolve, _exact_state, _qubits,
                      _read_settings, _seed_words)
from .qasm import QUBIT_COUNT, Circuit, CircuitError, Gate, Measure, _too_long

__all__ = [
    "BASIS_ORDER",
    "TomographyDataset",
    "qst_settings",
    "reconstruct_states",
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


@lru_cache(maxsize=64)
def _setting_circuits(qubits: tuple[int, ...], qubit_count: int) -> tuple[Circuit, ...]:
    """The setting circuits on ``qubits`` of a ``qubit_count``-qubit register,
    in ``qst_settings`` order: each rotates every measured qubit to its
    letter's basis, first qubit first, then measures qubit ``qubits[p]`` into
    classical bit n - 1 - p.  They share one rotation tuple per (qubit,
    letter) and one measure per qubit; building them checks them, the
    measures first, once per key."""
    k = len(qubits)
    qst_settings(k)  # raises for a qubit count outside 1..QUBIT_COUNT
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    measures = Circuit(qubit_count, k, tuple(Measure(q, k - 1 - p) for p, q in enumerate(qubits)))
    rotations = [[Circuit(qubit_count, 0, tuple(Gate(g, (q,)) for g in _ROTATIONS[basis]))
                  for basis in BASIS_ORDER] for q in qubits]
    return tuple(reduce(Circuit.then, (*chain, measures))
                 for chain in itertools.product(*rotations))


_SHAPES = {2: "a (3**n, 2**n) weight array", 3: "an (L, 3**n, 2**n) weight stack"}


def _shape_qubit_count(shape: tuple[int, ...], ndim: int) -> int:
    """n of an ``ndim``-axis weight array whose last two axes are (3**n, 2**n);
    ``ValueError`` for any other shape."""
    n = shape[-1].bit_length() - 1 if shape else 0
    if len(shape) != ndim or not 1 <= n <= QUBIT_COUNT or shape[-2:] != (3 ** n, 1 << n):
        raise ValueError(f"expected {_SHAPES[ndim]} with settings in qst_settings order, "
                         f"got shape {shape}")
    return n


def _check_weights(stack: np.ndarray, expected: float | None) -> np.ndarray:
    """Each setting's total, its weights summed in outcome order, of an
    ``(L, 3**n, 2**n)`` stack or a ``(3**n, 2**n)`` dataset, as an
    ``(L, 3**n, 1)`` float array.  Raise ``ValueError`` for the first setting
    with a negative or non-finite weight or a total other than ``expected``
    (any positive total when None), naming the dataset of a stack."""
    n = stack.shape[-1].bit_length() - 1
    named = stack.ndim == 3
    stack = np.asarray(stack, dtype=float).reshape(-1, 3 ** n, 1 << n)
    totals = np.cumsum(stack, axis=2)[:, :, -1:]
    bad = ~(np.isfinite(stack) & (stack >= 0))
    off = ~(totals > 0) if expected is None else abs(totals - expected) > 1e-6 * max(1.0, expected)
    if bad.any() or off.any():
        dataset, row = np.argwhere(bad.any(axis=2) | off[:, :, 0])[0].tolist()
        where, tag = f"dataset {dataset}: " if named else "", qst_settings(n)[row]
        if bad[dataset, row].any():
            index = int(np.argmax(bad[dataset, row]))
            what = "negative" if np.isfinite(stack[dataset, row, index]) else "non-finite"
            raise ValueError(f"{where}{what} weight for '{index:0{n}b}' under {tag!r}")
        raise ValueError(f"{where}setting {tag!r}: weights sum to {totals[dataset, row, 0]}, "
                         f"expected {'a positive total' if expected is None else expected}")
    return totals


@dataclass(frozen=True, eq=False)
class TomographyDataset:
    """One preparation's outcome weights, a row of the canonical stack.

    Row s of ``weights`` holds the 2**n counts (sampled runs) or exact
    probabilities of setting ``qst_settings(n)[s]``, indexed by outcome as in
    the module docstring; the dataset keeps a checked, read-only float copy.
    ``shots`` is the per-setting shot count, an integer from 1 to
    ``MAX_SHOTS`` (a numpy one too, but no bool), or None for exact
    probabilities.
    """

    shots: int | None
    weights: np.ndarray

    def __post_init__(self) -> None:
        _check_shots(self.shots)
        weights = np.array(self.weights, dtype=float)
        _shape_qubit_count(weights.shape, 2)
        _check_weights(weights, 1.0 if self.shots is None else float(self.shots))
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _of_checked(cls, shots: int | None, weights: np.ndarray) -> "TomographyDataset":
        """The dataset of a read-only row ``_collect`` has checked, without
        a second check: a float view of it, or a read-only copy of counts."""
        dataset = object.__new__(cls)
        weights = weights.astype(float, copy=False)
        weights.setflags(write=False)
        vars(dataset).update(shots=shots, weights=weights)
        return dataset

    @property
    def qubit_count(self) -> int:
        return self.weights.shape[1].bit_length() - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TomographyDataset):
            return NotImplemented
        return self.shots == other.shots and np.array_equal(self.weights, other.weights)


# D[b, o] = (c_b I + (-1)^o sigma_b) / 2, letter b in BASIS_ORDER, outcome bit o, c = (1, 0, 0):
# only Z carries an identity part, so each Pauli string is read off its Z-filled setting alone.
_QUBIT_TABLE = (np.array([1.0, 0.0, 0.0])[:, None, None, None] * np.eye(2)
                + np.array([1.0, -1.0])[:, None, None]
                * np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])[:, None]
                ) / 2
_QUBIT_TABLE.setflags(write=False)


def reconstruct_states(weights: np.ndarray) -> np.ndarray:
    """The reconstructed state of every dataset in an ``(L, 3**n, 2**n)``
    weight stack, settings in ``qst_settings`` order, as an
    ``(L, 2**n, 2**n)`` array: the stack is contracted one qubit at a time,
    most significant first, each qubit's four 2x2 blocks built elementwise
    from its (letter, outcome) slices, so each state is bitwise the
    reconstruction of its own dataset alone.  Any other shape raises
    ``ValueError``, as does a negative or non-finite weight or a setting
    whose total is not positive, naming the dataset, setting and outcome."""
    _shape_qubit_count(np.shape(weights), 3)
    weights = np.asarray(weights, dtype=float)
    return _contract(weights / _check_weights(weights, None))


def _contract(normalised: np.ndarray) -> np.ndarray:
    """``reconstruct_states`` of a checked stack whose weights are already
    divided by their setting totals."""
    # (L, rows, cols, settings, outcomes): the settings and outcomes left
    # to contract stay last, so the early, large products run on long rows
    rho = normalised[:, None, None]
    while rho.shape[3] > 1:
        count, rows, cols, settings, outcomes = rho.shape
        split = rho.reshape(count, rows, cols, 3, settings // 3, 2, outcomes // 2)
        z0, z1, x0, x1, y0, y1 = (split[:, :, :, b, :, o] for b in range(3) for o in range(2))
        # the 2x2 blocks of the sum over _QUBIT_TABLE: Z on the diagonal, X
        # and Y off it, added in the table's order; each product by +-1/2 or
        # +-i/2 is the table entry's own product
        rho = np.empty((count, rows, 2, cols, 2, settings // 3, outcomes // 2), dtype=complex)
        rho[:, :, 0, :, 0], rho[:, :, 1, :, 1] = z0, z1
        x, y_0, y_1 = 0.5 * x0 - 0.5 * x1, y0 * -0.5j, y1 * 0.5j
        np.add(x + y_0, y_1, out=rho[:, :, 0, :, 1])
        np.subtract(x - y_0, y_1, out=rho[:, :, 1, :, 0])
        rho = rho.reshape(count, 2 * rows, 2 * cols, settings // 3, outcomes // 2)
    # a zero the blocks leave as -0.0 is +0.0 in the sum from zeros
    return rho.reshape(rho.shape[:3]) + 0.0


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
def _text_parts(qubit_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the setting tags in sorted order, the head of each (a
    newline and the tag) and each outcome's key (a space, the bitstring and a
    colon), all read-only, the texts as object arrays."""
    settings = qst_settings(qubit_count)
    rows = np.array(sorted(range(len(settings)), key=settings.__getitem__))
    heads = np.array(["\n" + settings[r] for r in rows.tolist()], dtype=object)
    keys = np.array([f" {i:0{qubit_count}b}:" for i in range(1 << qubit_count)], dtype=object)
    for part in (rows, heads, keys):
        part.setflags(write=False)
    return rows, heads, keys


def write_dataset(dataset: TomographyDataset) -> str:
    """The dataset's text, its body one join of each setting's head and the
    key and value of each of its items; each distinct nonzero weight is
    formatted once."""
    n = dataset.qubit_count
    rows, heads, keys = _text_parts(n)
    weights = dataset.weights[rows]
    flat = np.flatnonzero(weights)
    row = flat >> n
    values, which = np.unique(weights.ravel()[flat], return_inverse=True)
    body = np.empty(len(heads) + 2 * len(flat), dtype=object)
    # item k follows the heads of rows 0..row[k], head r the items of rows 0..r-1
    at = 2 * np.arange(len(flat)) + row + 1
    body[at] = keys[flat & ((1 << n) - 1)]
    body[at + 1] = np.array(list(map(float.__repr__, values.tolist())), dtype=object)[which]
    body[2 * np.searchsorted(row, np.arange(len(heads))) + np.arange(len(heads))] = heads
    shots = "exact" if dataset.shots is None else dataset.shots
    return f"format=1\nqubits={n}\nshots={shots}" + "".join(body.tolist()) + "\n"


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
        if why := _too_long(value):
            raise ValueError(f"line {lineno}: dataset header {key!r}: {why}")
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
    try:
        _check_shots(shots)
    except ValueError as exc:
        raise ValueError(f"line {header['shots'][0]}: {exc}") from None
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
    """Per-preparation seeds derived from one master seed (fresh OS entropy
    when None): ``np.random.SeedSequence(seed).generate_state(count,
    np.uint64)`` as ints, computed by ``backend._seed_words``."""
    return _seed_words([seed], count)[0].tolist()


def _settings_and_words(qubits: tuple[int, ...], qubit_count: int, shots: int | None,
                        seeds: Sequence[int | None] | None
                        ) -> tuple[tuple[Circuit, ...], np.ndarray | None]:
    """The setting circuits of ``qubits`` on a ``qubit_count``-qubit register
    and, when sampling, each setting's 4 words of its preparation's entry of
    ``seeds`` expanded as ``collect_dataset`` describes, preparation by
    preparation; bad qubits, seeds or shots raise before anything evolves."""
    settings = _setting_circuits(qubits, qubit_count)
    if shots is None:
        return settings, None
    words = _seed_words(seeds, 4 * len(settings)).reshape(-1, 4)
    _check_shots(shots)
    return settings, words


def _collect(states: np.ndarray, active: tuple[int, ...], settings: tuple[Circuit, ...],
             backend: BackendModel, shots: int | None, words: np.ndarray | None
             ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only canonical stack ``backend._read_settings`` reads out of
    ``states``, and its setting totals from its one check as a dataset's
    weights (``_check_weights``): the datasets built of its rows keep them."""
    stack = _read_settings(states, active, settings, backend, shots, words)
    return stack, _check_weights(stack, 1.0 if shots is None else float(shots))


def _tomograph(prep: Circuit, backend: BackendModel, qubits: tuple[int, ...] | None,
               shots: int | None, seed: int | None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """``_collect`` of one preparation, its final state and its qubits: the
    preparation's cx placements are checked, and one that measures raises
    ``CircuitError``, before it evolves once on the qubits it and its
    settings touch."""
    if qubits is None:
        qubits = range(prep.qubit_count - 1, -1, -1)
    settings, words = _settings_and_words(tuple(qubits), prep.qubit_count, shots, [seed])
    _check_topology(prep, backend)
    if prep.measurements:
        raise CircuitError("circuit already contains measurements")
    touched = _qubits(prep.instructions + settings[0].instructions)
    state, active = _evolve(prep, backend, tuple(sorted(touched, reverse=True)))
    weights, totals = _collect(state[None], active, settings, backend, shots, words)
    return weights, totals, state, active


def collect_dataset(prep: Circuit, backend: BackendModel,
                    qubits: tuple[int, ...] | None = None,
                    shots: int | None = None,
                    seed: int | None = None) -> TomographyDataset:
    """Take every setting of a measurement-free preparation.

    The dataset holds exact probabilities when ``shots`` is None, else
    counts.  ``qubits`` lists the measured qubits most significant first
    and defaults to the whole register.  A sampled dataset expands ``seed``
    (fresh entropy when None) once into
    ``np.random.SeedSequence(seed).generate_state(4 * 3**n, np.uint64)``:
    setting s draws one multinomial from its own PCG64 on words 4s..4s+3,
    so no setting's counts depend on another's weights.  The preparation is
    evolved once, and its settings are read out of its state one measured
    qubit at a time (see ``backend``): every exact row is what
    ``execute_many`` gives for ``prep.then(setting)``, bit for bit without
    noise, and within 1e-15 with noise on, idle decay on or off.  A setting
    that does not fit the register, or a preparation that measures, raises
    ``CircuitError``.
    """
    weights, _, _, _ = _tomograph(prep, backend, qubits, shots, seed)
    return TomographyDataset._of_checked(shots, weights[0])


@dataclass(frozen=True)
class QstRun:
    """A tomographed state, the dataset it was reconstructed from, and the
    circuit's exact final state when the run evolved it on the qubits the
    circuit touches: ``execute_exact(circuit, backend).final_state`` bit for
    bit, density-checked as there; None for a circuit that leaves a register
    qubit alone."""

    state: np.ndarray
    dataset: TomographyDataset
    reference: np.ndarray | None = None

    @property
    def executions(self) -> int:
        return len(self.dataset.weights)


def run_qst(circuit: Circuit, backend: BackendModel,
            shots: int | None = None, seed: int | None = None) -> QstRun:
    """Tomograph the state a measurement-free circuit prepares.

    ``shots=None`` uses exact outcome probabilities; otherwise each of the
    3**n settings is sampled on its own 4 words of ``seed``'s expansion
    (``collect_dataset``).  The circuit is evolved once, as the settings'
    preparation, and that state is the run's ``reference`` when it covers
    the whole register.
    """
    weights, totals, state, active = _tomograph(circuit, backend, None, shots, seed)
    dataset = TomographyDataset._of_checked(shots, weights[0])
    return QstRun(state=_contract(dataset.weights[None] / totals)[0], dataset=dataset,
                  reference=_exact_state(circuit, active, state))
