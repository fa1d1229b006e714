"""Density-matrix execution of circuits against a 5-qubit device model.

A backend model carries per-qubit T1/T2 (microseconds), per-gate durations
(nanoseconds), a directed coupling map restricting cx placement, and two
switches: ``noise`` (decoherence on/off) and ``idle_decay`` (whether qubits
not touched by a gate decay during it; default off, i.e. gates on other
qubits are treated as instantaneous for spectators).

Evolution semantics, in order, per instruction:

* gate: ideal unitary, then, with noise on, ``decoherence_channel``
  (amplitude damping followed by pure dephasing) for the gate duration on
  each involved qubit (on every qubit when idle_decay is on);
* measure: with noise on, the measured qubit decays for the measure
  duration; the qubit-to-classical-bit assignment is recorded and read out
  from the final state's diagonal.

Only the qubits some instruction touches are simulated.  Every other qubit
stays in |0><0|, which is a fixed point of both amplitude damping and pure
dephasing, so leaving it out is exact whether idle_decay is on or off.  One
evolution loop runs circuits over a stack of B states: each instruction is
one fused superoperator (gate then decay) applied to the stack by one
``np.matmul``, then every state's trace is checked.  A circuit resumes from
the states after the prefix it shares with the circuit before it.
``execute_many`` starts each circuit from |0...0> (B = 1); tomography
(``_execute_preparations``) evolves each preparation alone, then runs the
shared settings once over the stack of their states, and a stack's results
come once its last setting is evolved.  Final states are checked as density
matrices in stacks (``check_density_matrix``) before they are read out, and
runs of them on the same active qubits with the same measures are read out
as one stack.  Every result is bitwise the one the circuit would give run on
its own.  Only ``execute_exact`` returns ``final_state``, the density matrix
of the whole register; every other result carries outcome weights or counts.

Outcomes are read-only arrays of length 2^m over the m classical bits:
entry i is the outcome whose bitstring, classical bit m-1 first, is
``format(i, f"0{m}b")``.  Exact weights are the clipped diagonal summed per
outcome and normalised to total 1.

Sampled counts are ``Multinomial(shots, p')``, one ``Generator.multinomial``
per circuit from its own ``np.random.default_rng(seed)``.  p' is the outcome
weights with each measured classical bit's readout flip f folded in, in
increasing classical-bit order: p' = (1-f) p' + f p'[i ^ (1 << bit)].  Flips
are independent per shot and per bit, so this is exact in distribution.
Identical (circuit, backend, shots, seed) reproduce identical counts under
one numpy version; numpy does not promise its binomial draws stay the same
across versions.  ``seed=None`` draws fresh entropy.

Config files are flat ``key=value`` text, ``#`` comments allowed::

    format=1
    name=ibmqx4-sim
    q0.t1_us=48.70
    q0.t2_us=14.00
    q0.readout_flip=0.0
    ...
    dur.single_ns=60
    dur.cx_ns=300
    dur.measure_ns=300
    coupling=1>0,2>0,2>1,3>2,3>4,2>4
    noise=on
    idle_decay=off

Required: name, q0..q4 t1/t2, coupling.  Optional with defaults:
readout_flip 0.0, durations 60/300/300, noise on, idle_decay off, format 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .channels import NoiseParams, decoherence_channel
from .operators import GATE_ARITY, check_density_matrix, num_qubits, standard_gate
from .qasm import QUBIT_COUNT, Circuit, CouplingMap, Gate, Measure, validate_topology

__all__ = [
    "BackendModel",
    "ExecutionResult",
    "ConfigError",
    "TopologyError",
    "DEFAULT_DURATIONS_NS",
    "MAX_SHOTS",
    "load_backend",
    "read_backend",
    "builtin_backend",
    "builtin_backend_names",
    "execute_exact",
    "execute",
    "execute_many",
]

DEFAULT_DURATIONS_NS = {"single": 60.0, "cx": 300.0, "measure": 300.0}
# the most shots one circuit takes: its counts are int64
MAX_SHOTS = int(np.iinfo(np.int64).max)


class ConfigError(ValueError):
    """Backend config text is malformed or unphysical."""


class TopologyError(ValueError):
    """A cx instruction sits outside the backend coupling map."""


@dataclass(frozen=True)
class BackendModel:
    name: str
    qubits: tuple[NoiseParams, ...]
    gate_durations_ns: Mapping[str, float]
    measure_duration_ns: float
    coupling: CouplingMap
    noise_enabled: bool = True
    idle_decay: bool = False

    def __post_init__(self) -> None:
        if len(self.qubits) != QUBIT_COUNT:
            raise ConfigError(
                f"backend needs exactly {QUBIT_COUNT} qubits, got {len(self.qubits)}"
            )
        missing = sorted(set(GATE_ARITY) - set(self.gate_durations_ns))
        if missing:
            raise ConfigError(f"missing gate durations for {missing}")
        for g, d in self.gate_durations_ns.items():
            if not 0 <= d < math.inf:
                raise ConfigError(f"duration of gate {g!r} must be finite and non-negative, got {d!r}")
        if not 0 <= self.measure_duration_ns < math.inf:
            raise ConfigError("measure duration must be finite and non-negative, "
                              f"got {self.measure_duration_ns!r}")

    def with_noise(self, enabled: bool) -> "BackendModel":
        return replace(self, noise_enabled=enabled)

    def with_idle_decay(self, enabled: bool) -> "BackendModel":
        return replace(self, idle_decay=enabled)

    def scaled_durations(self, factor: float) -> "BackendModel":
        """Copy with every gate and measure duration multiplied by factor."""
        if factor < 0:
            raise ValueError("duration scale factor must be non-negative")
        return replace(
            self,
            gate_durations_ns=MappingProxyType(
                {g: d * factor for g, d in self.gate_durations_ns.items()}),
            measure_duration_ns=self.measure_duration_ns * factor,
        )


@dataclass(frozen=True)
class ExecutionResult:
    """Counts (sampled mode) or exact probabilities.

    ``counts`` (int) and ``probabilities`` (float) are read-only arrays
    indexed by outcome, as in the module docstring; each is None when the
    run did not produce it.  ``final_state`` is set by ``execute_exact``
    only; ``execute_many`` leaves it None.
    """

    counts: np.ndarray | None = None
    shots: int | None = None
    final_state: np.ndarray | None = None
    probabilities: np.ndarray | None = None


# --- config ------------------------------------------------------------------

_BOOL = {"on": True, "off": False}


def load_backend(text: str) -> BackendModel:
    """Build a BackendModel from config text (see module docstring)."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            key, eq, value = token.partition("=")
            if not eq or not key:
                raise ConfigError(f"line {lineno}: expected key=value, got {token!r}")
            if key in entries:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            entries[key] = (value, lineno)

    known: set[str] = {"format", "name", "coupling", "noise", "idle_decay",
                       "dur.single_ns", "dur.cx_ns", "dur.measure_ns"}
    for i in range(QUBIT_COUNT):
        known |= {f"q{i}.t1_us", f"q{i}.t2_us", f"q{i}.readout_flip"}
    for key, (_, lineno) in entries.items():
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    def take(key: str, default: str | None = None) -> str:
        if key in entries:
            return entries[key][0]
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def take_float(key: str, default: str | None = None) -> float:
        value = take(key, default)
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: not a number: {value!r}") from None

    def take_bool(key: str, default: str) -> bool:
        value = take(key, default)
        if value not in _BOOL:
            raise ConfigError(f"key {key!r}: expected on/off, got {value!r}")
        return _BOOL[value]

    fmt = take("format", "1")
    if fmt != "1":
        raise ConfigError(f"unsupported config format {fmt!r}")

    name = take("name")

    qubits = []
    for i in range(QUBIT_COUNT):
        t1 = take_float(f"q{i}.t1_us")
        t2 = take_float(f"q{i}.t2_us")
        flip = take_float(f"q{i}.readout_flip", "0.0")
        try:
            qubits.append(NoiseParams(t1_us=t1, t2_us=t2, readout_flip_prob=flip))
        except ValueError as exc:
            raise ConfigError(f"qubit {i}: {exc}") from None

    single = take_float("dur.single_ns", str(DEFAULT_DURATIONS_NS["single"]))
    cx = take_float("dur.cx_ns", str(DEFAULT_DURATIONS_NS["cx"]))
    measure = take_float("dur.measure_ns", str(DEFAULT_DURATIONS_NS["measure"]))

    try:
        coupling = CouplingMap.from_text(take("coupling"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    durations = {g: (cx if g == "cx" else single) for g in GATE_ARITY}

    return BackendModel(
        name=name,
        qubits=tuple(qubits),
        gate_durations_ns=MappingProxyType(durations),
        measure_duration_ns=measure,
        coupling=coupling,
        noise_enabled=take_bool("noise", "on"),
        idle_decay=take_bool("idle_decay", "off"),
    )


def read_backend(path: str | Path) -> BackendModel:
    return load_backend(Path(path).read_text(encoding="utf-8"))


def builtin_backend_names() -> list[str]:
    root = resources.files("qptkit").joinpath("configs")
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


@lru_cache(maxsize=None)
def builtin_backend(name: str) -> BackendModel:
    """Load one of the packaged device transcriptions (e.g. ``qx4``, ``qx2``);
    each is parsed once per process and the model is shared."""
    res = resources.files("qptkit").joinpath(f"configs/{name}.cfg")
    if not res.is_file():
        raise ConfigError(
            f"no builtin backend {name!r}; available: {builtin_backend_names()}"
        )
    return load_backend(res.read_text(encoding="utf-8"))


# --- execution ---------------------------------------------------------------


def _check_topology(circuit: Circuit, backend: BackendModel, start: int) -> None:
    """Raise TopologyError for the first cx from instruction ``start`` on that
    sits outside the coupling map."""
    bad = validate_topology(circuit, backend.coupling, start)
    if bad:
        pos, control, target = bad[0]
        raise TopologyError(
            f"instruction {pos}: cx {control}>{target} not in the "
            f"{backend.name} coupling map ({backend.coupling.to_text()})"
        )


def _qubits(instructions: Sequence[Gate | Measure]) -> set[int]:
    """The qubits some instruction acts on."""
    return {q for inst in instructions
            for q in (inst.targets if isinstance(inst, Gate) else (inst.qubit,))}


@lru_cache(maxsize=1024)
def _superoperator(gate: str | None, decay: tuple[NoiseParams, ...],
                   duration_ns: float) -> np.ndarray:
    """Tensor of the map rho -> D(U rho U^dagger) on len(decay) or arity qubits.

    U is the named gate (identity when ``gate`` is None) and D the product of
    ``decoherence_channel`` on each target for ``duration_ns``, one NoiseParams
    per target (no decay when ``decay`` is empty).  Axes are (out row, out col,
    in row, in col), each split into one axis of size 2 per target, most
    significant target first.
    """
    ops = [standard_gate(gate)] if gate is not None else [np.eye(1 << len(decay))]
    if decay:
        per_target = [decoherence_channel(p, duration_ns).operators for p in decay]
        ops = [reduce(np.kron, combo) @ u
               for combo in itertools.product(*per_target) for u in ops]
    m = num_qubits(ops[0])
    sup = sum(np.kron(a, a.conj()) for a in ops).reshape((2,) * (4 * m))
    sup.setflags(write=False)
    return sup


@lru_cache(maxsize=256)
def _layout(axes: tuple[int, ...], k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order of a ``(B, 2, ..., 2)`` stack of 2k-axis states putting the
    stack axis, then the target row and column axes first, and its inverse."""
    targets = tuple(1 + a for a in axes) + tuple(1 + k + a for a in axes)
    order = (0, *targets, *(a for a in range(1, 2 * k + 1) if a not in targets))
    return order, tuple(np.argsort(order).tolist())


def _apply(sup: np.ndarray, rho: np.ndarray, axes: tuple[int, ...], k: int) -> np.ndarray:
    """Apply a superoperator tensor to each state of a ``(B, 2, ..., 2)``
    stack of (2,)*2k states on the given row axes.

    One ``np.matmul`` over the stack, on the layout ``np.tensordot`` would
    build for each state, so each result is bitwise that state's alone; the
    stack is returned as a view in the states' order.
    """
    order, inverse = _layout(axes, k)
    n = 1 << (2 * len(axes))
    out = np.matmul(sup.reshape(n, n), rho.transpose(order).reshape(len(rho), n, -1))
    return out.reshape(rho.shape).transpose(inverse)


def _shared_prefix(a: tuple[Gate | Measure, ...], b: tuple[Gate | Measure, ...]) -> int:
    """Number of leading instructions two instruction tuples have in common.

    ``Circuit.then`` shares both circuits' instruction objects, so an
    identical object is equal without comparing fields.
    """
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x is not y and x != y),
                min(len(a), len(b)))


def _ground(k: int) -> np.ndarray:
    """|0...0><0...0| on k qubits as a stack of one, shaped (1, 2, ..., 2)."""
    return np.eye(1, 1 << (2 * k), dtype=complex).reshape(1, *(2,) * (2 * k))


# bound on the bytes of evolved states held for one stacked density check
_CHECK_BYTES = 1 << 16


def _checked(chunks: Iterator[tuple[list[Circuit], np.ndarray, tuple[int, ...]]]
             ) -> Iterator[tuple[list[Circuit], np.ndarray, tuple[int, ...]]]:
    """Pass ``_evolve``'s chunks on, each once its states pass
    ``check_density_matrix`` as one stack; a failure names the chunk's
    circuits by position."""
    end = 0
    for circuits, states, active in chunks:
        end += len(circuits)
        try:
            check_density_matrix(states, atol=1e-9)
        except ValueError as exc:
            raise ValueError(f"circuits {end - len(circuits)}..{end - 1}: {exc}") from None
        yield circuits, states, active


def _evolve(circuits: Sequence[Circuit], backend: BackendModel,
            start: tuple[tuple[int, ...], np.ndarray] | None = None
            ) -> Iterator[tuple[list[Circuit], np.ndarray, tuple[int, ...]]]:
    """Yield the circuits chunk by chunk, each chunk with the stack of its
    circuits' final active-register states, circuit-major, and the active
    qubits.  Each circuit starts from ``start``, active qubits that hold every
    qubit the circuits touch and a ``(B, 2, ..., 2)`` stack of B states on
    them, or else from |0...0> (B = 1) on the qubits it touches.  A chunk
    holds at most ``_CHECK_BYTES`` of states, or one circuit's; a yielded
    stack must not be written to.

    ``saved`` holds checkpoints (instructions applied, states, qubits those
    instructions touch), deepest last, on the prefix of the circuit evolved
    last: each circuit resumes from the deepest one that is a prefix of its
    own, and only its instructions from there on are checked and evolved.
    """
    active, rho = start or (None, None)
    saved = [(0, rho, frozenset(active or ()))]
    branch = 0
    pending: list[Circuit] = []
    for i, circuit in enumerate(circuits):
        instructions = circuit.instructions
        while saved[-1][0] > branch:
            saved.pop()
        depth, rho, seen = saved[-1]
        _check_topology(circuit, backend, depth)
        touched = tuple(sorted(seen.union(_qubits(instructions[depth:])), reverse=True))
        if touched != active:
            if pending:
                yield pending, states[:size * len(pending)], active
                pending = []
            active = touched
            rho = _ground(len(active))
            saved = [(0, rho, frozenset())]
            depth, seen = 0, frozenset()
        if not pending:
            k = len(active)
            axis = {q: a for a, q in enumerate(active)}
            traced = [0, *range(1, k + 1), *range(1, k + 1)]
            size = len(rho)
            chunk = max(1, _CHECK_BYTES // (size * 16 << (2 * k)))
            states = np.empty((chunk * size, 1 << k, 1 << k), dtype=complex)
        following = circuits[i + 1].instructions if i + 1 < len(circuits) else ()
        branch = _shared_prefix(instructions, following)
        for pos in range(depth, len(instructions)):
            inst = instructions[pos]
            if isinstance(inst, Gate):
                gate, targets = inst.name, inst.targets
                duration = backend.gate_durations_ns[gate]
            else:
                gate, targets, duration = None, (inst.qubit,), backend.measure_duration_ns
            decay = backend.noise_enabled and duration != 0
            if gate is not None or decay:
                params = tuple(backend.qubits[q] for q in targets) if decay else ()
                sup = _superoperator(gate, params, duration)
                rho = _apply(sup, rho, tuple([axis[q] for q in targets]), k)
                if decay and gate is not None and backend.idle_decay:
                    for q in active:
                        if q not in targets:
                            sup = _superoperator(None, (backend.qubits[q],), duration)
                            rho = _apply(sup, rho, (axis[q],), k)
                # each state's trace read off the strided view, without copying it
                traces = np.einsum(rho, traced, [0]).real.tolist()
                if max(traces) - 1.0 > 1e-9 or 1.0 - min(traces) > 1e-9:
                    drifted = max(traces, key=lambda tr: abs(tr - 1.0))
                    raise ValueError(f"instruction {pos}: state trace drifted to "
                                     f"{drifted!r} during evolution")
            if pos + 1 == branch:
                saved.append((branch, rho, seen.union(_qubits(instructions[depth:branch]))))
        states[size * len(pending):size * (len(pending) + 1)].reshape(rho.shape)[...] = rho
        pending.append(circuit)
        if len(pending) == chunk:
            yield pending, states, active
            pending = []
    if pending:
        yield pending, states[:size * len(pending)], active


def _scatter_bits(active: tuple[int, ...], moves) -> np.ndarray:
    """Per local index of the active register (bit k-1-i is qubit active[i]),
    the index with bit b set where qubit q is set, for each (q, b) in ``moves``."""
    k = len(active)
    local = np.arange(1 << k)
    index = np.zeros_like(local)
    for q, b in moves:
        index |= ((local >> (k - 1 - active.index(q))) & 1) << b
    return index


def _full_register(reduced: np.ndarray, active: tuple[int, ...],
                   qubit_count: int) -> np.ndarray:
    """Scatter an active-register state into the whole register (others in |0>)."""
    index = _scatter_bits(active, [(q, q) for q in active])
    dim = 1 << qubit_count
    full = np.zeros((dim, dim), dtype=complex)
    full[np.ix_(index, index)] = reduced
    return full


@lru_cache(maxsize=64)
def _outcome_index(active: tuple[int, ...], measures: tuple[Measure, ...]) -> np.ndarray:
    """Read-only outcome index read out at each local index of the active register."""
    index = _scatter_bits(active, [(meas.qubit, meas.clbit) for meas in measures])
    index.setflags(write=False)
    return index


def _distributions(diagonals: np.ndarray, active: tuple[int, ...],
                   measures: tuple[Measure, ...], count: int) -> np.ndarray | None:
    """Read-only ``(rows, 2**count)`` outcome weights of the ``(rows, 2**k)``
    real diagonals of active-register states read out by the same measures;
    None when they measure nothing.  Each row has the bits of its state read
    out alone: its weights are added in local-index order, and its total in
    the order of each outcome's first nonzero weight, one addition at a time.
    """
    if not measures:
        return None
    rows, dim = diagonals.shape
    size = 1 << count
    weights = np.clip(diagonals, 0.0, None)
    # each row's outcome indices, offset past the last row's
    index = (_outcome_index(active, measures) + np.arange(0, rows * size, size)[:, None]).ravel()
    probs = np.bincount(index, weights=weights.ravel(), minlength=rows * size).reshape(rows, size)
    first = np.full(rows * size, dim)
    np.minimum.at(first, index, np.where(weights != 0.0, np.arange(dim), dim).ravel())
    order = np.argsort(first.reshape(rows, size), axis=1, kind="stable")
    probs /= np.cumsum(np.take_along_axis(probs, order, axis=1), axis=1)[:, -1:]
    probs.setflags(write=False)
    return probs


def _sample(weights: np.ndarray, measures: tuple[Measure, ...], backend: BackendModel,
            shots: int, seeds: Sequence[int | None]) -> np.ndarray:
    """Read-only ``(rows, 2**count)`` counts, row r drawn from weight row r
    with ``seeds[r]``, as the module docstring describes."""
    index = np.arange(weights.shape[1])
    for meas in sorted(measures, key=lambda mm: mm.clbit):
        if (flip := backend.qubits[meas.qubit].readout_flip_prob) > 0.0:
            weights = (1.0 - flip) * weights + flip * weights[:, index ^ (1 << meas.clbit)]
    counts = np.array([np.random.default_rng(seed).multinomial(shots, row)
                       for row, seed in zip(weights, seeds)], dtype=np.intp)
    counts.setflags(write=False)
    return counts


_readout = operator.attrgetter("measurements", "classical_count")

# bound on the bytes of diagonals held for one readout: 1,024 five-qubit states
_READOUT_BYTES = 1 << 18


def _runs(circuits: Sequence[Circuit], backend: BackendModel,
          start: tuple[tuple[int, ...], np.ndarray] | None = None
          ) -> Iterator[tuple[np.ndarray, tuple[int, ...], tuple[Measure, ...], int]]:
    """Yield runs of consecutive circuits on the same active qubits with the
    same measures and creg size, as evolved from ``start``: the ``(rows,
    2**k)`` stack of their final states' real diagonals, the active qubits,
    the measures and the creg size.  A run holds at most ``_READOUT_BYTES``
    of diagonals, or one chunk's."""
    key, blocks, held = None, [], 0
    for chunk, states, active in _checked(_evolve(circuits, backend, start)):
        diagonals = np.diagonal(states, axis1=1, axis2=2).real
        batch = len(states) // len(chunk)
        for readout, run in itertools.groupby(chunk, _readout):
            rows = len(list(run)) * batch
            size = rows * diagonals.itemsize << len(active)
            if blocks and (key != (active, *readout) or held + size > _READOUT_BYTES):
                yield np.concatenate(blocks), *key
                blocks, held = [], 0
            key = (active, *readout)
            blocks.append(diagonals[:rows].copy())
            held += size
            diagonals = diagonals[rows:]
    if blocks:
        yield np.concatenate(blocks), *key


def _check_shots(shots: int | None) -> None:
    if shots is not None and not 1 <= shots <= MAX_SHOTS:
        bound = "positive" if shots < 1 else f"at most {MAX_SHOTS}"
        raise ValueError(f"shots must be {bound}, got {shots}")


def _results(circuits: Sequence[Circuit], backend: BackendModel, shots: int | None,
             seeds: Sequence[int | None] | None,
             start: tuple[tuple[int, ...], np.ndarray] | None = None
             ) -> Iterator[ExecutionResult]:
    """One result per final state of ``_evolve(circuits, backend, start)``,
    in its order, as ``execute_many`` describes; state r samples with
    ``seeds[r]``."""
    done = 0
    for diagonals, active, measures, count in _runs(circuits, backend, start):
        rows = len(diagonals)
        weights = _distributions(diagonals, active, measures, count)
        if shots is None:
            yield from (ExecutionResult(probabilities=row)
                        for row in ([None] * rows if weights is None else weights))
        elif weights is None:
            raise ValueError("circuit has no measurements to sample")
        else:
            counts = _sample(weights, measures, backend, shots, seeds[done:done + rows])
            yield from (ExecutionResult(counts=row, shots=shots) for row in counts)
        done += rows


def execute_many(circuits: Sequence[Circuit], backend: BackendModel,
                 shots: int | None = None,
                 seeds: Sequence[int | None] | None = None) -> Iterator[ExecutionResult]:
    """Run circuits in order, yielding one result per circuit.

    With ``shots=None`` each result carries only ``probabilities``, the same
    weights ``execute_exact`` returns (None for a circuit that measures
    nothing); otherwise it is what ``execute`` returns with the matching
    entry of ``seeds``.  Shots outside 1..``MAX_SHOTS``, or not one seed per
    circuit, raise ``ValueError`` before anything is evolved.  The circuits
    run through the evolution loop with B = 1, and each run of consecutive
    circuits on the same active qubits with the same measures and creg size
    is read out as one stack: its results are yielded once its last circuit
    is evolved, or once it holds 256 KiB of diagonals.
    """
    _check_shots(shots)
    if shots is not None and (seeds is None or len(seeds) != len(circuits)):
        raise ValueError("sampling needs one seed per circuit")
    yield from _results(circuits, backend, shots, seeds)


def _execute_preparations(preps: Sequence[Circuit], settings: Sequence[Sequence[Circuit]],
                          backend: BackendModel, shots: int | None = None,
                          seeds: Sequence[int | None] | None = None
                          ) -> Iterator[ExecutionResult]:
    """Yield what ``execute_many`` yields for ``prep.then(setting)``, for each
    setting of ``settings[p]`` of each preparation p in turn, with the same
    seeds, bit for bit; the settings of one preparation act on the same qubits.

    Each preparation is evolved once, alone, on the qubits it and its
    settings touch.  Consecutive preparations on the same qubits with the
    same settings form a stack that the settings run over once; its results
    are yielded, in preparation order, once its last setting is evolved.
    """
    _check_shots(shots)
    keys = [(suffixes, tuple(sorted(_qubits(prep.then(suffixes[0]).instructions), reverse=True)))
            for prep, suffixes in zip(preps, settings)]
    done = 0
    for (suffixes, active), jobs in itertools.groupby(zip(keys, preps), operator.itemgetter(0)):
        stack = [prep for _, prep in jobs]
        evolved = _evolve(stack, backend, (active, _ground(len(active))))
        states = np.concatenate([chunk for _, chunk, _ in evolved])
        count, width = len(stack), len(suffixes)
        stacked = None if shots is None else [seeds[done + p * width + s]
                                              for s in range(width) for p in range(count)]
        start = (active, states.reshape((count,) + (2,) * (2 * len(active))))
        results = list(_results(suffixes, backend, shots, stacked, start))
        yield from (results[s * count + p] for p in range(count) for s in range(width))
        done += count * width


def execute_exact(circuit: Circuit, backend: BackendModel) -> ExecutionResult:
    """Evolve the density matrix; no sampling.

    ``final_state`` is the register state after all instructions (including
    measure-duration decay when noise is on); ``probabilities`` holds the
    exact outcome weights by outcome index, or None when nothing is measured.
    """
    ((_, states, active),) = _checked(_evolve([circuit], backend))
    weights = _distributions(np.diagonal(states, axis1=1, axis2=2).real, active,
                             *_readout(circuit))
    return ExecutionResult(
        final_state=_full_register(states[0], active, circuit.qubit_count),
        probabilities=None if weights is None else weights[0],
    )


def execute(circuit: Circuit, backend: BackendModel, shots: int, seed: int) -> ExecutionResult:
    """Sample counts for a measured circuit; deterministic in the seed."""
    return next(execute_many([circuit], backend, shots, [seed]))
