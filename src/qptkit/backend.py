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
``np.matmul``.  A circuit resumes from the states after the prefix it
shares with the circuit before it.  Before anything evolves, what each
circuit adds to that prefix is checked once: a cx off the coupling map
raises ``TopologyError``, and a qubit outside the start stack's a
``ValueError``.  An instruction's superoperators are looked up once per
active register and reused by every circuit that shares the instruction
object; a measure that applies nothing costs that lookup.
Each stack is held as one C-contiguous ``(B, 4^k)`` array with its layout,
the order of the 2k row and column axes its last map stored it in: the
next map gathers it into its own order with one flat ``take``, unless it is
stored so already, and a final state is gathered into its chunk in the
canonical order, that of its ``(2^k, 2^k)`` density matrix.
``execute_many`` starts each circuit from |0...0> (B = 1).

Physicality holds by construction: every evolution starts from
|0...0><0...0|, and each fused map is checked once, where it is built, as a
channel (completely positive and trace preserving).  Before final states
are read out, each stack of them is tested for what a fault in laying out
or copying states can still break, Hermiticity and trace
(``_check_readout``); only a state handed out as a ``final_state`` meets
the full ``check_density_matrix``.  Each run of final states on the same
active qubits with the same measures is read out as one block, a ``(rows,
2^m)`` array of outcome weights or counts (``_blocks``).  ``execute_many``
yields a block's rows as results.  Tomography (``_execute_preparations``)
evolves each preparation alone and takes its settings as a product of
stages: the first stage's circuits run once over the stack of the
preparations' states, each later stage's once over the stack the stage
before left, and only the last stage's states are tested and read out.
It writes each block into one ``(preparations, settings, 2^m)`` array and
hands that back with the stacks of evolved preparation states.  Every row
is bitwise what the circuit would give run on its own: one batched
``np.matmul`` gives each state of a stack the bits it gets alone.  Only
``execute_exact`` returns ``final_state``, the density matrix of the whole
register; a preparation evolved on exactly the qubits it touches gives the
same state bit for bit (``_exact_state``), and on more qubits it may not.

Outcomes are read-only arrays of length 2^m over the m classical bits:
entry i is the outcome whose bitstring, classical bit m-1 first, is
``format(i, f"0{m}b")``.  Exact weights are the clipped diagonal summed per
outcome and normalised to total 1.

Sampled counts are ``Multinomial(shots, p')``, one ``Generator.multinomial``
per circuit from its own generator: PCG64 on the words of
``np.random.SeedSequence(seed)``, bitwise the generator
``np.random.default_rng(seed)`` builds.  numpy mixes each seed into its
pool; ``_seed_words`` runs the output hash of ``generate_state`` once over
all the pools of a readout.  p' is the outcome weights with each measured
classical bit's readout flip f folded in, in increasing classical-bit
order: p' = (1-f) p' + f p'[i ^ (1 << bit)].  Flips are independent per
shot and per bit, so this is exact in distribution.  Identical (circuit,
backend, shots, seed) reproduce identical counts under one numpy version;
numpy does not promise its binomial draws stay the same across versions.
``seed=None`` draws fresh entropy.

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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import NoiseParams, decoherence_channel
from .operators import GATE_ARITY, _certified, check_density_matrix, num_qubits, standard_gate
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
        if not 0 <= factor < math.inf:
            raise ValueError("duration scale factor must be finite and non-negative, "
                             f"got {factor!r}")
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


# how far a fused map may be from a channel
_CHANNEL_ATOL = 1e-12


def _check_channel(sup: np.ndarray) -> None:
    """Raise ValueError unless a superoperator tensor, axes as
    ``_superoperator`` gives them, is a channel within ``_CHANNEL_ATOL``.

    Its Choi matrix, the tensor read as (out row, in row) by (out col, in
    col), must be Hermitian and have no eigenvalue below -atol (completely
    positive), and its partial trace over the output must be the identity
    (trace preserving).  A NaN or inf fails the Hermiticity test.  As in
    ``check_density_matrix``, a Cholesky factorisation of the Choi matrix
    shifted by atol passes a valid map, and only when it fails do the
    eigenvalues give the verdict and the message."""
    d = 1 << (sup.ndim // 4)
    square = sup.reshape(d, d, d, d)
    choi = square.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    deviation = np.abs(choi - choi.conj().T).max()
    if not deviation <= _CHANNEL_ATOL:
        raise ValueError(f"Choi matrix not Hermitian: deviation {deviation:.3e}")
    try:
        np.linalg.cholesky(choi + _CHANNEL_ATOL * np.eye(d * d))
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(choi).min()
        if lowest < -_CHANNEL_ATOL:
            raise ValueError(f"not completely positive: Choi eigenvalue {lowest:.3e}") from None
    deviation = np.abs(np.einsum("iikl->kl", square) - np.eye(d)).max()
    if deviation > _CHANNEL_ATOL:
        raise ValueError(f"not trace preserving: deviation {deviation:.3e}")


@lru_cache(maxsize=1024)
def _superoperator(gate: str | None, decay: tuple[NoiseParams, ...],
                   duration_ns: float) -> np.ndarray:
    """Tensor of the map rho -> D(U rho U^dagger) on len(decay) or arity qubits.

    U is the named gate (identity when ``gate`` is None) and D the product of
    ``decoherence_channel`` on each target for ``duration_ns``, one NoiseParams
    per target (no decay when ``decay`` is empty).  Axes are (out row, out col,
    in row, in col), each split into one axis of size 2 per target, most
    significant target first.  Each map is checked once, as it is built, by
    ``_check_channel``; one that is no channel raises ValueError naming the
    gate, the decay and the duration.
    """
    ops = [standard_gate(gate)] if gate is not None else [np.eye(1 << len(decay))]
    if decay:
        per_target = [decoherence_channel(p, duration_ns).operators for p in decay]
        ops = [reduce(np.kron, combo) @ u
               for combo in itertools.product(*per_target) for u in ops]
    m = num_qubits(ops[0])
    sup = sum(np.kron(a, a.conj()) for a in ops).reshape((2,) * (4 * m))
    try:
        _check_channel(sup)
    except ValueError as exc:
        decayed = (f"decay T1/T2 {', '.join(f'{p.t1_us}/{p.t2_us}' for p in decay)} us"
                   if decay else "no decay")
        raise ValueError(f"gate {gate!r} with {decayed} for {duration_ns} ns is no channel: "
                         f"{exc}") from None
    sup.setflags(write=False)
    return sup


@lru_cache(maxsize=256)
def _order(axes: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The layout a map on the given row axes of 2k-axis states reads a
    stack in: the target row and column axes first, then the others."""
    targets = (*axes, *(k + a for a in axes))
    return (*targets, *(a for a in range(2 * k) if a not in targets))


@lru_cache(maxsize=64)
def _positions(layout: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For a stack of states stored in ``layout`` (its state axes in that
    order): the canonical flat index held at each stored position, and the
    stored position of each canonical flat index."""
    size = 1 << len(layout)
    held = np.arange(size).reshape((2,) * len(layout)).transpose(layout).ravel()
    where = np.empty(size, dtype=np.intp)
    where[held] = np.arange(size)
    return held, where


def _gather(rho: np.ndarray, layout: tuple[int, ...], order: tuple[int, ...],
            out: np.ndarray | None = None) -> np.ndarray:
    """The ``(B, 4**k)`` stack ``rho`` stored in ``layout``, moved by one
    flat ``take`` (into ``out`` when given) into ``order``: each value lands
    where ``transpose`` and ``reshape`` of its states to that order put it.
    The index is always in range; ``mode="clip"`` only skips the bounds check
    and the buffer ``"raise"`` copies ``out`` through."""
    return rho.take(_positions(layout)[1][_positions(order)[0]], axis=1, out=out, mode="clip")


def _apply(sup: np.ndarray, rho: np.ndarray, layout: tuple[int, ...],
           axes: tuple[int, ...], k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Apply a superoperator tensor to each state of a C-contiguous ``(B,
    4**k)`` stack of 2k-axis states stored in ``layout``, on the given row
    axes; return the C-contiguous product and the layout it is stored in,
    the map's order (``_order``).

    The stack is gathered into the map's order with one flat ``take``
    (``_gather``), unless it is stored so already, and one ``np.matmul``
    runs over it.  Its operand holds each value where ``np.tensordot`` would
    lay it out for each state, so each result is bitwise that state's alone.
    """
    order = _order(axes, k)
    if layout != order:
        rho = _gather(rho, layout, order)
    n = 1 << (2 * len(axes))
    return np.matmul(sup.reshape(n, n), rho.reshape(len(rho), n, -1)).reshape(len(rho), -1), order


def _shared_prefix(a: tuple[Gate | Measure, ...], b: tuple[Gate | Measure, ...]) -> int:
    """Number of leading instructions two instruction tuples have in common.

    ``Circuit.then`` shares both circuits' instruction objects, so an
    identical object is equal without comparing fields.
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] is not b[i] and a[i] != b[i]:
            return i
    return n


def _ground(k: int) -> np.ndarray:
    """|0...0><0...0| on k qubits as a stack of one, shaped (1, 4**k)."""
    return np.eye(1, 1 << (2 * k), dtype=complex)


def _maps(inst: Gate | Measure, backend: BackendModel,
          axis: Mapping[int, int]) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
    """The (superoperator, target axes) pairs one instruction applies, in
    order, on the active qubits ``axis`` maps to their axes: the gate and its
    decay, or a measure's decay; then, with idle decay, each other active
    qubit's decay for the gate's duration.  A measure that does not decay
    applies none."""
    if isinstance(inst, Gate):
        gate, targets = inst.name, inst.targets
        duration = backend.gate_durations_ns[gate]
    else:
        gate, targets, duration = None, (inst.qubit,), backend.measure_duration_ns
    decay = backend.noise_enabled and duration != 0
    if gate is None and not decay:
        return ()
    params = tuple(backend.qubits[q] for q in targets) if decay else ()
    maps = [(_superoperator(gate, params, duration), tuple([axis[q] for q in targets]))]
    if decay and gate is not None and backend.idle_decay:
        maps += [(_superoperator(None, (backend.qubits[q],), duration), (a,))
                 for q, a in axis.items() if q not in targets]
    return tuple(maps)


# bound on the bytes of evolved states held for one stacked check
_CHECK_BYTES = 1 << 16


def _check_readout(states: np.ndarray) -> None:
    """The readout's test of a ``(B, d, d)`` stack of final states: each
    must be Hermitian and unit-trace within 1e-9 as ``_certified`` tests
    them, and a stack that is not goes to ``check_density_matrix``, which
    decides and words the ``ValueError``.

    Positivity is not tested per state, nor trace per map: every evolution
    starts from |0...0><0...0|, and every map it applies passed
    ``_check_channel``.  Hermiticity and trace can still break where states
    are laid out or copied, and a NaN fails here."""
    if not _certified(states, 1e-9):
        check_density_matrix(states)


def _checked(chunks: Iterable[tuple[list[Circuit], np.ndarray, tuple[int, ...]]],
             check: Callable[[np.ndarray], None]
             ) -> Iterator[tuple[list[Circuit], np.ndarray, tuple[int, ...]]]:
    """Pass ``_evolve``'s chunks on, each once ``check`` passes its states as
    one stack: ``_check_readout`` for states that are only read out,
    ``check_density_matrix`` for a state handed out.  A failure names the
    chunk's circuits by position."""
    end = 0
    for circuits, states, active in chunks:
        end += len(circuits)
        try:
            check(states)
        except ValueError as exc:
            raise ValueError(f"circuits {end - len(circuits)}..{end - 1}: {exc}") from None
        yield circuits, states, active
        del states  # not held while the next chunk evolves


def _evolve(circuits: Sequence[Circuit], backend: BackendModel,
            start: tuple[tuple[int, ...], np.ndarray] | None = None
            ) -> Iterator[tuple[list[Circuit], np.ndarray, tuple[int, ...]]]:
    """Yield the circuits chunk by chunk, each chunk with the stack of its
    circuits' final active-register states, ``(B, 2**k, 2**k)`` per circuit,
    circuit-major, and the active qubits.  Each circuit starts from
    ``start``, active qubits and a stack of B states on them, B first and
    each state in the canonical order (``(B, 2**k, 2**k)`` or ``(B,
    4**k)``), or else from |0...0> (B = 1) on the qubits it touches.  A chunk
    holds at most ``_CHECK_BYTES`` of states, or one circuit's; a yielded
    stack must not be written to.

    Before anything evolves, what each circuit adds to the prefix it shares
    with the circuit before it is checked: a cx off the coupling map raises
    ``TopologyError``, and a qubit outside ``start``'s a ``ValueError``
    naming the circuit.  A stack evolves as a ``(B, 4**k)`` array stored in
    the layout ``_apply`` left it in, and each circuit's final states are
    gathered into the chunk in the canonical order.  ``saved`` holds
    checkpoints (instructions applied, states, their layout), deepest last,
    on the prefix of the circuit evolved last: each circuit resumes from the
    deepest one that is a prefix of its own.  ``steps`` holds each
    instruction's ``_maps`` on the active register.
    """
    instructions = [circuit.instructions for circuit in circuits]
    # shared[i]: the leading instructions circuits i and i + 1 have in common
    shared = [*map(_shared_prefix, instructions, instructions[1:]), 0]
    fresh = 0
    for i, circuit in enumerate(circuits):
        _check_topology(circuit, backend, fresh)
        if start is not None:
            outside = _qubits(instructions[i][fresh:]).difference(start[0])
            if outside:
                raise ValueError(f"circuit {i} acts on qubit {max(outside)}, outside the "
                                 f"start's qubits {start[0]}")
        fresh = shared[i]
    if start is None:
        active = rho = layout = None
    else:
        active, rho = start[0], start[1].reshape(len(start[1]), -1)
        layout = canonical = tuple(range(2 * len(active)))
    saved, steps, pending = [(0, rho, layout)], {}, []
    for i, circuit in enumerate(circuits):
        while saved[-1][0] > (shared[i - 1] if i else 0):
            saved.pop()
        depth, rho, layout = saved[-1]
        if start is None:
            touched = tuple(sorted(_qubits(instructions[i]), reverse=True))
            if touched != active:
                if pending:
                    yield pending, states[:size * len(pending)], active
                    pending = []
                active, depth, rho = touched, 0, _ground(len(touched))
                layout = canonical = tuple(range(2 * len(touched)))
                saved, steps = [(0, rho, layout)], {}
        if not pending:
            k = len(active)
            axis = {q: a for a, q in enumerate(active)}
            size = len(rho)
            chunk = max(1, _CHECK_BYTES // (size * 16 << (2 * k)))
            states = np.empty((chunk * size, 1 << k, 1 << k), dtype=complex)
        branch = shared[i]
        for pos in range(depth, len(instructions[i])):
            # keyed by identity: the circuits hold every instruction while this runs
            inst = instructions[i][pos]
            maps = steps.get(id(inst))
            if maps is None:
                maps = steps[id(inst)] = _maps(inst, backend, axis)
            for sup, axes in maps:
                rho, layout = _apply(sup, rho, layout, axes, k)
            if pos + 1 == branch:
                saved.append((branch, rho, layout))
        _gather(rho, layout, canonical,
                out=states[size * len(pending):size * (len(pending) + 1)].reshape(size, -1))
        del rho  # the final state lives on in ``states``, and as a checkpoint if one
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


# the output hash of numpy's SeedSequence.generate_state (numpy/random/bit_generator.pyx)
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _seed_words(seeds: Sequence[int | None], count: int) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(count, np.uint64)`` for
    each seed s (fresh entropy when None), as the rows of one
    ``(len(seeds), count)`` uint64 array.

    numpy mixes each seed into its pool; the output hash then runs once over
    every pool, 2 * count 32-bit words per row, read as numpy reads them:
    little-endian pairs, low word first.
    """
    for seed in seeds:
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    pools = np.array([np.random.SeedSequence(seed).pool for seed in seeds],
                     dtype=np.uint32).reshape(len(seeds), -1)
    words = 2 * count
    # the hash constant before and after word i: INIT_B * MULT_B^i, mod 2^32
    consts = np.full(words + 1, _MULT_B, dtype=np.uint32)
    consts[0] = _INIT_B
    consts = np.cumprod(consts, dtype=np.uint32)
    state = pools[:, np.arange(words) % pools.shape[1]] ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> 16
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seeds a bit generator with words ``_seed_words`` computed: PCG64 asks
    for 4 uint64 words, and that is the only request it answers."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words, "
                             f"asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def _sample(weights: np.ndarray, measures: tuple[Measure, ...], backend: BackendModel,
            shots: int, seeds: Sequence[int | None]) -> np.ndarray:
    """Read-only ``(rows, 2**count)`` counts, row r drawn from weight row r
    with ``seeds[r]``, as the module docstring describes."""
    index = np.arange(weights.shape[1])
    for meas in sorted(measures, key=lambda mm: mm.clbit):
        if (flip := backend.qubits[meas.qubit].readout_flip_prob) > 0.0:
            weights = (1.0 - flip) * weights + flip * weights[:, index ^ (1 << meas.clbit)]
    counts = np.array([np.random.Generator(np.random.PCG64(_Words(words))).multinomial(shots, row)
                       for row, words in zip(weights, _seed_words(seeds, 4))], dtype=np.intp)
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
    for chunk, states, active in _checked(_evolve(circuits, backend, start), _check_readout):
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
        del states, diagonals  # not held while the next chunk evolves
    if blocks:
        yield np.concatenate(blocks), *key


def _check_shots(shots: int | None) -> None:
    if shots is not None and not 1 <= shots <= MAX_SHOTS:
        bound = "positive" if shots < 1 else f"at most {MAX_SHOTS}"
        raise ValueError(f"shots must be {bound}, got {shots}")


def _blocks(circuits: Sequence[Circuit], backend: BackendModel, shots: int | None,
            seeds: Sequence[int | None] | None,
            start: tuple[tuple[int, ...], np.ndarray] | None = None
            ) -> Iterator[tuple[int, np.ndarray | None]]:
    """Each run of ``_runs(circuits, backend, start)`` read out, in order: its
    row count and its read-only ``(rows, 2**m)`` exact weights, or counts with
    row r drawn with ``seeds[r]``; the weights are None for a run that
    measures nothing, which sampling rejects."""
    done = 0
    for diagonals, active, measures, count in _runs(circuits, backend, start):
        rows = len(diagonals)
        block = _distributions(diagonals, active, measures, count)
        if shots is not None:
            if block is None:
                raise ValueError("circuit has no measurements to sample")
            block = _sample(block, measures, backend, shots, seeds[done:done + rows])
        yield rows, block
        done += rows


def execute_many(circuits: Sequence[Circuit], backend: BackendModel,
                 shots: int | None = None,
                 seeds: Sequence[int | None] | None = None) -> Iterator[ExecutionResult]:
    """Run circuits in order, yielding one result per circuit.

    With ``shots=None`` each result carries only ``probabilities``, the same
    weights ``execute_exact`` returns (None for a circuit that measures
    nothing); otherwise it is what ``execute`` returns with the matching
    entry of ``seeds``.  Shots outside 1..``MAX_SHOTS``, or not one seed per
    circuit, raise ``ValueError``, and a cx off the coupling map in any
    circuit ``TopologyError``, before anything is evolved.  The circuits
    run through the evolution loop with B = 1, and each run of consecutive
    circuits on the same active qubits with the same measures and creg size
    is read out as one stack: its results are yielded once its last circuit
    is evolved, or once it holds 256 KiB of diagonals.
    """
    _check_shots(shots)
    if shots is not None and (seeds is None or len(seeds) != len(circuits)):
        raise ValueError("sampling needs one seed per circuit")
    for rows, block in _blocks(circuits, backend, shots, seeds):
        if block is None:
            yield from (ExecutionResult() for _ in range(rows))
        elif shots is None:
            yield from (ExecutionResult(probabilities=row) for row in block)
        else:
            yield from (ExecutionResult(counts=row, shots=shots) for row in block)


def _stacked(circuits: Sequence[Circuit], backend: BackendModel,
             start: tuple[tuple[int, ...], np.ndarray]) -> np.ndarray:
    """The unchecked ``(len(circuits) * B, 2**k, 2**k)`` stack of the
    circuits' final states from ``start``, circuit-major, as ``_evolve``
    leaves them."""
    return np.concatenate([states for _, states, _ in _evolve(circuits, backend, start)])


def _execute_preparations(preps: Sequence[Circuit],
                          stages: Sequence[Sequence[Sequence[Circuit]]],
                          backend: BackendModel, shots: int | None = None,
                          seeds: Sequence[int | None] | None = None
                          ) -> tuple[np.ndarray, list[tuple[tuple[int, ...], np.ndarray]]]:
    """What ``execute_many`` gives for ``prep.then(setting)``, for each
    setting of each preparation p in turn, with the same seeds, bit for bit,
    as one ``(len(preps), S, 2**m)`` array: exact weights (float) when
    ``shots`` is None, else counts (int).  Preparation p's settings are the
    product of its stages ``stages[p]``: setting ``(i_0, ..., i_last)``, in
    mixed radix with the first stage most significant, is
    ``stages[p][0][i_0].then(...).then(stages[p][-1][i_last])``.  Every
    preparation has stages of the same sizes, S settings in all; only the
    last stage measures, each of its circuits into m classical bits.  The
    first setting, made of the first circuit of each stage, fixes the qubits
    a preparation's settings act on (a circuit that acts on another qubit
    raises).

    Each preparation is evolved once, alone, on the qubits it and its first
    setting touch.  Consecutive preparations on the same qubits with the
    same stages form a group.  Its preparations run in batches whose states
    before the last stage hold at most ``_READOUT_BYTES``, or one
    preparation's: each stage's circuits run once over the stack the stage
    before left, and only the last stage's final states are checked and
    read out, each block written into the array where it belongs.  Also
    returned, per group in order: its active qubits and the unchecked
    ``(count, 2**k, 2**k)`` stack of its preparations' evolved states.
    """
    _check_shots(shots)
    keys = [(chain, tuple(sorted(_qubits(reduce(Circuit.then, (stage[0] for stage in chain),
                                                prep).instructions), reverse=True)))
            for prep, chain in zip(preps, stages)]
    sizes = [len(stage) for stage in stages[0]]
    # the states one preparation leaves in the stack before the last stage
    held = math.prod(sizes[:-1])
    out = np.empty((len(preps), held * sizes[-1], 1 << stages[0][-1][0].classical_count),
                   dtype=float if shots is None else np.intp)
    if shots is not None:
        seeds = np.array(seeds, dtype=object).reshape(len(preps), *sizes)
    # each stage runs circuit by circuit over the stack the stage before
    # left, so row r of the last stage's readout is (i_last, ..., i_0,
    # preparation) in mixed radix: the axes of a batch's (preparation, i_0,
    # ..., i_last, outcome) view of the array in that order
    order = (*range(len(sizes), -1, -1), len(sizes) + 1)
    groups, done = [], 0
    for (chain, active), jobs in itertools.groupby(zip(keys, preps), operator.itemgetter(0)):
        stack = [prep for _, prep in jobs]
        states = _stacked(stack, backend, (active, _ground(len(active))))
        groups.append((active, states))
        batch = max(1, _READOUT_BYTES // (states[0].nbytes * held))
        for lo in range(0, len(stack), batch):
            start = (active, states[lo:lo + batch])
            for stage in chain[:-1]:
                start = (active, _stacked(stage, backend, start))
            part = slice(done + lo, done + min(lo + batch, len(stack)))
            rows = out[part].reshape(-1, *sizes, out.shape[2]).transpose(order)
            stacked = None if shots is None else seeds[part].T.ravel().tolist()
            at = 0
            for size, block in _blocks(chain[-1], backend, shots, stacked, start):
                rows[np.unravel_index(np.arange(at, at + size), rows.shape[:-1])] = block
                at += size
        done += len(stack)
    return out, groups


def _exact_state(circuit: Circuit, active: tuple[int, ...],
                 state: np.ndarray) -> np.ndarray | None:
    """``execute_exact``'s ``final_state``: the whole-register density matrix
    of a circuit's final state on ``active`` as the evolution loop left it,
    once the full ``check_density_matrix`` passes it: a state handed out is
    checked as any input would be, positivity too, where the readout tests
    only Hermiticity and trace.  None when ``active`` are not
    exactly the qubits the circuit touches, the register ``execute_exact``
    evolves it on: evolved on more qubits, a state can differ in its last
    bits."""
    if active != tuple(sorted(_qubits(circuit.instructions), reverse=True)):
        return None
    ((_, states, _),) = _checked([([circuit], state[None], active)], check_density_matrix)
    return _full_register(states[0], active, circuit.qubit_count)


def execute_exact(circuit: Circuit, backend: BackendModel) -> ExecutionResult:
    """Evolve the density matrix; no sampling.

    ``final_state`` is the register state after all instructions (including
    measure-duration decay when noise is on); ``probabilities`` holds the
    exact outcome weights by outcome index, or None when nothing is measured.
    """
    ((_, states, active),) = _evolve([circuit], backend)
    final_state = _exact_state(circuit, active, states[0])
    weights = _distributions(np.diagonal(states, axis1=1, axis2=2).real, active,
                             *_readout(circuit))
    return ExecutionResult(final_state=final_state,
                           probabilities=None if weights is None else weights[0])


def execute(circuit: Circuit, backend: BackendModel, shots: int, seed: int) -> ExecutionResult:
    """Sample counts for a measured circuit; deterministic in the seed."""
    return next(execute_many([circuit], backend, shots, [seed]))
