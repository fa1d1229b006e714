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
evolution loop (``_evolve``) runs one circuit from |0...0>: each
instruction is one fused superoperator (gate then decay) applied to the
state by one ``np.matmul``.  Every circuit is checked before anything
evolves: a cx off the coupling map raises ``TopologyError``, and a qubit
outside the register it is to evolve on a ``ValueError``.  A state is held
as one C-contiguous ``(1, 4^k)`` array with its layout, the order of the 2k
row and column axes its last map stored it in: the next map gathers it into
its own order with one flat ``take``, unless it is stored so already, and
the final state is gathered into the canonical order, that of its ``(2^k,
2^k)`` density matrix.

Physicality holds by construction: every evolution starts from
|0...0><0...0|, and each fused map is checked once, where it is built, as a
channel (completely positive and trace preserving).  Before final states
are read out, they are tested for what a fault in laying out or copying
states can still break, Hermiticity and trace (``_check_readout``); only a
state handed out as a ``final_state`` meets the full
``check_density_matrix``.  ``execute_many`` evolves, tests and reads out
one circuit at a time (``_read``), and yields its result before the next
circuit evolves.

Tomography (``_execute_preparations``) evolves each preparation alone, and
a group's stack of preparation states passes one readout test.  Its 3^n
settings are not evolved: every map a setting applies acts on one qubit, a
basis rotation on its qubit, a measure's decay on the measured qubit and,
with idle decay on, each rotation's decay on every other active qubit.  So
a setting's final diagonal is the preparation state read out one qubit at
a time, through the maps of each qubit's letter (``_setting_diagonals``).
Without noise that gives each weight the bits the setting circuit gives
it, and with noise within rounding (1e-15): maps on different qubits
commute, as do the decays on one qubit, and the readout applies them in
another order than the circuit.  The weights go into one ``(preparations,
settings, 2^m)`` array, handed back with the stacks of evolved
preparation states.  Only ``execute_exact`` returns ``final_state``, the
density matrix of the whole register; a preparation evolved on exactly
the qubits it touches gives the same state bit for bit (``_exact_state``),
and on more qubits it may not.

Outcomes are read-only arrays of length 2^m over the m classical bits:
entry i is the outcome whose bitstring, classical bit m-1 first, is
``format(i, f"0{m}b")``.  Exact weights are the clipped diagonal summed per
outcome and normalised to total 1; a diagonal whose negative entries sum
below -1e-12 raises ``ValueError`` instead of being clipped.

Sampled counts are ``Multinomial(shots, p')``, one ``Generator.multinomial``
per row from its own PCG64, seeded with 4 uint64 words (``_Words``).  In
``execute`` and ``execute_many`` a row is a circuit, and its words are
``np.random.SeedSequence(seed).generate_state(4, np.uint64)``: its generator
is bitwise the one ``np.random.default_rng(seed)`` builds.  In tomography
(``_execute_preparations``) a row is a setting, and each preparation's seed
is expanded once, ``SeedSequence(seed).generate_state(4 * 3**n, np.uint64)``:
setting s draws on words 4s..4s+3 of it, so each setting keeps a stream of
its own, and a change to one setting's weights changes no other setting's
counts.  numpy mixes each seed into its pool; ``_seed_words`` runs the
output hash of ``generate_state`` once over all the pools of a call.  p' is
the outcome weights with each measured classical bit's readout flip f
folded in, in increasing classical-bit order: p' = (1-f) p' + f
p'[i ^ (1 << bit)].  Flips are independent per shot and per bit, so this is
exact in distribution.  Identical (circuit, backend, shots, seed)
reproduce identical counts under one numpy version; numpy does not promise
its binomial draws stay the same across versions.  ``seed=None`` draws
fresh entropy.

The maps an instruction applies (``_maps``) and a tomography group's
per-qubit setting maps (``_setting_maps``) depend only on the instruction
or the settings, the active qubits and the fields of the model the maps
read (its ``_map_key``: T1/T2, durations, the noise and idle-decay
switches).  Each is built once per such key and process, in a cache that
drops its oldest entry past ``_CACHE_ENTRIES``; models that differ in any
of those fields never share an entry.

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
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import NoiseParams, _superoperator_matrix, decoherence_channel
from .operators import GATE_ARITY, _certified, check_density_matrix, num_qubits, standard_gate
from .qasm import QUBIT_COUNT, Circuit, CircuitError, CouplingMap, Gate, Measure, validate_topology

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

    @cached_property
    def _map_key(self) -> tuple:
        """The fields the evolution's maps read, as one hashable value: each
        qubit's T1 and T2, the gate and measure durations and the two
        switches.  Models with equal keys apply the same maps, whatever their
        names, coupling maps or readout flips, so the map tables are cached
        per key (``_cached``)."""
        return (tuple((p.t1_us, p.t2_us) for p in self.qubits),
                tuple(sorted(self.gate_durations_ns.items())), self.measure_duration_ns,
                self.noise_enabled, self.idle_decay)

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


def _check_topology(circuit: Circuit, backend: BackendModel) -> None:
    """Raise TopologyError for the first cx that sits outside the coupling map."""
    bad = validate_topology(circuit, backend.coupling)
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
    significant target first.  The matrix is sum_k K_k (x) K_k^* of the fused
    Kraus operators K_k, built by ``channels._superoperator_matrix`` as
    ``qpt_channel`` builds its map, with the bits of the Kronecker sum it
    replaced.  Each map is checked once, as it is built, by
    ``_check_channel``; one that is no channel raises ValueError naming the
    gate, the decay and the duration.
    """
    ops = [standard_gate(gate)] if gate is not None else [np.eye(1 << len(decay))]
    if decay:
        per_target = [decoherence_channel(p, duration_ns).operators for p in decay]
        ops = [reduce(np.kron, combo) @ u
               for combo in itertools.product(*per_target) for u in ops]
    m = num_qubits(ops[0])
    sup = _superoperator_matrix(ops).reshape((2,) * (4 * m))
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


def _gather(rho: np.ndarray, layout: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """The ``(B, 4**k)`` stack ``rho`` stored in ``layout``, moved by one
    flat ``take`` into ``order``: each value lands where ``transpose`` and
    ``reshape`` of its states to that order put it.  The index is always in
    range; ``mode="clip"`` only skips the bounds check."""
    return rho.take(_positions(layout)[1][_positions(order)[0]], axis=1, mode="clip")


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


# the most entries each cache of map tables keeps
_CACHE_ENTRIES = 4096


def _cached(cache: dict, key: Hashable, build: Callable[[], tuple]) -> tuple:
    """``cache[key]``, built by ``build()`` on a miss; a full cache drops
    its oldest entry first."""
    value = cache.get(key)
    if value is None:
        if len(cache) >= _CACHE_ENTRIES:
            del cache[next(iter(cache))]
        value = cache[key] = build()
    return value


# per (instruction, active qubits, model key): what _maps gives
_MAPS: dict = {}


def _maps(inst: Gate | Measure, active: tuple[int, ...],
          backend: BackendModel) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
    """The (superoperator, target axes) pairs one instruction applies, in
    order, on the ``active`` qubits (qubit ``active[a]`` on axis a): the gate
    and its decay, or a measure's decay; then, with idle decay, each other
    active qubit's decay for the gate's duration.  A measure that does not
    decay applies none.  Built once per (instruction, active qubits, model
    key)."""
    return _cached(_MAPS, (inst, active, backend._map_key),
                   lambda: _instruction_maps(inst, active, backend))


def _instruction_maps(inst: Gate | Measure, active: tuple[int, ...],
                      backend: BackendModel) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
    """``_maps``, built."""
    if isinstance(inst, Gate):
        gate, targets = inst.name, inst.targets
        duration = backend.gate_durations_ns[gate]
    else:
        gate, targets, duration = None, (inst.qubit,), backend.measure_duration_ns
    decay = backend.noise_enabled and duration != 0
    if gate is None and not decay:
        return ()
    params = tuple(backend.qubits[q] for q in targets) if decay else ()
    maps = [(_superoperator(gate, params, duration), tuple([active.index(q) for q in targets]))]
    if decay and gate is not None and backend.idle_decay:
        maps += [(_superoperator(None, (backend.qubits[q],), duration), (a,))
                 for a, q in enumerate(active) if q not in targets]
    return tuple(maps)


def _check_readout(states: np.ndarray) -> None:
    """The readout's test of a final state, or of a ``(B, d, d)`` stack of
    them: each must be Hermitian and unit-trace within 1e-9 as
    ``_certified`` tests them, and one that is not goes to
    ``check_density_matrix``, which decides and words the ``ValueError``.

    Positivity is not tested per state, nor trace per map: every evolution
    starts from |0...0><0...0|, and every map it applies passed
    ``_check_channel``.  Hermiticity and trace can still break where states
    are laid out or copied, and a NaN fails here."""
    if not _certified(states.reshape(-1, *states.shape[-2:]), 1e-9):
        check_density_matrix(states)


def _evolve(circuit: Circuit, backend: BackendModel, active: tuple[int, ...] | None = None
            ) -> tuple[np.ndarray, tuple[int, ...]]:
    """The ``(2**k, 2**k)`` final state of a circuit evolved from |0...0> on
    ``active``, or on the qubits it touches when ``active`` is None, and
    those active qubits.  A qubit outside ``active`` raises ``ValueError``
    before anything evolves; the caller has checked the circuit's cx
    placements (``_check_topology``).  The state evolves as a ``(1, 4**k)``
    stack stored in the layout ``_apply`` left it in, and is gathered into
    the canonical order at the end."""
    touched = _qubits(circuit.instructions)
    if active is None:
        active = tuple(sorted(touched, reverse=True))
    elif outside := touched.difference(active):
        raise ValueError(f"circuit acts on qubit {max(outside)}, outside the start's "
                         f"qubits {active}")
    k = len(active)
    canonical = tuple(range(2 * k))
    # |0...0><0...0| as a stack of one state, stored canonically
    rho, layout = np.eye(1, 1 << (2 * k), dtype=complex), canonical
    for inst in circuit.instructions:
        for sup, axes in _maps(inst, active, backend):
            rho, layout = _apply(sup, rho, layout, axes, k)
    if layout != canonical:
        rho = _gather(rho, layout, canonical)
    return rho.reshape(1 << k, 1 << k), active


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


# the most negative weight one diagonal may lose to clipping, summed
_CLIP_ATOL = 1e-12


def _distributions(diagonals: np.ndarray, active: tuple[int, ...],
                   measures: tuple[Measure, ...], count: int) -> np.ndarray | None:
    """Read-only ``(rows, 2**count)`` outcome weights of the ``(rows, 2**k)``
    real diagonals of active-register states read out by the same measures;
    None when they measure nothing.  Negative weights are clipped to 0, and a
    row whose clipped weights sum below -``_CLIP_ATOL`` raises ``ValueError``
    naming it.  Each row has the bits of its state read out alone: its
    weights are added in local-index order, and its total in the order of
    each outcome's first nonzero weight, one addition at a time.
    """
    if not measures:
        return None
    rows, dim = diagonals.shape
    size = 1 << count
    weights = np.clip(diagonals, 0.0, None)
    clipped = (weights - diagonals).sum(axis=1)
    if (clipped > _CLIP_ATOL).any():
        row = int(np.argmax(clipped > _CLIP_ATOL))
        raise ValueError(f"row {row}: clipped negative weights sum to {-clipped[row]:.3e}, "
                         f"past -{_CLIP_ATOL}")
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
    index, before, after = _hash_constants(2 * count, pools.shape[1])
    state = pools[:, index] ^ before
    state *= after
    state ^= state >> 16
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


@lru_cache(maxsize=16)
def _hash_constants(words: int, pool_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``words`` 32-bit output words of a pool of ``pool_size``: the
    pool word each one hashes, and the hash constant before and after it,
    INIT_B * MULT_B^i mod 2^32 for word i and i + 1; all read-only."""
    consts = np.full(words + 1, _MULT_B, dtype=np.uint32)
    consts[0] = _INIT_B
    consts = np.cumprod(consts, dtype=np.uint32)
    tables = (np.arange(words) % pool_size, consts[:-1], consts[1:])
    for table in tables:
        table.setflags(write=False)
    return tables


class _Words(ISeedSequence):
    """Seeds a bit generator with 4 words ``_seed_words`` computed: PCG64
    asks for 4 uint64 words, and that is the only request it answers."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words, "
                             f"asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def _sample(weights: np.ndarray, measures: tuple[Measure, ...], backend: BackendModel,
            shots: int, words: np.ndarray) -> np.ndarray:
    """Read-only ``(rows, 2**count)`` counts, row r drawn from weight row r
    by PCG64 on the 4 uint64 words ``words[r]``, as the module docstring
    describes."""
    index = np.arange(weights.shape[1])
    for meas in sorted(measures, key=lambda mm: mm.clbit):
        if (flip := backend.qubits[meas.qubit].readout_flip_prob) > 0.0:
            weights = (1.0 - flip) * weights + flip * weights[:, index ^ (1 << meas.clbit)]
    counts = np.array([np.random.Generator(np.random.PCG64(_Words(four))).multinomial(shots, row)
                       for row, four in zip(weights, words)], dtype=np.intp)
    counts.setflags(write=False)
    return counts


_readout = operator.attrgetter("measurements", "classical_count")


def _check_shots(shots: int | None) -> None:
    """Raise ValueError unless ``shots`` is None or an integer (a numpy one
    too, but no bool) from 1 to ``MAX_SHOTS``."""
    if shots is None:
        return
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if not 1 <= shots <= MAX_SHOTS:
        bound = "positive" if shots < 1 else f"at most {MAX_SHOTS}"
        raise ValueError(f"shots must be {bound}, got {shots}")


def _read(diagonals: np.ndarray, active: tuple[int, ...], circuit: Circuit,
          backend: BackendModel, shots: int | None, words: np.ndarray | None
          ) -> np.ndarray | None:
    """The ``(rows, 2**k)`` real diagonals of final states on ``active``
    read out by ``circuit``'s measures: read-only ``(rows, 2**m)`` exact
    weights when ``shots`` is None (None when it measures nothing), else
    counts with row r drawn on the seed words ``words[r]``; sampling a
    circuit that measures nothing raises ``ValueError``."""
    weights = _distributions(diagonals, active, *_readout(circuit))
    if shots is None:
        return weights
    if weights is None:
        raise ValueError("circuit has no measurements to sample")
    return _sample(weights, circuit.measurements, backend, shots, words)


def execute_many(circuits: Sequence[Circuit], backend: BackendModel,
                 shots: int | None = None,
                 seeds: Sequence[int | None] | None = None) -> Iterator[ExecutionResult]:
    """Run circuits in order, yielding one result per circuit.

    With ``shots=None`` each result carries only ``probabilities``, the same
    weights ``execute_exact`` returns (None for a circuit that measures
    nothing); otherwise it is what ``execute`` returns with the matching
    entry of ``seeds``.  Shots that are no integer from 1 to ``MAX_SHOTS``,
    or not one seed per circuit, raise ``ValueError``, and a cx off the
    coupling map in any circuit ``TopologyError``, before anything is
    evolved.  Each circuit is then evolved on the qubits it touches, its
    final state passes the readout test (a failure names it, ``circuit i:
    ...``) and is read out, and its result is yielded before the next
    circuit evolves.
    """
    _check_shots(shots)
    if shots is not None and (seeds is None or len(seeds) != len(circuits)):
        raise ValueError("sampling needs one seed per circuit")
    for circuit in circuits:
        _check_topology(circuit, backend)
    for i, circuit in enumerate(circuits):
        state, active = _evolve(circuit, backend)
        try:
            _check_readout(state)
        except ValueError as exc:
            raise ValueError(f"circuit {i}: {exc}") from None
        block = _read(np.diagonal(state).real[None], active, circuit, backend, shots,
                      None if seeds is None else _seed_words(seeds[i:i + 1], 4))
        if block is None:
            yield ExecutionResult()
        elif shots is None:
            yield ExecutionResult(probabilities=block[0])
        else:
            yield ExecutionResult(counts=block[0], shots=shots)


# per (measured qubits, register size, active qubits, model key): what _setting_maps gives
_SETTING_MAPS: dict = {}

# per measured qubit: its axis and, per letter, its (4, 4) maps with their axes
_Lines = tuple[tuple[int, tuple[tuple[tuple[np.ndarray, int], ...], ...]], ...]


def _setting_maps(settings: Sequence[Circuit], active: tuple[int, ...],
                  backend: BackendModel) -> _Lines:
    """Per measured qubit of ``_execute_preparations``' settings, in measure
    order: its axis on ``active`` and, per letter, the maps the letter's
    instructions apply, in circuit order, each a (4, 4) matrix with the axis
    of the one qubit it acts on: each rotation on the qubit, followed, with
    idle decay, by the decay of every other active qubit for its duration,
    then the qubit's measure decay.  Built once per (measured qubits,
    register size, active qubits, model key): the settings of those qubits
    are ``state_tomography``'s, the same on every call."""
    measured = tuple(meas.qubit for meas in settings[0].measurements)

    def build() -> _Lines:
        lines = []
        for j, q in enumerate(measured):
            letters = []
            for letter in range(3):
                instructions = settings[letter * 3 ** (len(measured) - 1 - j)].instructions
                letters.append(tuple((sup.reshape(4, 4), a) for inst in instructions
                                     if _qubits((inst,)) == {q}
                                     for sup, (a,) in _maps(inst, active, backend)))
            lines.append((active.index(q), tuple(letters)))
        return tuple(lines)

    return _cached(_SETTING_MAPS, (measured, settings[0].qubit_count, active, backend._map_key),
                   build)


def _setting_diagonals(states: np.ndarray, active: tuple[int, ...], lines: _Lines) -> np.ndarray:
    """The ``(B * 3**n, 2**k)`` real diagonals, preparation by preparation,
    that the final states of n measured qubits' settings would have, from
    the ``(B, 2**k, 2**k)`` stack of preparation states; ``lines`` is what
    ``_setting_maps`` gives for those settings.

    The stack is read out one qubit at a time, the unmeasured qubits first,
    then the measured ones in measure order, with each qubit's row and
    column axes side by side.  The qubit's (row, column) pair is moved in
    front as 4 rows, the other axes flattened behind it, and each of its
    letters applies its maps in turn and keeps the two diagonal rows (an
    unmeasured qubit has one letter and no maps).  A map on another qubit,
    an idle decay, acts on that qubit's 4 values (row, column) if it is
    still to be read out, else on its 2 outcome values through the map's
    population block (a decay fills populations from populations alone):
    one matrix product, with that axis moved in front of the others.  Every
    map acts on one qubit, maps on different qubits commute, and so do the
    decays on one qubit; so each diagonal is the setting circuit's within
    rounding.  Without noise no map decays, and each value is the same sum
    of the same products, in the same order, as in the circuit's evolution:
    each diagonal has its bits.
    """
    count, k = len(states), len(active)
    rho = states.reshape(count, *(2,) * (2 * k)).transpose(
        0, *(a + 1 + side * k for a in range(k) for side in (0, 1)))
    # each axis by name: ("row", a), ("col", a), then ("out", a) once read out
    names = [("batch",), *((side, a) for a in range(k) for side in ("row", "col"))]
    measured = {a for a, _ in lines}
    unmeasured = [(a, [[]]) for a in range(k) if a not in measured]
    for step, (a, letters) in enumerate([*unmeasured, *lines]):
        front = [names.index(("row", a)), names.index(("col", a))]
        rest = [i for i in range(1, len(names)) if i not in front]
        flat = rho.transpose(0, *front, *rest).reshape(count, 4, -1)
        # per other qubit: the values before its pair or outcome axis in flat, and its size
        units, before = {}, 4 * count
        for i in rest:
            if names[i][0] in ("row", "out"):
                units[names[i][1]] = (before, 4 if names[i][0] == "row" else 2)
            before *= rho.shape[i]
        read = []
        for maps in letters:
            x = flat
            for mat, b in maps:
                if b == a:
                    x = mat @ x
                else:
                    lead, size = units[b]
                    moved = x.reshape(lead, size, -1).swapaxes(0, 1).reshape(size, -1)
                    x = ((mat if size == 4 else mat[::3, ::3]) @ moved).reshape(
                        size, lead, -1).swapaxes(0, 1).reshape(flat.shape)
            read.append(x[:, ::3])  # the diagonal rows, (0, 0) and (1, 1)
        rho = np.stack(read, axis=1).reshape(count, len(letters), 2, *(rho.shape[i] for i in rest))
        names = [("batch",), ("letter", step), ("out", a), *(names[i] for i in rest)]
    order = [*(names.index(("letter", step)) for step in range(k)),
             *(names.index(("out", a)) for a in range(k))]
    return rho.transpose(0, *order).reshape(-1, 1 << k).real


def _execute_preparations(preps: Sequence[Circuit], settings: Sequence[Sequence[Circuit]],
                          backend: BackendModel, shots: int | None = None,
                          words: np.ndarray | None = None
                          ) -> tuple[np.ndarray, list[tuple[tuple[int, ...], np.ndarray]]]:
    """The outcome weights of ``prep.then(setting)``, for each setting of
    each preparation p in turn, as one ``(len(preps), 3**n, 2**m)`` array:
    exact weights (float), what ``execute_many`` gives, when ``shots`` is
    None, else counts (int), row r of the settings in turn drawn by PCG64 on
    the 4 uint64 words ``words[r]``.

    ``settings[p]`` holds preparation p's 3**n tomography settings over n
    measured qubits, each measuring them into the same m classical bits.
    They form a product over the measured qubits: what setting s applies to
    its j-th measured qubit, in measure order, is what setting d * 3**(n-1-j)
    applies to it, d being digit j of s in base 3 (the first digit most
    significant), and no setting gate acts on more than one qubit.

    Each preparation's cx placements are checked, and a preparation that
    measures raises ``CircuitError``, before anything evolves.  Each
    preparation is then evolved once, alone, on the qubits it and its first
    setting touch, and no setting circuit is evolved.  Consecutive
    preparations on the same qubits with the same settings form a group: the
    stack of its preparation states passes one readout test (a failure names
    the group's preparations by position, ``circuits a..b: matrix j: ...``),
    and its settings' diagonals are read out of it (``_setting_diagonals``).
    Without noise they are bitwise those the setting circuits leave, and
    with it, idle decay on or off, within rounding (1e-15).  Also returned,
    per group in order: its active qubits and the ``(count, 2**k, 2**k)``
    stack of its preparations' evolved states.
    """
    _check_shots(shots)
    for prep in preps:
        _check_topology(prep, backend)
    if any(prep.measurements for prep in preps):
        raise CircuitError("circuit already contains measurements")
    keys = [(chain, tuple(sorted(_qubits(prep.instructions + chain[0].instructions),
                                 reverse=True)))
            for prep, chain in zip(preps, settings)]
    out = np.empty((len(preps), len(settings[0]), 1 << settings[0][0].classical_count),
                   dtype=float if shots is None else np.intp)
    rows = out.reshape(-1, out.shape[2])
    groups, first = [], 0
    for (chain, active), jobs in itertools.groupby(zip(keys, preps), operator.itemgetter(0)):
        stack = [prep for _, prep in jobs]
        last = first + len(stack)
        states = np.stack([_evolve(prep, backend, active)[0] for prep in stack])
        try:
            _check_readout(states)
        except ValueError as exc:
            raise ValueError(f"circuits {first}..{last - 1}: {exc}") from None
        groups.append((active, states))
        diagonals = _setting_diagonals(states, active, _setting_maps(chain, active, backend))
        at, end = first * len(chain), last * len(chain)
        rows[at:end] = _read(diagonals, active, chain[0], backend, shots,
                             None if words is None else words[at:end])
        first = last
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
    check_density_matrix(state)
    return _full_register(state, active, circuit.qubit_count)


def execute_exact(circuit: Circuit, backend: BackendModel) -> ExecutionResult:
    """Evolve the density matrix; no sampling.

    ``final_state`` is the register state after all instructions (including
    measure-duration decay when noise is on); ``probabilities`` holds the
    exact outcome weights by outcome index, or None when nothing is measured.
    A cx off the coupling map raises ``TopologyError`` before anything
    evolves.
    """
    _check_topology(circuit, backend)
    state, active = _evolve(circuit, backend)
    final_state = _exact_state(circuit, active, state)
    weights = _distributions(np.diagonal(state).real[None], active, *_readout(circuit))
    return ExecutionResult(final_state=final_state,
                           probabilities=None if weights is None else weights[0])


def execute(circuit: Circuit, backend: BackendModel, shots: int, seed: int) -> ExecutionResult:
    """Sample counts for a measured circuit; deterministic in the seed."""
    return next(execute_many([circuit], backend, shots, [seed]))
