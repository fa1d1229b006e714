"""Kraus-operator channels: amplitude damping, pure dephasing, composition.

Decoherence strengths are derived from relaxation times the way supercondu-
cting-qubit experiments quote them: T1 and T2 in microseconds, gate
durations in nanoseconds.  Amplitude damping uses

    gamma = 1 - exp(-t / T1)

and pure dephasing removes the T1 contribution from T2 first,

    1/T_phi = 1/T2 - 1/(2 T1),    p = (1 - exp(-t / T_phi)) / 2,

with Kraus operators sqrt(1-p) I and sqrt(p) Z.  T2 <= 2 T1 is required;
equality means no pure dephasing at all.

Channels act on density matrices as rho -> sum_k E_k rho E_k^dagger.  The
two decay channels are diagonal in the computational basis sense that they
commute with each other, so the order in which a simulator applies them per
gate does not matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KrausChannel",
    "NoiseParams",
    "amplitude_damping",
    "pure_dephasing",
    "decoherence_channel",
    "compose",
    "validate_completeness",
    "apply_channel",
]

COMPLETENESS_ATOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A channel given by one or more Kraus operators on ``qubit_count``
    qubits, each a finite matrix of the register's size."""

    qubit_count: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("channel needs at least one qubit")
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = 1 << self.qubit_count
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operator shape {op.shape} does not match "
                    f"{self.qubit_count} qubit(s)"
                )
            if not np.isfinite(op).all():
                raise ValueError("Kraus operator has non-finite entries")
            op.setflags(write=False)
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class NoiseParams:
    """Per-qubit decoherence figures.

    t1_us, t2_us are relaxation times in microseconds; readout_flip_prob is a
    symmetric classical bit-flip applied to sampled measurement outcomes.
    """

    t1_us: float
    t2_us: float
    readout_flip_prob: float = 0.0

    def __post_init__(self) -> None:
        if not (self.t1_us > 0):
            raise ValueError(f"t1 must be positive, got {self.t1_us}")
        if not (0 < self.t2_us <= 2 * self.t1_us):
            raise ValueError(
                f"t2 must satisfy 0 < t2 <= 2*t1, got t2={self.t2_us} with t1={self.t1_us}"
            )
        if not (0 <= self.readout_flip_prob <= 0.5):
            raise ValueError(
                f"readout flip probability must lie in [0, 0.5], got {self.readout_flip_prob}"
            )


def amplitude_damping(duration_ns: float, t1_us: float) -> KrausChannel:
    """Single-qubit T1 decay over the given duration."""
    if not t1_us > 0:
        raise ValueError(f"t1 must be positive, got {t1_us}")
    if not duration_ns >= 0:
        raise ValueError(f"duration must be non-negative, got {duration_ns}")
    gamma = -math.expm1(-duration_ns / (t1_us * 1e3))
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(1, (e0, e1))


def pure_dephasing(duration_ns: float, t1_us: float, t2_us: float) -> KrausChannel:
    """Single-qubit phase decay beyond the T1 contribution.

    With T2 = 2 T1 the pure-dephasing rate vanishes and the channel is the
    identity for any duration.
    """
    NoiseParams(t1_us, t2_us)  # checks t1 and t2
    if not duration_ns >= 0:
        raise ValueError(f"duration must be non-negative, got {duration_ns}")
    rate_per_us = 1.0 / t2_us - 1.0 / (2.0 * t1_us)
    p = -math.expm1(-(duration_ns / 1e3) * rate_per_us) / 2.0
    e0 = math.sqrt(1.0 - p) * np.eye(2, dtype=complex)
    e1 = math.sqrt(p) * np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return KrausChannel(1, (e0, e1))


def decoherence_channel(params: NoiseParams, duration_ns: float) -> KrausChannel:
    """Amplitude damping followed by pure dephasing for duration_ns."""
    return compose(
        amplitude_damping(duration_ns, params.t1_us),
        pure_dephasing(duration_ns, params.t1_us, params.t2_us),
    )


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel equal to applying ``first`` and then ``second``."""
    if first.qubit_count != second.qubit_count:
        raise ValueError(
            f"cannot compose channels on {first.qubit_count} and "
            f"{second.qubit_count} qubits"
        )
    ops = tuple(f @ e for f in second.operators for e in first.operators)
    return KrausChannel(first.qubit_count, ops)


def validate_completeness(channel: KrausChannel) -> float:
    """Max-norm deviation of sum_k E_k^dagger E_k from the identity."""
    dim = 1 << channel.qubit_count
    acc = np.zeros((dim, dim), dtype=complex)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.abs(acc - np.eye(dim)).max())


def _check_trace_preserving(channel: KrausChannel) -> None:
    dev = validate_completeness(channel)
    if not dev <= COMPLETENESS_ATOL:
        raise ValueError(f"channel is not trace preserving: deviation {dev:.3e}")


def apply_channel(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dagger, for a matrix of the channel's size or a
    ``(..., d, d)`` stack of them.

    The terms are added in Kraus order, so a stack gives each matrix the
    bits it gets on its own.  Only the trailing shape is checked: the map is
    linear and also takes non-Hermitian matrices.  ``qpt_channel`` checks
    trace preservation once per channel.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << channel.qubit_count
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(
            f"state shape {rho.shape} does not match a {channel.qubit_count}-qubit channel"
        )
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out
