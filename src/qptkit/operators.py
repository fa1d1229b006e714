"""Dense operator algebra for few-qubit simulation.

Conventions used throughout the package (stated once, here):

* Qubit ordering is little-endian: qubit ``q[i]`` is bit ``i`` of a
  computational-basis index, so ``q[0]`` is the least significant bit and a
  basis ket reads ``|q[n-1] ... q[1] q[0]>``.
* Target lists, operator labels, Pauli strings and measurement-setting tags
  are written most-significant qubit first.  A cx on targets ``(1, 0)``
  puts the control on ``q[1]`` (the high bit) and the target on ``q[0]``;
  the Pauli string ``"ZX"`` means Z on the first-listed (high) qubit.
* Classical bitstrings are written with the highest classical index
  leftmost, matching the ket convention above; an outcome index is that
  bitstring read as binary.
* Matrices are plain ``numpy.ndarray`` with dtype complex128.  Registers stay
  at or below five qubits, so everything is dense and exact.

Gate matrices follow the textbook global-phase conventions (``H|0> = |+>``,
``T = diag(1, exp(i pi/4))``, CX written control-first).  Process matrices are
sensitive to these phases in their off-diagonal entries, so the conventions
are load-bearing, not cosmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GATES",
    "GATE_ARITY",
    "standard_gate",
    "dagger",
    "kron",
    "check_density_matrix",
    "num_qubits",
]


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


_H = 1.0 / math.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "id": _const([[1, 0], [0, 1]]),
    "x": _const([[0, 1], [1, 0]]),
    "y": _const([[0, -1j], [1j, 0]]),
    "z": _const([[1, 0], [0, -1]]),
    "h": _const([[_H, _H], [_H, -_H]]),
    "s": _const([[1, 0], [0, 1j]]),
    "sdg": _const([[1, 0], [0, -1j]]),
    "t": _const([[1, 0], [0, np.exp(1j * np.pi / 4)]]),
    "tdg": _const([[1, 0], [0, np.exp(-1j * np.pi / 4)]]),
    # control is the first (most significant) qubit: swaps |10> and |11>
    "cx": _const([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}

GATE_ARITY: dict[str, int] = {name: (2 if name == "cx" else 1) for name in GATES}


def standard_gate(name: str) -> np.ndarray:
    """Return the matrix for a named gate (read-only view)."""
    try:
        return GATES[name]
    except KeyError:
        raise ValueError(
            f"unknown gate {name!r}; expected one of {sorted(GATES)}"
        ) from None


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor is the more significant one."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def num_qubits(matrix: np.ndarray) -> int:
    """Qubit count of a square matrix whose dimension is a power of two."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def check_density_matrix(rho: np.ndarray, *, atol: float = 1e-9) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within atol."""
    rho = np.asarray(rho)
    num_qubits(rho)
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix contains non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > atol:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace {tr:.12g} differs from 1")
    lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min()
    if lo < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
