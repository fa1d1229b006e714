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
    if matrix.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return _square_qubits(matrix.shape)


def _square_qubits(shape: tuple[int, ...]) -> int:
    """Qubit count of the trailing (d, d) of a shape, d a power of two."""
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    dim = shape[-1]
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def check_density_matrix(rho: np.ndarray, *, atol: float = 1e-9) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and PSD within atol.

    ``rho`` is one matrix or a stack ``(..., d, d)`` of them.  Each matrix is
    checked for finite entries, Hermiticity, trace and positive
    semidefiniteness, in that order; a stack is checked at once, and the
    message names the first bad matrix by its index in the flattened stack
    (``matrix 3: ...``).

    The PSD test is one Cholesky factorisation of the stack shifted by atol,
    ``(rho + rho^dagger)/2 + atol*I``, which exists only when every
    eigenvalue of the symmetric part exceeds -atol.  When it fails, the
    eigenvalues (``eigvalsh``) give the verdict and the message, so a matrix
    is rejected exactly when its smallest eigenvalue lies below -atol.

    A stack first meets a certificate that passes only what the full scan
    passes: every real and imaginary part of ``rho - rho^dagger`` within
    atol/2 (so every deviation is within atol/sqrt(2), and none is NaN or
    inf), every trace within atol of 1, and that Cholesky factorisation.
    The full scan runs only when the certificate fails, and it alone words
    the message.
    """
    rho = np.asarray(rho, dtype=complex)
    _square_qubits(rho.shape)
    stack = rho.reshape((-1,) + rho.shape[-2:])
    found = _first_violation(stack, atol)
    if found is not None:
        index, message = found
        raise ValueError(message if rho.ndim == 2 else f"matrix {index}: {message}")


def _certified(stack: np.ndarray, atol: float, positive: bool = True) -> bool:
    """True only for a (c, d, d) stack ``_first_violation`` finds no fault in:
    the certificate of ``check_density_matrix``.  With ``positive`` False,
    only its first half, which passes only matrices the full scan finds
    Hermitian and unit-trace: every real and imaginary part of ``rho -
    rho^dagger`` within atol/2 and every trace within atol of 1."""
    # each matrix's adjoint is conjugated into the one work buffer, which then
    # takes the difference and later the sum in place
    adjoint = stack.swapaxes(1, 2)
    work = np.conjugate(adjoint, out=np.empty(stack.shape, dtype=complex))
    np.subtract(stack, work, out=work)
    parts = work.view(float)
    # a non-finite entry leaves a NaN or inf in the deviation, which fails here
    if not np.abs(parts, out=parts).max(initial=0.0) <= atol / 2:
        return False
    if not (np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0) <= atol).all():
        return False
    if not positive:
        return True
    # the shifted symmetric part the full scan factorises, but for the sign of
    # a zero entry (its division by 2+0j and its added atol*I may turn -0.0
    # into 0.0), which no test of a Cholesky factorisation can tell apart
    np.add(stack, np.conjugate(adjoint, out=work), out=work)
    parts *= 0.5
    d = stack.shape[-1]
    work.reshape(-1, d * d)[:, ::d + 1] += atol
    try:
        np.linalg.cholesky(work)
    except np.linalg.LinAlgError:
        return False
    return True


def _first_violation(stack: np.ndarray, atol: float) -> tuple[int, str] | None:
    """Index and message of the first matrix of a (c, d, d) stack that is no
    density matrix, or None."""
    if _certified(stack, atol):
        return None
    finite = np.isfinite(stack).all(axis=(1, 2))
    adjoint = stack.conj().swapaxes(1, 2)
    herm = np.abs(stack - adjoint).max(axis=(1, 2))
    trace = np.trace(stack, axis1=1, axis2=2)
    bad = np.flatnonzero(~finite | (herm > atol) | (np.abs(trace - 1.0) > atol))
    first = int(bad[0]) if bad.size else len(stack)
    if first:
        sym = (stack[:first] + adjoint[:first]) / 2.0
        try:
            np.linalg.cholesky(sym + atol * np.eye(stack.shape[-1]))
        except np.linalg.LinAlgError:
            lowest = np.linalg.eigvalsh(sym).min(axis=1)
            negative = np.flatnonzero(lowest < -atol)
            if negative.size:
                i = int(negative[0])
                return i, f"density matrix has negative eigenvalue {lowest[i]:.3e}"
    if first == len(stack):
        return None
    if not finite[first]:
        return first, "density matrix contains non-finite entries"
    if herm[first] > atol:
        return first, f"density matrix not Hermitian: deviation {herm[first]:.3e}"
    return first, f"density matrix trace {trace[first]:.12g} differs from 1"
