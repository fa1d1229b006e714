"""Chi-matrix process tomography by linear inversion.

The channel acting on a d-dimensional register (d = 2 or 4 here) is written
in a fixed operator set {E_m} as

    eps(rho) = sum_mn  chi_mn  E_m rho E_n^dagger .

The fixed set is I, X, -iY, Z for one qubit; for two qubits the sixteen
Kronecker products of those factors, ordered first factor slowest, are used,
so every operator carries a (-i) per Y factor and all sixteen matrices are
real.  The input basis is the d^2 matrix units |a><b| in row-major (a, b)
order.

Three linear factors take the measured weights to chi, the first two one
qubit at a time:

* D, the letters (``state_tomography._QUBIT_TABLE``): a qubit's state is
  sum_bo w[b,o] D[b,o], with w[b,o] its weight under letter b and outcome
  o divided by its setting's total.
* R, the recipes (``_RECIPES``): matrix units are not states, so each one
  is assembled from the physically preparable pure states

      |0>, |1>, |+> = H|0>, |r> = SH|0>   (per qubit),

  e.g.  |0><1| = |+><+| + i |r><r| - (1+i)/2 (|0><0| + |1><1|).  R[(a,b),p]
  is the coefficient of preparation p in |a><b|; a two-qubit unit's recipe
  is the product of its halves' (16 preparations overall).
* W, the Choi-to-chi map: the units' outputs form the Choi matrix

      C[(a,k),(b,l)] = eps(|a><b|)[k,l] = sum_mn chi_mn E_m[k,a] E_n[l,b]^* ,

  that is C = W chi W^dagger with W[(a,k),m] = E_m[k,a].  The fixed set is
  orthogonal, Tr(E_m^dagger E_n) = d delta_mn, so W^dagger W = d I and

      chi = W^dagger C W / d^2

  exactly (Nielsen & Chuang §8.4.2, Box 8.5).

On the state side, R^(x)n (``_UNIT_RECIPES``: one row per unit, in unit
order, one column per preparation, in label order) takes the preparations'
output states to the units' outputs in one product along the preparation
axis.  On the weights side, the per-qubit table U = (R (x) I_4) D,
U[(a,b,k,l),(p,b',o)] = R[(a,b),p] D[b',o,k,l], takes the normalised
weights there in one step: ``_unit_outputs`` applies it to a ``(4**n,
3**n, 2**n)`` stack, one matrix-vector product for one qubit, U @ M @ U^T
with the stack's axes regrouped qubit by qubit for two.
``chi_from_outputs`` applies W, the one inversion both pipelines share.

This is the paper's linear inversion chi = B^-1 lambda in closed form: with
lambda the row-major stack of the outputs and B[(j,k),(m,n)] entry k of
E_m rho_j E_n^dagger (rho_j the j-th unit, (j, k) and (m, n) flattened
row-major), the same orthogonality gives B^dagger B = d^2 I, so
B^-1 lambda = B^dagger lambda / d^2, whose entries are those of
W^dagger C W / d^2.  B itself is built only by the test oracles
(``beta_tensor`` in ``tests/oracles.py``), which tie both sides, followed
by the inversion, to it.  Since W / sqrt(d) is unitary, ``residual`` =
max|W chi W^dagger - C| is the round-off of the W map and back, not a
fit.

The operator sets, their labels (``OPERATOR_LABELS``), W, W^dagger, R^(x)n
and U are read-only module constants.  Nothing is verified at run time:
the tests assert that R rebuilds every unit from the preparation states and
that both operator sets are orthogonal with W^dagger W = d I
(``tests/test_process_tomography.py``).  ``tp_deviation`` reads the Choi
matrix W chi W^dagger back: sum_mn chi_mn E_n^dagger E_m is the transpose of
C traced over the output, sum_k C[(a,k),(b,k)].

``run_qpt`` tomographs one gate placement on a backend: 4 (or 16)
preparations x 3 (or 9) settings = 12 (or 144) circuit executions.  The
weights, each divided by its setting's total, pass through U and are
inverted, and chi is scored by the overlap fidelity

    F = Tr(chi_exp chi_th^dagger) / sqrt(Tr(chi_th^dagger chi_th))
                                  / sqrt(Tr(chi_exp^dagger chi_exp))

against the ideal gate's chi.  ``qpt_channel`` applies a Kraus channel's
superoperator, built as the backend builds each fused map, to the stack of
preparation states with the backend's one matmul, passes the outputs
through R^(x)n and inverts them, so the preparations, recipes and
inversion can be checked against channels whose chi is known; a 2-qubit
call takes about 58 us, against 87 us through a Kraus sum per operator
and R (x) I_4 (Kraus ranks 1-4, 2 vCPU VM, numpy 2.4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from .backend import BackendModel, TopologyError, _apply
from .channels import COMPLETENESS_ATOL, KrausChannel, _check_trace_preserving, _superoperator_matrix
from .operators import GATE_ARITY, dagger, kron, standard_gate
from .qasm import QUBIT_COUNT, Circuit, Gate
from .state_tomography import _QUBIT_TABLE, _collect, child_seeds, project_psd

__all__ = [
    "ChiMatrix",
    "QptResult",
    "OPERATOR_LABELS",
    "preparation_circuit",
    "PREPARATION_GATES",
    "chi_from_outputs",
    "theoretical_chi",
    "tp_deviation",
    "process_fidelity",
    "qpt_channel",
    "run_qpt",
    "project_result",
]


# --- fixed operator set -------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_SINGLE_FIXED = (
    ("I", np.eye(2, dtype=complex)),
    ("X", np.array([[0, 1], [1, 0]], dtype=complex)),
    ("-iY", np.array([[0, -1], [1, 0]], dtype=complex)),
    ("Z", np.array([[1, 0], [0, -1]], dtype=complex)),
)

_PHASE_PREFIX = {0: "", 1: "-i", 2: "-"}

_FIXED_PAIRS = tuple(itertools.product(_SINGLE_FIXED, repeat=2))

# per qubit count: the labels of {E_m}, a read-only (d^2, d, d) stack of the
# E_m in that order, and the read-only W[(a,k),m] = E_m[k,a], so that the
# Choi matrix is W chi W^dagger (W^dagger W = d I)
OPERATOR_LABELS: dict[int, tuple[str, ...]] = {
    1: tuple(label for label, _ in _SINGLE_FIXED),
    2: tuple(_PHASE_PREFIX[(la == "-iY") + (lb == "-iY")] + la.replace("-i", "") + lb.replace("-i", "")
             for (la, _), (lb, _) in _FIXED_PAIRS),
}
_OPERATORS: dict[int, np.ndarray] = {
    1: _read_only(np.array([op for _, op in _SINGLE_FIXED])),
    2: _read_only(np.array([kron(a, b) for (_, a), (_, b) in _FIXED_PAIRS])),
}
_CHOI_MAPS: dict[int, np.ndarray] = {
    n: _read_only(ops.transpose(2, 1, 0).reshape(len(ops), len(ops)))
    for n, ops in _OPERATORS.items()
}
# W^dagger, read-only, laid out as the transpose view of W's conjugate
_CHOI_ADJOINTS: dict[int, np.ndarray] = {n: _read_only(w.conj().T) for n, w in _CHOI_MAPS.items()}


# --- physical preparations ------------------------------------------------------

# per-qubit preparation alphabet: gates applied to |0>, listed in circuit order
PREPARATION_GATES: dict[str, tuple[str, ...]] = {
    "0": (),
    "1": ("x",),
    "p": ("h",),
    "r": ("h", "s"),
}

_GROUND = np.array([1.0, 0.0], dtype=complex)


def _product_state(label: str) -> np.ndarray:
    """Each qubit's preparation gates applied to |0>, as its circuit applies them."""
    ket = reduce(np.kron, (reduce(lambda k, g: standard_gate(g) @ k, PREPARATION_GATES[ch], _GROUND)
                           for ch in label))
    return np.outer(ket, ket.conj())


# the 4 one-qubit and 16 two-qubit preparations, built once: per qubit count
# the sorted labels (the order of run_qpt's preparations) and a read-only
# stack of their states in that order
_PREP_LABELS: dict[int, tuple[str, ...]] = {
    n: tuple(map("".join, itertools.product(PREPARATION_GATES, repeat=n))) for n in (1, 2)
}
_PREP_STACKS: dict[int, np.ndarray] = {
    n: _read_only(np.array([_product_state(label) for label in labels]))
    for n, labels in _PREP_LABELS.items()
}


def preparation_circuit(label: str, lines: tuple[int, ...], qubit_count: int = QUBIT_COUNT) -> Circuit:
    """Circuit preparing ``label`` on ``lines`` (label char 0 -> lines[0])."""
    if len(label) != len(lines):
        raise ValueError(f"label {label!r} does not match {len(lines)} line(s)")
    gates = []
    for ch, line in zip(label, lines):
        if ch not in PREPARATION_GATES:
            raise ValueError(f"bad preparation label {label!r}")
        gates.extend(Gate(g, (line,)) for g in PREPARATION_GATES[ch])
    return Circuit(qubit_count, 0, tuple(gates))


# R[(a, b), p]: the one-qubit matrix unit |a><b|, at row 2a + b, as a
# combination of the preparations 0, 1, p, r
_RECIPES = _read_only(np.array([
    [1, 0, 0, 0],
    [-(1 + 1j) / 2, -(1 + 1j) / 2, 1, 1j],
    [-(1 - 1j) / 2, -(1 - 1j) / 2, 1, -1j],
    [0, 1, 0, 0],
]))

# the state side of the module docstring, per qubit count: R^(x)n with its
# rows in unit order, R[(a, b), p] at row a d + b and column p in label order
_UNIT_RECIPES: dict[int, np.ndarray] = {
    1: _RECIPES,
    2: _read_only(np.kron(_RECIPES, _RECIPES).reshape(2, 2, 2, 2, 16)
                  .transpose(0, 2, 1, 3, 4).reshape(16, 16)),
}

# the weights side U[(a,b,k,l), (p,letter,outcome)] = R[(a,b),p] D[letter,outcome,k,l],
# the product (R (x) I_4) D
_WEIGHT_TABLE = _read_only((np.kron(_RECIPES, np.eye(4)).reshape(16, 4, 4)
                            @ _QUBIT_TABLE.reshape(6, 4).T).reshape(16, 24))


def _unit_outputs(normalised: np.ndarray) -> np.ndarray:
    """The matrix units' outputs, a ``(4**n, 2**n, 2**n)`` stack, of a
    ``(4**n, 3**n, 2**n)`` stack of normalised weights (p, setting, outcome)
    whose first axis runs over the preparations in label order, through U."""
    if len(normalised) == 4:
        return (_WEIGHT_TABLE @ normalised.reshape(-1)).reshape(4, 2, 2)
    # M[(p1,s1,o1), (p2,s2,o2)]: the stack's axes regrouped qubit by qubit
    m = normalised.reshape(4, 4, 3, 3, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(24, 24)
    # X[(a1,b1,k1,l1), (a2,b2,k2,l2)] back to unit (a1 a2, b1 b2), entry (k1 k2, l1 l2)
    x = (_WEIGHT_TABLE @ m @ _WEIGHT_TABLE.T).reshape((2,) * 8)
    return x.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 4, 4)


# --- the inversion ---------------------------------------------------------------


@dataclass(frozen=True)
class ChiMatrix:
    """Hermitised process matrix over a fixed operator set."""

    qubit_count: int
    matrix: np.ndarray
    residual: float = 0.0

    def __post_init__(self) -> None:
        if self.qubit_count not in OPERATOR_LABELS:
            raise ValueError(f"fixed operator sets cover 1 or 2 qubits, got {self.qubit_count}")
        m = np.array(self.matrix, dtype=complex)
        d2 = (1 << self.qubit_count) ** 2
        if m.shape != (d2, d2):
            raise ValueError(f"chi shape {m.shape} does not match {d2}x{d2}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def chi_from_outputs(outputs, qubit_count: int) -> ChiMatrix:
    """chi of the channel whose outputs eps(|a><b|) are given in row-major (a, b) order.

    ``outputs`` is a ``(d^2, d, d)`` stack or a list of d x d matrices.
    Every entry must be finite, and trace preservation fixes
    Tr(eps(|a><b|)) = delta_ab; both are checked once over the whole stack
    (a tomographic reconstruction's trace is 1 up to rounding, its Z...Z
    setting's normalised total), and only a stack that fails is scanned
    output by output.  A wrong count is reported first, then the first
    output of a wrong shape, then the first output that is non-finite or
    off in trace (non-finite if it is both).
    chi = W^dagger C W / d^2 as in the module docstring; ``residual`` is
    max|W chi W^dagger - C| before Hermitisation, the entries of
    B chi - lambda in another order.
    """
    w = _CHOI_MAPS.get(qubit_count)
    if w is None:
        raise ValueError(f"fixed operator sets cover 1 or 2 qubits, got {qubit_count}")
    d = 1 << qubit_count
    d2 = d * d
    if len(outputs) != d2:
        raise ValueError(f"expected {d2} channel outputs, got {len(outputs)}")
    try:
        stack = np.asarray(outputs, dtype=complex)
    except ValueError:  # a ragged list
        stack = None
    if stack is None or stack.shape[1:] != (d, d):
        j, shape = next((j, np.shape(o)) for j, o in enumerate(outputs) if np.shape(o) != (d, d))
        raise ValueError(f"output {j} has shape {shape}, expected {(d, d)}")
    expected = np.eye(d).reshape(d2)  # Tr |a><b| = delta_ab, at j = a d + b
    # one test of the whole stack; only a stack that fails it is scanned
    # output by output, for the first one to name
    if not (np.isfinite(stack).all()
            and np.abs(stack.trace(axis1=1, axis2=2) - expected).max() <= 1e-8):
        finite = np.isfinite(stack).all(axis=(1, 2))
        with np.errstate(invalid="ignore"):  # a non-finite output's trace is never reported
            traces = np.trace(stack, axis1=1, axis2=2)
        j = int((~finite | (np.abs(traces - expected) > 1e-8)).argmax())
        if not finite[j]:
            raise ValueError(f"output {j} has non-finite entries")
        raise ValueError(f"output {j}: trace {complex(traces[j]):.6g} differs from "
                         f"Tr(rho_j) = {complex(expected[j]):.6g}")
    choi = stack.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
    chi = _CHOI_ADJOINTS[qubit_count] @ choi @ w / d2
    residual = float(np.abs(w @ chi @ w.conj().T - choi).max())
    return ChiMatrix(qubit_count, (chi + chi.conj().T) / 2.0, residual)


def theoretical_chi(gate) -> ChiMatrix:
    """Rank-one chi of an ideal unitary (gate name or explicit matrix).

    U = sum_m c_m E_m with c_m = Tr(E_m^dagger U) / d by orthogonality.  A
    matrix must be 2x2 or 4x4, finite, and unitary to the 1e-9 that
    ``qpt_channel`` allows a channel's trace preservation; anything else
    raises ``ValueError``.  A gate name's chi is computed once per process
    and shared; ``ChiMatrix`` is frozen and its matrix read-only.
    """
    if isinstance(gate, str):
        return _named_chi(gate)
    u = np.asarray(gate, dtype=complex)
    n = len(u).bit_length() - 1 if u.ndim == 2 else 0
    ops = _OPERATORS.get(n)
    if ops is None or u.shape != ops.shape[1:]:
        raise ValueError(f"unitary shape {u.shape} does not match the 1- or 2-qubit operator set")
    if not np.isfinite(u).all():
        raise ValueError("unitary has non-finite entries")
    dev = float(np.abs(u.conj().T @ u - np.eye(len(u))).max())
    if dev > COMPLETENESS_ATOL:
        raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
    coeffs = np.array([np.trace(dagger(em) @ u) for em in ops]) / u.shape[0]
    chi = np.outer(coeffs, coeffs.conj())
    return ChiMatrix(n, (chi + chi.conj().T) / 2.0, 0.0)


@lru_cache(maxsize=None)
def _named_chi(name: str) -> ChiMatrix:
    return theoretical_chi(standard_gate(name))


def tp_deviation(chi: ChiMatrix) -> float:
    """Max-norm deviation of sum_mn chi_mn E_n^dagger E_m from the identity.

    Zero exactly when the reconstructed channel is trace preserving.  That
    sum is the transpose of the Choi matrix traced over the output,
    sum_k C[a,k,b,k], which is what is compared with the identity.
    """
    w = _CHOI_MAPS[chi.qubit_count]
    d = 1 << chi.qubit_count
    choi = (w @ chi.matrix @ w.conj().T).reshape(d, d, d, d)  # C[a,k,b,l] = eps(|a><b|)[k,l]
    traced = np.trace(choi, axis1=1, axis2=3)
    return float(np.abs(traced - np.eye(d)).max())


def _chi_array(chi) -> np.ndarray:
    return chi.matrix if isinstance(chi, ChiMatrix) else np.asarray(chi, dtype=complex)


def process_fidelity(chi_theory, chi_experiment) -> float:
    """Overlap fidelity Tr(chi_e chi_t^dag) / (||chi_t||_F ||chi_e||_F).

    This is the paper's figure: the cosine between the two chi matrices.
    It is not the process (entanglement) fidelity F_e = Tr(chi_e chi_t^dag)
    of a trace-1 chi, nor the average gate fidelity (d F_e + 1)/(d + 1).
    For a pure target (a unitary gate, ||chi_t||_F = 1) it equals
    F_e / sqrt(Tr(chi_e^2)): the norm in the denominator shrinks as the
    error grows, so incoherent error enters only at second order: chi_e =
    (1 - p) chi_t + p rest, rest a trace-1 chi orthogonal to chi_t, has
    F_e = 1 - p but an overlap infidelity of O(p^2).  Exact ``h`` on qx4
    line 0 reads 1 - F = 6.1e-5 where 1 - F_e = 1.2e-2.
    """
    a = _chi_array(chi_theory)
    b = _chi_array(chi_experiment)
    if a.shape != b.shape:
        raise ValueError(f"chi shape mismatch {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cannot compute fidelity of a chi matrix with non-finite entries")
    na = math.sqrt(abs(np.trace(a.conj().T @ a)))
    nb = math.sqrt(abs(np.trace(b.conj().T @ b)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot compute fidelity against a zero chi matrix")
    value = np.trace(b @ a.conj().T) / (na * nb)
    if abs(value.imag) > 1e-9:
        raise ValueError(f"fidelity has a non-trivial imaginary part {value.imag:.3e}")
    return float(value.real)


# --- pipelines -------------------------------------------------------------------


def qpt_channel(channel: KrausChannel) -> ChiMatrix:
    """Tomograph a Kraus channel exactly (no circuits, no sampling).

    Mirrors the measurement pipeline: the stack of physical preparation
    states is pushed through the channel's superoperator sum_k K_k (x) K_k^*
    by ``backend._apply``, and R^(x)n takes the outputs to the matrix units,
    which go into the same inversion as ``run_qpt``.  (An exact state needs
    no letter factor D, so U is not used.)  Trace preservation is checked
    once per call, to 1e-9, and the map is not certified again: a Kraus sum
    of finite operators maps density matrices to density matrices, so the
    outputs are not checked again as states; ``chi_from_outputs`` checks
    that each is finite and has its trace.
    """
    n = channel.qubit_count
    if n not in (1, 2):
        raise ValueError(f"process tomography covers 1 or 2 qubits, got {n}")
    _check_trace_preserving(channel)
    preps = _PREP_STACKS[n].reshape(4**n, -1)
    outputs, _ = _apply(_superoperator_matrix(channel.operators), preps,
                        tuple(range(2 * n)), tuple(range(n)), n)
    return chi_from_outputs((_UNIT_RECIPES[n] @ outputs).reshape(4**n, 1 << n, 1 << n), n)


@dataclass(frozen=True)
class QptResult:
    """Everything one tomography run produced."""

    gate: str
    lines: tuple[int, ...]
    backend_name: str
    noise: bool
    shots: int | None
    seed: int | None
    executions: int
    chi: ChiMatrix
    chi_theory: ChiMatrix
    fidelity: float
    tp_deviation: float
    psd_projected: bool = False

    @property
    def residual(self) -> float:
        return self.chi.residual


def project_result(result: QptResult) -> QptResult:
    """PSD-project the experimental chi and recompute the derived figures."""
    raw = result.chi
    chi = ChiMatrix(raw.qubit_count, project_psd(raw.matrix), raw.residual)
    return replace(
        result,
        chi=chi,
        fidelity=process_fidelity(result.chi_theory, chi),
        tp_deviation=tp_deviation(chi),
        psd_projected=True,
    )


def run_qpt(
    gate: str,
    lines: tuple[int, ...] | list[int],
    backend: BackendModel,
    shots: int | None = None,
    seed: int | None = None,
) -> QptResult:
    """Full process tomography of one gate placement on a backend.

    ``lines`` lists the tomographed qubits most significant first; for cx
    that is (control, target) and the pair must sit on the backend's
    coupling map.  ``shots=None`` runs on exact outcome probabilities and
    derives no seeds; otherwise every tomography circuit is sampled with
    ``shots`` shots using per-circuit seeds derived from ``seed``.  A line
    that is no integer (a numpy one is, a bool or a float is not) raises
    ``ValueError``.
    """
    lines = tuple(lines)
    for q in lines:
        if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
            raise ValueError(f"lines must be integers, got {lines}")
    lines = tuple(map(int, lines))
    arity = GATE_ARITY.get(gate)
    if arity is None:
        raise ValueError(f"unknown gate {gate!r}")
    if len(lines) != arity:
        raise ValueError(f"gate {gate!r} needs {arity} line(s), got {lines}")
    if len(set(lines)) != len(lines):
        raise ValueError(f"duplicate lines {lines}")
    for q in lines:
        if not 0 <= q < QUBIT_COUNT:
            raise ValueError(f"line {q} out of range for a {QUBIT_COUNT}-qubit backend")
    if gate == "cx" and not backend.coupling.allows(*lines):
        raise TopologyError(
            f"cx {lines[0]}>{lines[1]} not in the {backend.name} coupling map "
            f"({backend.coupling.to_text()})"
        )

    labels = _PREP_LABELS[arity]
    preps = [preparation_circuit(label, lines).extended(Gate(gate, lines)) for label in labels]
    seeds = None if shots is None else child_seeds(seed, len(labels))
    weights, totals, _ = _collect(preps, backend, lines, shots, seeds)
    executions = weights.shape[0] * weights.shape[1]

    chi = chi_from_outputs(_unit_outputs(weights / totals), arity)
    theory = theoretical_chi(gate)
    fidelity = process_fidelity(theory, chi)
    return QptResult(
        gate=gate,
        lines=lines,
        backend_name=backend.name,
        noise=backend.noise_enabled,
        shots=shots,
        seed=seed,
        executions=executions,
        chi=chi,
        chi_theory=theory,
        fidelity=fidelity,
        tp_deviation=tp_deviation(chi),
    )
