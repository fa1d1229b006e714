"""Dense reference constructions that the tests check the package against.

None of these is on the tomography pipeline: the backend evolves only the
active qubits with cached superoperators, state tomography contracts its
weights one qubit at a time, and chi is inverted in closed form.  Each
function here builds the same object the slow, obvious way, on the
conventions stated in ``qptkit.operators``; ``per_label_qpt`` is process tomography run one
preparation at a time, as ``run_qpt`` did before it ran a placement as one
stream, and ``per_label_channel_chi`` is ``qpt_channel`` one preparation at a
time; both reconstruct, combine and invert as the package did before it
worked on stacks and per-qubit tables (``kraus_apply``, ``combine_by_label``,
``per_output_chi``).
``append_setting`` builds one setting circuit on its own, and
``setting_circuits`` every setting's circuit that way.  ``distribution`` and
``sample`` read out one circuit's final state, evolved alone as the backend
evolves every circuit, with a sequential total and ``default_rng``, where
the backend reads rows through its batched readout, one per circuit in
``execute_many`` and a group's settings at once in tomography; ``sample``
folds the readout flips in with ``flipped``, which ``flip_matrix`` writes as
a Kronecker product.  ``sample_settings`` draws a preparation's settings
from their exact weights as tomography does, each setting from its own
PCG64 on its 4 words of numpy's expansion of the preparation's seed.
``pauli_string_matrix`` is a Pauli string as a dense Kronecker product, the
reference for state tomography: ``dense_state`` is the dense sum
2^-n sum_P <P> P over the Z-filled estimates.
``matrix_unit_basis``,
``preparation_state``, ``preparation_recipes`` and ``chi_to_channel`` are the
input basis, single preparations, each unit's recipe terms and chi as a map,
which the package holds only as stacks, per-qubit tables and a Choi map.
``six_product_contract`` is the state contraction as one multiply-add per
``_QUBIT_TABLE`` entry and qubit, and ``unique_write_dataset`` the dataset
text as one join per setting, as the package computed both before it built
each qubit's 2x2 blocks directly and the text in one join.
``state_table_channel_chi`` is ``qpt_channel`` as it ran before it applied
the channel's superoperator: one Kraus sum over the stack of preparations
(``apply_channel``), then the per-qubit table Rs = R (x) I_4 through the
stack's axes regrouped qubit by qubit.  ``loop_completeness`` is
``validate_completeness`` as one product per Kraus operator.
"""

from __future__ import annotations

import itertools
import operator
from functools import reduce

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from qptkit.backend import _outcome_index
from qptkit.channels import COMPLETENESS_ATOL, KrausChannel, apply_channel
from qptkit.operators import GATE_ARITY, GATES, kron, num_qubits
from qptkit.process_tomography import (
    _CHOI_MAPS,
    _OPERATORS,
    _PREP_LABELS,
    _PREP_STACKS,
    _RECIPES,
    ChiMatrix,
    chi_from_outputs,
    preparation_circuit,
    process_fidelity,
    theoretical_chi,
    tp_deviation,
)
from qptkit.qasm import Circuit, Gate, Measure
from qptkit.state_tomography import (
    _QUBIT_TABLE,
    collect_dataset,
    qst_settings,
    reconstruct_states,
)

SINGLE_QUBIT_GATES: tuple[str, ...] = tuple(
    name for name, arity in GATE_ARITY.items() if arity == 1
)


def outcome_dict(weights: np.ndarray) -> dict:
    """An outcome array as ``{bitstring: value}``, zeros left out, in index order.

    The bitstring of index i over m classical bits is ``format(i, f"0{m}b")``,
    the form outcomes took before they were held as arrays.
    """
    m = len(weights).bit_length() - 1
    return {format(i, f"0{m}b"): w for i, w in enumerate(weights.tolist()) if w}


def append_setting(circuit: Circuit, setting: str, qubits=None) -> Circuit:
    """One setting circuit: ``circuit``, then the setting's basis rotations
    (X after an H, Y after Sdg then H) and measures, as ``collect_weights``
    builds it.  ``qubits`` lists the measured qubits most significant first
    and defaults to the whole register."""
    if qubits is None:
        qubits = range(circuit.qubit_count - 1, -1, -1)
    qubits = tuple(qubits)
    rotations = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}
    extra = [Gate(g, (q,)) for basis, q in zip(setting, qubits, strict=True)
             for g in rotations[basis]]
    extra += [Measure(q, len(qubits) - 1 - p) for p, q in enumerate(qubits)]
    return circuit.extended(*extra, classical_count=len(qubits))


def setting_circuits(qubits: tuple[int, ...], qubit_count: int) -> tuple[Circuit, ...]:
    """Every setting's circuit on ``qubits`` of a ``qubit_count``-qubit
    register in ``qst_settings`` order, the basis rotations and then the
    measures, each built on its own by ``append_setting``."""
    return tuple(append_setting(Circuit(qubit_count, 0), tag, qubits)
                 for tag in qst_settings(len(qubits)))


def distribution(reduced: np.ndarray, active: tuple[int, ...],
                 circuit: Circuit) -> np.ndarray | None:
    """Read-only outcome weights by outcome index, from the active-register diagonal.

    Local indices run in the same order as the whole-register indices they
    stand for, so the weights accumulate in whole-register order.  The
    normalising total adds the outcomes in the order of their first nonzero
    weight, one sequential addition at a time.  None when the circuit
    measures nothing.
    """
    measures = circuit.measurements
    if not measures:
        return None
    index = _outcome_index(active, measures)
    weights = np.clip(reduced.diagonal().real, 0.0, None)
    probs = np.bincount(index, weights=weights, minlength=1 << circuit.classical_count)
    order = list(dict.fromkeys(index[weights != 0.0].tolist()))
    probs /= reduce(operator.add, probs[order].tolist(), 0.0)
    probs.setflags(write=False)
    return probs


def flip_matrix(circuit: Circuit, backend) -> np.ndarray:
    """The readout flip map over outcome indices: the Kronecker product of
    F_b = [[1-f, f], [f, 1-f]] over the classical bits, bit m-1 first, with
    f the flip probability of the qubit measured into bit b (0 if none)."""
    flip = {meas.clbit: backend.qubits[meas.qubit].readout_flip_prob
            for meas in circuit.measurements}
    factors = [np.array([[1.0 - f, f], [f, 1.0 - f]])
               for f in (flip.get(b, 0.0) for b in reversed(range(circuit.classical_count)))]
    return reduce(np.kron, factors, np.eye(1))


def flipped(probabilities: np.ndarray, circuit: Circuit, backend) -> np.ndarray:
    """The outcome weights with each measured bit's readout flip folded in,
    one outcome at a time and one bit at a time in increasing classical-bit
    order; ``flip_matrix(circuit, backend) @ probabilities`` up to rounding."""
    p = probabilities.tolist()
    for meas in sorted(circuit.measurements, key=lambda mm: mm.clbit):
        f = backend.qubits[meas.qubit].readout_flip_prob
        if f > 0.0:
            p = [(1.0 - f) * p[i] + f * p[i ^ (1 << meas.clbit)] for i in range(len(p))]
    return np.array(p)


def sample(probabilities: np.ndarray, circuit: Circuit, backend,
           shots: int, seed: int | None) -> np.ndarray:
    """Read-only counts of one circuit: one multinomial draw over its flipped
    outcome weights from its own generator."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, flipped(probabilities, circuit, backend)).astype(np.intp)
    counts.setflags(write=False)
    return counts


class _Handed(ISeedSequence):
    """The 4 uint64 words PCG64 asks its seed sequence for, handed over as given."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def sample_settings(probabilities: np.ndarray, circuit: Circuit, backend,
                    shots: int, seed: int | None) -> np.ndarray:
    """Read-only counts of one preparation's settings, from their ``(S,
    2**m)`` exact outcome weights, all read out by ``circuit``'s measures:
    row s is one multinomial draw over its flipped weights from its own
    PCG64, seeded with words 4s..4s+3 of numpy's
    ``SeedSequence(seed).generate_state(4 * S, np.uint64)``."""
    words = np.random.SeedSequence(seed).generate_state(4 * len(probabilities), np.uint64)
    counts = np.array([np.random.Generator(np.random.PCG64(_Handed(words[4 * s:4 * s + 4])))
                       .multinomial(shots, flipped(p, circuit, backend))
                       for s, p in enumerate(probabilities)], dtype=np.intp)
    counts.setflags(write=False)
    return counts


def density_violation(rho: np.ndarray, atol: float = 1e-9) -> str | None:
    """What is wrong with one matrix as a density matrix, or None: finite
    entries, Hermiticity, trace, then the smallest eigenvalue by ``eigvalsh``,
    checked in that order as ``check_density_matrix`` did for one matrix."""
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        return "density matrix contains non-finite entries"
    herm = np.abs(rho - rho.conj().T).max()
    if herm > atol:
        return f"density matrix not Hermitian: deviation {herm:.3e}"
    tr = np.trace(rho)
    if abs(tr - 1.0) > atol:
        return f"density matrix trace {tr:.12g} differs from 1"
    lo = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min()
    if lo < -atol:
        return f"density matrix has negative eigenvalue {lo:.3e}"
    return None


PAULIS: dict[str, np.ndarray] = {
    "I": GATES["id"],
    "X": GATES["x"],
    "Y": GATES["y"],
    "Z": GATES["z"],
}


def embed_gate(gate: np.ndarray, targets: list[int] | tuple[int, ...], qubit_count: int) -> np.ndarray:
    """Lift a k-qubit operator onto an n-qubit register.

    ``targets[0]`` carries the most significant bit of the operator's own
    index; identity acts on every qubit not listed.  Works for any matrix,
    not just unitaries, so Kraus operators can be embedded the same way.

    Parameters
    ----------
    gate : (2**k, 2**k) array
    targets : distinct qubit indices, most significant first
    qubit_count : size n of the full register

    Returns
    -------
    (2**n, 2**n) complex array
    """
    gate = np.asarray(gate, dtype=complex)
    targets = tuple(targets)
    k = len(targets)
    if gate.shape != (1 << k, 1 << k):
        raise ValueError(
            f"operator shape {gate.shape} does not match {k} target qubit(s)"
        )
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits in {targets}")
    for t in targets:
        if not 0 <= t < qubit_count:
            raise ValueError(
                f"target qubit {t} out of range for a {qubit_count}-qubit register"
            )

    dim = 1 << qubit_count
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        loc = 0
        for t in targets:
            loc = (loc << 1) | ((col >> t) & 1)
        base = col
        for t in targets:
            base &= ~(1 << t)
        for out in range(1 << k):
            row = base
            for p, t in enumerate(targets):
                if (out >> (k - 1 - p)) & 1:
                    row |= 1 << t
            full[row, col] = gate[out, loc]
    return full


def pauli_string_matrix(string: str) -> np.ndarray:
    """Matrix of a Pauli string such as ``"ZX"`` (first character = high qubit)."""
    if not string:
        raise ValueError("empty Pauli string")
    try:
        factors = [PAULIS[ch] for ch in string]
    except KeyError as exc:
        raise ValueError(f"invalid Pauli letter {exc.args[0]!r} in {string!r}") from None
    return reduce(kron, factors)


def identity_channel(qubit_count: int) -> KrausChannel:
    return KrausChannel(qubit_count, (np.eye(1 << qubit_count, dtype=complex),))


def unitary_as_channel(u: np.ndarray) -> KrausChannel:
    """Wrap a unitary as a single-operator channel (unitarity is checked)."""
    u = np.asarray(u, dtype=complex)
    n = num_qubits(u)
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > COMPLETENESS_ATOL:
        raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
    return KrausChannel(n, (u,))


def embed_channel(channel: KrausChannel, targets: list[int] | tuple[int, ...], qubit_count: int) -> KrausChannel:
    """Embed every Kraus operator onto a larger register (identity elsewhere)."""
    ops = tuple(embed_gate(op, targets, qubit_count) for op in channel.operators)
    return KrausChannel(qubit_count, ops)


def matrix_unit_basis(qubit_count: int) -> tuple[np.ndarray, ...]:
    """Read-only matrix units |a><b| in row-major (a, b) order."""
    d = 1 << qubit_count
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    units.setflags(write=False)
    return tuple(units)


_PREP_STATES: dict[str, np.ndarray] = {
    label: state for n in (1, 2) for label, state in zip(_PREP_LABELS[n], _PREP_STACKS[n])
}


def preparation_state(label: str) -> np.ndarray:
    """Read-only state of a one- or two-qubit preparation, e.g. ``"p0"`` (high qubit first)."""
    try:
        return _PREP_STATES[label]
    except KeyError:
        raise ValueError(f"bad preparation label {label!r}") from None


_HALF_PLUS = (1.0 + 1.0j) / 2.0
_HALF_MINUS = (1.0 - 1.0j) / 2.0

# the recipe of each one-qubit matrix unit |a><b|, at index 2a + b: its
# (coefficient, preparation) terms
_SINGLE_RECIPES: tuple[tuple[tuple[complex, str], ...], ...] = (
    ((1.0 + 0.0j, "0"),),
    ((1.0 + 0.0j, "p"), (1.0j, "r"), (-_HALF_PLUS, "0"), (-_HALF_PLUS, "1")),
    ((1.0 + 0.0j, "p"), (-1.0j, "r"), (-_HALF_MINUS, "0"), (-_HALF_MINUS, "1")),
    ((1.0 + 0.0j, "1"),),
)


def preparation_recipes(qubit_count: int) -> tuple[tuple[tuple[complex, str], ...], ...]:
    """The (coefficient, preparation) terms of every matrix unit, in basis
    order: the one-qubit recipes, and for two qubits the products of the
    recipes of each unit's high and low halves, high terms outer."""
    if qubit_count == 1:
        return _SINGLE_RECIPES
    return tuple(
        tuple((ch * cl, lh + ll)
              for ch, lh in _SINGLE_RECIPES[(a >> 1) * 2 + (b >> 1)]
              for cl, ll in _SINGLE_RECIPES[(a & 1) * 2 + (b & 1)])
        for a, b in itertools.product(range(4), repeat=2)
    )


def dense_state(weights: np.ndarray) -> np.ndarray:
    """The state of one ``(3**n, 2**n)`` dataset as the dense sum
    2^-n sum_P <P> P, each <P> read off P's Z-filled setting: outcome i
    signed by the parity of its bits at P's non-I positions, over the
    setting's total."""
    n = weights.shape[1].bit_length() - 1
    row = {tag: r for r, tag in enumerate(qst_settings(n))}
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for pauli in map("".join, itertools.product("IXYZ", repeat=n)):
        mask = int("".join("0" if ch == "I" else "1" for ch in pauli), 2)
        signs = np.array([(-1) ** bin(mask & i).count("1") for i in range(1 << n)])
        setting = weights[row[pauli.replace("I", "Z")]]
        rho += (signs @ setting) / setting.sum() * pauli_string_matrix(pauli)
    return rho / (1 << n)


def chi_to_channel(chi: ChiMatrix):
    """Return the linear map rho -> sum_mn chi_mn E_m rho E_n^dagger.

    It is applied through the Choi matrix, rho -> sum_ab C[a,k,b,l] rho[a,b],
    so it accepts any matrix of the right dimension (basis elements
    included), not just density matrices.
    """
    w = _CHOI_MAPS[chi.qubit_count]
    d = 1 << chi.qubit_count
    choi = (w @ chi.matrix @ w.conj().T).reshape(d, d, d, d)

    def apply(rho: np.ndarray) -> np.ndarray:
        return np.einsum("akbl,ab->kl", choi, np.asarray(rho, dtype=complex))

    return apply


def beta_tensor(qubit_count: int) -> np.ndarray:
    """The paper's B: entry k of E_m rho_j E_n^dagger at row (j, k), column (m, n).

    For matrix units the coefficient of rho_k is just entry (a_k, b_k), i.e.
    the row-major flattening of the matrix.  ``chi_from_outputs`` does not use
    it; it is the oracle that ties the closed form to chi = B^-1 lambda.
    """
    ops = _OPERATORS[qubit_count]
    basis = matrix_unit_basis(qubit_count)
    d2 = len(basis)
    beta = np.zeros((d2 * d2, d2 * d2), dtype=complex)
    for m, em in enumerate(ops):
        for n, en in enumerate(ops):
            col = m * d2 + n
            en_dag = en.conj().T
            for j, rho_j in enumerate(basis):
                beta[j * d2:(j + 1) * d2, col] = (em @ rho_j @ en_dag).reshape(-1)
    return beta


def per_label_qpt(gate: str, lines: tuple[int, ...], backend, shots=None, seed=None):
    """(chi, fidelity, tp_deviation) of ``run_qpt`` as one state tomography
    per preparation label: a ``collect_dataset`` stream and its own
    reconstruction for each label in sorted order, with the label seeds
    numpy's ``SeedSequence(seed).generate_state(len(labels), np.uint64)``."""
    n = len(lines)
    labels = _labels(n)
    label_seeds = np.random.SeedSequence(seed).generate_state(len(labels), np.uint64).tolist()
    out_by_label = {}
    for label, label_seed in zip(labels, label_seeds):
        prep = preparation_circuit(label, lines).extended(Gate(gate, lines))
        dataset = collect_dataset(prep, backend, qubits=lines, shots=shots, seed=label_seed)
        out_by_label[label] = reconstruct_states(dataset.weights[None])[0]
    chi = per_output_chi(combine_by_label(out_by_label, n), n)
    return chi, process_fidelity(theoretical_chi(gate), chi), tp_deviation(chi)


def _labels(n: int) -> list[str]:
    return sorted({label for terms in preparation_recipes(n) for _, label in terms})


def loop_completeness(channel: KrausChannel) -> float:
    """``validate_completeness`` as it ran before it took one stacked
    product: sum_k E_k^dagger E_k accumulated one operator at a time from
    zeros, then its max-norm deviation from the identity."""
    dim = 1 << channel.qubit_count
    acc = np.zeros((dim, dim), dtype=complex)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.abs(acc - np.eye(dim)).max())


def kraus_apply(channel: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k E_k rho E_k^dagger of one matrix, the terms added in Kraus order."""
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


def combine_by_label(out_by_label: dict, n: int) -> list[np.ndarray]:
    """The matrix units' outputs, each recipe summed on its own from zeros."""
    outputs = []
    for terms in preparation_recipes(n):
        acc = np.zeros((1 << n, 1 << n), dtype=complex)
        for coeff, label in terms:
            acc += coeff * out_by_label[label]
        outputs.append(acc)
    return outputs


def per_output_chi(outputs, n: int) -> ChiMatrix:
    """``chi_from_outputs`` checking one output at a time: for each output in
    order its shape, then finite entries, then its trace."""
    w = _CHOI_MAPS[n]
    d = 1 << n
    d2 = d * d
    outputs = [np.asarray(o, dtype=complex) for o in outputs]
    if len(outputs) != d2:
        raise ValueError(f"expected {d2} channel outputs, got {len(outputs)}")
    for j, out in enumerate(outputs):
        if out.shape != (d, d):
            raise ValueError(f"output {j} has shape {out.shape}, expected {(d, d)}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"output {j} has non-finite entries")
        expected = complex(j // d == j % d)
        got = complex(np.trace(out))
        if abs(got - expected) > 1e-8:
            raise ValueError(
                f"output {j}: trace {got:.6g} differs from Tr(rho_j) = {expected:.6g}"
            )
    choi = np.array(outputs).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d2, d2)
    chi = w.conj().T @ choi @ w / d2
    residual = float(np.abs(w @ chi @ w.conj().T - choi).max())
    return ChiMatrix(n, (chi + chi.conj().T) / 2.0, residual)


def per_label_channel_chi(channel: KrausChannel) -> ChiMatrix:
    """chi of ``qpt_channel`` with one Kraus sum per preparation label."""
    n = channel.qubit_count
    out_by_label = {label: kraus_apply(channel, preparation_state(label)) for label in _labels(n)}
    return per_output_chi(combine_by_label(out_by_label, n), n)


def state_table_channel_chi(channel: KrausChannel) -> ChiMatrix:
    """chi of ``qpt_channel`` through one Kraus sum over the stack of
    preparations and the per-qubit table Rs[(a,b,k,l), (p,k,l)] = R[(a,b),p]."""
    n = channel.qubit_count
    outputs = apply_channel(channel, _PREP_STACKS[n])
    table = np.kron(_RECIPES, np.eye(4))
    if n == 1:
        return chi_from_outputs((table @ outputs.reshape(-1)).reshape(4, 2, 2), 1)
    # M[(p1,k1,l1), (p2,k2,l2)]: the stack's axes regrouped qubit by qubit
    m = outputs.reshape(4, 4, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(16, 16)
    # X[(a1,b1,k1,l1), (a2,b2,k2,l2)] back to unit (a1 a2, b1 b2), entry (k1 k2, l1 l2)
    x = (table @ m @ table.T).reshape((2,) * 8)
    return chi_from_outputs(x.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 4, 4), 2)


def six_product_contract(normalised: np.ndarray) -> np.ndarray:
    """The states of an ``(L, 3**n, 2**n)`` stack of weights already divided
    by their setting totals, contracted one qubit at a time, most significant
    first: each level sums its six (letter, outcome) products with
    ``_QUBIT_TABLE`` from zeros, one full-size multiply-add each."""
    rho = normalised[:, None, None]
    table = _QUBIT_TABLE[:, :, :, None, :, None, None]
    while rho.shape[3] > 1:
        count, rows, cols, settings, outcomes = rho.shape
        split = rho.reshape(count, rows, 1, cols, 1, 3, settings // 3, 2, outcomes // 2)
        rho = np.zeros((count, rows, 2, cols, 2, settings // 3, outcomes // 2), dtype=complex)
        for letter, outcome in itertools.product(range(3), range(2)):
            rho += split[..., letter, :, outcome, :] * table[letter, outcome]
        rho = rho.reshape(count, 2 * rows, 2 * cols, settings // 3, outcomes // 2)
    return rho.reshape(rho.shape[:3])


def unique_write_dataset(dataset) -> str:
    """A dataset's text, built one setting at a time: the distinct nonzero
    weights formatted once after an ``np.unique`` sort, one string per
    (outcome, weight) pair, and one join per setting, in sorted tag order."""
    n = dataset.qubit_count
    keys = [f"{i:0{n}b}" for i in range(1 << n)]
    lines = ["format=1", f"qubits={n}",
             f"shots={'exact' if dataset.shots is None else dataset.shots}"]
    settings = qst_settings(n)
    rows = np.array(sorted(range(len(settings)), key=settings.__getitem__))
    weights = dataset.weights[rows]
    nonzero = weights != 0.0
    values, which = np.unique(weights[nonzero], return_inverse=True)
    text = [f":{v!r}" for v in values.tolist()]
    pairs = [keys[i] + text[j] for i, j in
             zip(np.nonzero(nonzero)[1].tolist(), which.tolist())]
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    for row, start, end in zip(rows.tolist(), [0, *ends], ends):
        lines.append(" ".join([settings[row], *pairs[start:end]]))
    return "\n".join(lines) + "\n"
