"""Circuit container plus a small OpenQASM 2.0 reader/writer.

Supported language: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";``, one quantum and at most one classical register
declaration, the gates id x y z h s sdg t tdg cx, and
``measure q[i] -> c[j];``.  ``//`` comments run to end of line.  Nothing
else parses; errors carry the 1-based line and column of the offending
token.

Semantic rules enforced on every Circuit (parsed or built in code):

* at most five qubits, and at most as many classical bits (``QUBIT_COUNT``):
  each qubit is measured at most once, so no further bit could be written,
  and the readout holds 2^m outcomes per row for m bits;
* gate names known, arity respected, cx control != target;
* all indices within the declared registers;
* once a qubit is measured nothing else may touch it;
* no two measurements share a classical bit (the outcome index would be
  ill-defined).

A circuit comes from construction, which checks every instruction (as
``extended`` does); from ``a.then(b)``, which joins two built circuits
unchecked and requires a measurement-free ``a`` and a ``b`` on as many qubits;
or from ``parse_qasm``, which makes construction's checks on each statement as
it reads it and then builds the circuit without checking it again.

``emit_qasm`` writes a canonical form (one statement per line, include line
always present, creg omitted when there are no classical bits) and
``parse_qasm(emit_qasm(c))`` returns a structurally equal circuit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .operators import GATE_ARITY

__all__ = [
    "Gate",
    "Measure",
    "Circuit",
    "CouplingMap",
    "CircuitError",
    "QasmError",
    "parse_qasm",
    "emit_qasm",
    "validate_topology",
    "QUBIT_COUNT",
]

# qubits of the device register; a circuit uses at most this many, and at
# most this many classical bits
QUBIT_COUNT = 5


class CircuitError(ValueError):
    """A circuit violates a structural rule."""


class QasmError(ValueError):
    """Source text failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    qubit: int
    clbit: int


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    classical_count: int
    instructions: tuple[Gate | Measure, ...] = ()
    qreg: str = "q"
    creg: str = "c"

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not 1 <= self.qubit_count <= QUBIT_COUNT:
            raise CircuitError(
                f"qubit count must be between 1 and {QUBIT_COUNT}, got {self.qubit_count}"
            )
        if not 0 <= self.classical_count <= QUBIT_COUNT:
            raise CircuitError(f"classical count must be between 0 and {QUBIT_COUNT}, "
                               f"got {self.classical_count}")
        for name in (self.qreg, self.creg):
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", name):
                raise CircuitError(f"invalid register name {name!r}")
        measured: set[int] = set()
        used_clbits: set[int] = set()
        for pos, inst in enumerate(self.instructions):
            _check_instruction(pos, inst, self.qubit_count, self.classical_count,
                               measured, used_clbits)

    @cached_property
    def measurements(self) -> tuple[Measure, ...]:
        """The measure instructions in circuit order, computed once per circuit."""
        return tuple(i for i in self.instructions if isinstance(i, Measure))

    def extended(self, *extra: Gate | Measure, classical_count: int | None = None) -> "Circuit":
        """Copy with instructions appended and optionally a new creg size."""
        m = self.classical_count if classical_count is None else classical_count
        return Circuit(self.qubit_count, m, self.instructions + extra, self.qreg, self.creg)

    def then(self, other: "Circuit") -> "Circuit":
        """``self``, then ``other``, sharing both circuits' instruction objects,
        with ``self``'s register names and ``other``'s creg size.

        ``self`` must measure nothing and ``other`` act on as many qubits, or
        ``CircuitError`` is raised.  Nothing is checked again: both passed
        construction, ``self``'s gates read no creg, and after them ``other``
        finds no qubit measured and no bit written, as it did alone.
        """
        if self.measurements:
            raise CircuitError("circuit already contains measurements")
        if other.qubit_count != self.qubit_count:
            raise CircuitError(f"qubit counts differ: {self.qubit_count} then {other.qubit_count}")
        return Circuit._of_checked(self.qubit_count, other.classical_count,
                                   self.instructions + other.instructions, self.qreg,
                                   self.creg, measurements=other.measurements)

    @classmethod
    def _of_checked(cls, qubit_count: int, classical_count: int,
                    instructions: tuple[Gate | Measure, ...], qreg: str, creg: str,
                    measurements: tuple[Measure, ...] | None = None) -> "Circuit":
        """The circuit of instructions already checked against these registers,
        built without a second check; ``measurements``, when known, is cached."""
        circuit = object.__new__(cls)
        vars(circuit).update(qubit_count=qubit_count, classical_count=classical_count,
                             instructions=instructions, qreg=qreg, creg=creg)
        if measurements is not None:
            vars(circuit)["measurements"] = measurements
        return circuit


def _check_instruction(pos: int, inst: Gate | Measure, qubit_count: int,
                       classical_count: int, measured: set[int],
                       used_clbits: set[int]) -> None:
    """Check instruction ``pos`` against its registers and everything before it.

    ``measured`` and ``used_clbits`` hold the qubits and classical bits that
    earlier instructions measured and wrote; a measure adds to both.
    """
    if isinstance(inst, Gate):
        arity = GATE_ARITY.get(inst.name)
        if arity is None:
            raise CircuitError(f"instruction {pos}: unknown gate {inst.name!r}")
        if len(inst.targets) != arity:
            raise CircuitError(f"instruction {pos}: gate {inst.name!r} takes {arity} "
                               f"qubit(s), got {len(inst.targets)}")
        if len(set(inst.targets)) != len(inst.targets):
            raise CircuitError(f"instruction {pos}: gate {inst.name!r} repeats a qubit")
        qubits = inst.targets
    elif isinstance(inst, Measure):
        qubits = (inst.qubit,)
    else:
        raise CircuitError(f"instruction {pos}: unsupported object {inst!r}")
    for q in qubits:
        if not 0 <= q < qubit_count:
            raise CircuitError(f"instruction {pos}: qubit index {q} out of range")
        if q in measured:
            raise CircuitError(f"instruction {pos}: qubit {q} already measured")
    if isinstance(inst, Measure):
        if not 0 <= inst.clbit < classical_count:
            raise CircuitError(f"instruction {pos}: classical index {inst.clbit} out of range")
        if inst.clbit in used_clbits:
            raise CircuitError(f"instruction {pos}: classical bit {inst.clbit} written twice")
        measured.add(inst.qubit)
        used_clbits.add(inst.clbit)


@dataclass(frozen=True)
class CouplingMap:
    """Directed control->target pairs on which cx may be placed."""

    pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        pairs = frozenset((int(c), int(t)) for c, t in self.pairs)
        for c, t in pairs:
            if c == t:
                raise ValueError(f"coupling pair {c}>{t} has equal endpoints")
            if not (0 <= c < QUBIT_COUNT and 0 <= t < QUBIT_COUNT):
                raise ValueError(f"coupling pair {c}>{t} out of range")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_text(cls, text: str) -> "CouplingMap":
        """Parse a list such as ``1>0,2>0,2>1``."""
        pairs = set()
        text = text.strip()
        if text:
            for item in text.split(","):
                m = re.fullmatch(r"\s*(\d+)\s*>\s*(\d+)\s*", item)
                if not m:
                    raise ValueError(f"bad coupling entry {item!r}")
                pairs.add((int(m.group(1)), int(m.group(2))))
        return cls(frozenset(pairs))

    def to_text(self) -> str:
        return ",".join(f"{c}>{t}" for c, t in sorted(self.pairs))

    def allows(self, control: int, target: int) -> bool:
        return (control, target) in self.pairs


def validate_topology(circuit: Circuit, coupling: CouplingMap) -> list[tuple[int, int, int]]:
    """Return (instruction index, control, target) for every cx off the map."""
    bad = []
    for pos, inst in enumerate(circuit.instructions):
        if isinstance(inst, Gate) and inst.name == "cx":
            control, target = inst.targets
            if not coupling.allows(control, target):
                bad.append((pos, control, target))
    return bad


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>\d+(?:\.\d+)?)
      | (?P<str>"[^"\n]*")
      | (?P<arrow>->)
      | (?P<sym>[\[\];,])
      | (?P<bad>\S)""",
    re.VERBOSE,
)


# a token: (kind, text, line, column), the last two 1-based
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens += [(m.lastgroup, m.group(), lineno, m.start() + 1)
                   for m in _TOKEN_RE.finditer(raw.split("//", 1)[0])]
    for kind, bad, line, col in tokens:
        if kind == "bad":
            raise QasmError(f"unexpected character {bad!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source_lines: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = source_lines

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        if self.pos == len(self.tokens):
            raise QasmError("unexpected end of input", self.end_line, 1)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> _Token:
        _, got, line, col = tok = self.take()
        if got != text:
            raise QasmError(f"expected {text!r}, got {got!r}", line, col)
        return tok

    def expect_int(self) -> tuple[int, _Token]:
        kind, text, line, col = tok = self.take()
        if kind != "num" or "." in text:
            raise QasmError(f"expected an integer, got {text!r}", line, col)
        return int(text), tok

    def indexed_ref(self, what: str = "a register reference") -> tuple[str, int, _Token]:
        """name [ int ] -- returns (name, index, token-of-index)."""
        kind, name, line, col = self.take()
        if kind != "id":
            raise QasmError(f"expected {what}, got {name!r}", line, col)
        self.expect("[")
        index, itok = self.expect_int()
        self.expect("]")
        return name, index, itok


def parse_qasm(text: str) -> Circuit:
    """Parse source text into a Circuit, or raise QasmError with position.

    Each statement is checked once, as it is read, against the registers and
    the statements before it; the circuit is then built without a second
    check."""
    lines = max(1, len(text.splitlines()))
    p = _Parser(_tokenize(text), lines)

    p.expect("OPENQASM")
    _, version, line, col = p.take()
    if version != "2.0":
        raise QasmError(f"unsupported OPENQASM version {version!r}", line, col)
    p.expect(";")

    nxt = p.peek()
    if nxt is not None and nxt[1] == "include":
        p.take()
        kind, fname, line, col = p.take()
        if kind != "str" or fname != '"qelib1.inc"':
            raise QasmError(f'only include "qelib1.inc" is supported, got {fname}', line, col)
        p.expect(";")

    def register_decl(keyword: str, header) -> tuple[str, int]:
        """Read a declaration; ``header(name, size)`` builds the header
        Circuit, and what it rejects (a register name) is raised at the name."""
        p.expect(keyword)
        ntok = p.peek()
        name, size, stok = p.indexed_ref("a register name")
        p.expect(";")
        low = 1 if keyword == "qreg" else 0
        if not low <= size <= QUBIT_COUNT:
            raise QasmError(f"{keyword} size {size} outside supported range {low}..{QUBIT_COUNT}",
                            *stok[2:])
        try:
            header(name, size)
        except CircuitError as exc:
            raise QasmError(str(exc), *ntok[2:]) from None
        return name, size

    qreg_name, qubit_count = register_decl("qreg", lambda name, size: Circuit(size, 0, (), name))

    creg_name, classical_count = "c", 0
    head = p.peek()
    if head is not None and head[1] == "creg":
        creg_name, classical_count = register_decl(
            "creg", lambda name, size: Circuit(qubit_count, size, (), qreg_name, name))

    instructions: list[Gate | Measure] = []
    measured: set[int] = set()
    used_clbits: set[int] = set()

    def qubit_ref() -> int:
        name, index, itok = p.indexed_ref()
        if name != qreg_name:
            raise QasmError(f"unknown register {name!r}", *itok[2:])
        if not 0 <= index < qubit_count:
            raise QasmError(f"qubit index {index} out of range for {qreg_name}[{qubit_count}]",
                            *itok[2:])
        return index

    while (tok := p.peek()) is not None:
        if tok[1] in ("qreg", "creg"):
            raise QasmError(f"register redeclaration {tok[1]!r}", *tok[2:])
        kind, stmt, line, col = p.take()
        if kind != "id":
            raise QasmError(f"expected a statement, got {stmt!r}", line, col)
        if stmt == "measure":
            qubit = qubit_ref()
            p.expect("->")
            name, clbit, itok = p.indexed_ref()
            if name != creg_name or classical_count == 0:
                raise QasmError(f"unknown register {name!r}", *itok[2:])
            if not 0 <= clbit < classical_count:
                raise QasmError(
                    f"classical index {clbit} out of range for {creg_name}[{classical_count}]",
                    *itok[2:])
            p.expect(";")
            instructions.append(Measure(qubit, clbit))
        elif stmt in GATE_ARITY:
            targets = [qubit_ref()]
            for _ in range(GATE_ARITY[stmt] - 1):
                p.expect(",")
                targets.append(qubit_ref())
            p.expect(";")
            instructions.append(Gate(stmt, tuple(targets)))
        else:
            raise QasmError(f"unknown gate {stmt!r}", line, col)

        # the checks Circuit makes, one statement at a time
        try:
            _check_instruction(len(instructions) - 1, instructions[-1], qubit_count,
                               classical_count, measured, used_clbits)
        except CircuitError as exc:
            raise QasmError(str(exc), line, col) from None

    return Circuit._of_checked(qubit_count, classical_count, tuple(instructions),
                               qreg_name, creg_name)


def emit_qasm(circuit: Circuit) -> str:
    """Canonical source text for a circuit."""
    out = ['OPENQASM 2.0;', 'include "qelib1.inc";',
           f"qreg {circuit.qreg}[{circuit.qubit_count}];"]
    if circuit.classical_count > 0:
        out.append(f"creg {circuit.creg}[{circuit.classical_count}];")
    q, c = circuit.qreg, circuit.creg
    for inst in circuit.instructions:
        if isinstance(inst, Gate):
            args = ", ".join(f"{q}[{t}]" for t in inst.targets)
            out.append(f"{inst.name} {args};")
        else:
            out.append(f"measure {q}[{inst.qubit}] -> {c}[{inst.clbit}];")
    return "\n".join(out) + "\n"
