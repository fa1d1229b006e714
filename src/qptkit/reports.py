"""Serialisation of tomography results and tabular/plot-friendly renderings.

Chi reports are JSON with ``format: 1`` and fixed field names (alphabetical
here, sorted on output):

    backend, chi_imag, chi_real, executions, fidelity, format, gate, kind,
    lines, noise, operator_labels, ordering, psd_projected, residual, seed,
    shots, tp_deviation

``kind`` is "qpt"; multi-seed summaries use kind "qpt-seeds" with
``seeds``, ``fidelities`` and ``fidelity_mean/min/max`` instead of a chi.
State-tomography reports use kind "qst" with ``rho_real``/``rho_imag`` and a
``fidelity`` against the exact simulation.  ``dump_report`` writes exactly
the bytes of ``json.dumps(..., indent=2, sort_keys=True)`` and a newline,
so identical inputs yield byte-identical files; there are no timestamps.
It lays out dicts and lists itself and writes each list of finite floats,
a row of a grid, with ``float.__repr__`` alone, which is what json's
indenting encoder writes for them one call at a time; every other scalar
goes through ``json.dumps``.

Loaders re-validate what they read with ``check_report`` (format version,
every field of the kind present and of its type and no other field, gate
arity against lines, execution counts, a one- or two-qubit chi or a 1- to
5-qubit rho, shapes, Hermiticity, the operator labels of the fixed set, a
non-negative residual and tp_deviation, process fidelities in -1..1, a
non-negative state fidelity (shot noise can take the unprojected one above
1), stored mean/min/max against the per-seed list).  The CLI runs the same
check on the dict each report's text is dumped from, before writing it; the
dict holds only what ``json.loads`` reads back, so it passes or fails as the
text would.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

import numpy as np

from .operators import GATE_ARITY
from .process_tomography import OPERATOR_LABELS, QptResult
from .qasm import QUBIT_COUNT

__all__ = [
    "GATE_TABLE_ORDER",
    "ORDERING_NOTE",
    "chi_report_dict",
    "dump_report",
    "load_report",
    "parse_report",
    "check_report",
    "seed_summary_dict",
    "qst_report_dict",
    "render_fidelity_tables",
    "chi_grids",
]

GATE_TABLE_ORDER = ("id", "x", "y", "z", "h", "t", "tdg", "s", "sdg")

ORDERING_NOTE = (
    "chi[m][n] indexes operator_labels; labels, Pauli strings and bitstrings "
    "are written most-significant qubit first; vec(chi) and lambda flatten "
    "(m,n) and (j,k) row-major; the input basis |a><b| is row-major in (a,b)"
)


def _grid(matrix: np.ndarray, part) -> list[list[float]]:
    return part(np.asarray(matrix, dtype=complex)).tolist()


def chi_report_dict(result: QptResult) -> dict:
    return {
        "format": 1,
        "kind": "qpt",
        "gate": result.gate,
        "lines": list(result.lines),
        "backend": result.backend_name,
        "noise": result.noise,
        "shots": result.shots,
        "seed": result.seed,
        "executions": result.executions,
        "operator_labels": list(OPERATOR_LABELS[result.chi.qubit_count]),
        "ordering": ORDERING_NOTE,
        "residual": result.residual,
        "tp_deviation": result.tp_deviation,
        "fidelity": result.fidelity,
        "psd_projected": result.psd_projected,
        "chi_real": _grid(result.chi.matrix, np.real),
        "chi_imag": _grid(result.chi.matrix, np.imag),
        "chi_theory_real": _grid(result.chi_theory.matrix, np.real),
        "chi_theory_imag": _grid(result.chi_theory.matrix, np.imag),
    }


def seed_summary_dict(results: list[QptResult], seeds: list[int]) -> dict:
    if not results:
        raise ValueError("no results to summarise")
    first = results[0]
    fidelities = [r.fidelity for r in results]
    return {
        "format": 1,
        "kind": "qpt-seeds",
        "gate": first.gate,
        "lines": list(first.lines),
        "backend": first.backend_name,
        "noise": first.noise,
        "shots": first.shots,
        "executions": first.executions,
        "seeds": list(seeds),
        "fidelities": fidelities,
        "fidelity_mean": float(np.mean(fidelities)),
        "fidelity_min": float(min(fidelities)),
        "fidelity_max": float(max(fidelities)),
    }


def qst_report_dict(*, backend_name: str, noise: bool, shots: int | None,
                    seed: int | None, executions: int, qubit_count: int,
                    rho: np.ndarray, fidelity: float,
                    psd_projected: bool) -> dict:
    return {
        "format": 1,
        "kind": "qst",
        "backend": backend_name,
        "noise": noise,
        "shots": shots,
        "seed": seed,
        "executions": executions,
        "qubits": qubit_count,
        "fidelity": fidelity,
        "psd_projected": psd_projected,
        "rho_real": _grid(rho, np.real),
        "rho_imag": _grid(rho, np.imag),
    }


def _laid_out(items: list[str], pad: str, brackets: str) -> str:
    """Items one per line, indented one level past ``pad``, in brackets."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of a value nested at
    indentation ``pad``, dict keys being strings: the containers laid out
    here, a list of finite floats by ``float.__repr__`` alone and every
    other scalar by ``json.dumps``."""
    if isinstance(value, dict):
        return _laid_out([f"{json.dumps(key)}: {_json(value[key], pad + '  ')}"
                          for key in sorted(value)], pad, "{}")
    if isinstance(value, (list, tuple)):
        inner = pad + "  "
        if value and set(map(type, value)) == {float}:
            text = f",\n{inner}".join(map(float.__repr__, value))
            # a finite float's repr has digits, '.', 'e' and signs; nan and inf have an n
            if "n" not in text:
                return f"[\n{inner}{text}\n{pad}]"
        return _laid_out([_json(item, inner) for item in value], pad, "[]")
    return json.dumps(value)


def dump_report(report: dict, path: str | Path | None = None) -> str:
    """The report's text, ``json.dumps(report, indent=2, sort_keys=True)``
    and a newline, byte for byte; written to ``path`` when given."""
    text = _json(report, "") + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid report: {message}")


def _is_number(value) -> bool:
    """A JSON number; ``json`` reads true and false as bool, not as numbers."""
    return type(value) in (int, float)


def _is_fidelity(value) -> bool:
    """A number in the range an overlap fidelity can take, rounding allowed."""
    return _is_number(value) and -1.0 <= value <= 1.0 + 1e-9


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


def _is_grid(value) -> bool:
    """A list of lists of numbers."""
    return (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and {type(v) for row in value for v in row} <= {int, float})


def _is_lines(value) -> bool:
    return (_list_of(lambda q: type(q) is int and 0 <= q < QUBIT_COUNT)(value)
            and 0 < len(set(value)) == len(value))


# the check each report field must pass, and what an error says it is not
_TEXT = (lambda v: isinstance(v, str), "a string")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_NUMBER = (_is_number, "a number")
_GRID = (_is_grid, "a list of lists of numbers")
_CHECKS = {
    "gate": (lambda v: isinstance(v, str) and v in GATE_ARITY, "a gate name"),
    "lines": (_is_lines, f"a list of distinct lines in 0..{QUBIT_COUNT - 1}"),
    "backend": _TEXT, "ordering": _TEXT, "noise": _FLAG, "psd_projected": _FLAG,
    "shots": (lambda v: v is None or (type(v) is int and v > 0), "null or a positive integer"),
    "seed": (lambda v: v is None or type(v) is int, "null or an integer"),
    "executions": (lambda v: type(v) is int, "an integer"),
    "qubits": (lambda v: type(v) is int and 1 <= v <= QUBIT_COUNT,
               f"an integer in 1..{QUBIT_COUNT}"),
    "operator_labels": (_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "seeds": (_list_of(lambda v: type(v) is int), "a list of integers"),
    "fidelities": (_list_of(_is_fidelity), "a list of numbers in -1..1"),
    **dict.fromkeys(("residual", "tp_deviation", "fidelity", "fidelity_mean",
                     "fidelity_min", "fidelity_max"), _NUMBER),
    **dict.fromkeys(("chi_real", "chi_imag", "chi_theory_real", "chi_theory_imag",
                     "rho_real", "rho_imag"), _GRID),
}

# the fields each kind of report carries besides format and kind, as the
# *_dict builders above write them
_FIELDS = {kind: tuple(keys.split()) for kind, keys in {
    "qpt": "gate lines backend noise shots seed executions operator_labels ordering "
           "residual tp_deviation fidelity psd_projected chi_real chi_imag "
           "chi_theory_real chi_theory_imag",
    "qpt-seeds": "gate lines backend noise shots executions seeds fidelities "
                 "fidelity_mean fidelity_min fidelity_max",
    "qst": "backend noise shots seed executions qubits fidelity psd_projected "
           "rho_real rho_imag",
}.items()}


def load_report(path: str | Path) -> dict:
    """Read a report file and re-check its invariants."""
    return parse_report(Path(path).read_text(encoding="utf-8"))


def _hermitian(report: dict, name: str) -> np.ndarray:
    """The report's matrix ``name`` from its real and imaginary grids, once
    it is Hermitian within 1e-8 (a NaN entry is not)."""
    matrix = np.array(report[f"{name}_real"]) + 1j * np.array(report[f"{name}_imag"])
    _require(float(np.abs(matrix - matrix.conj().T).max()) <= 1e-8,
             f"stored {name} is not Hermitian")
    return matrix


def parse_report(text: str) -> dict:
    """The report a text holds, once ``check_report`` passes it."""
    try:
        report = json.loads(text)
    except RecursionError:  # json's decoder recurses once per nesting level
        raise ValueError("report nested too deeply") from None
    return check_report(report)


def check_report(report) -> dict:
    """``report`` itself once it is a valid report, as ``json.loads`` reads
    one: lists, not tuples, and plain ints, floats and bools, not numpy
    scalars.  Raise ``ValueError`` naming the first invariant it breaks."""
    _require(isinstance(report, dict), "not a JSON object")
    _require(report.get("format") == 1, f"unsupported format {report.get('format')!r}")
    kind = report.get("kind")
    _require(kind in _FIELDS, f"unknown kind {kind!r}")
    fields = _FIELDS[kind]
    missing = [key for key in fields if key not in report]
    _require(not missing, f"missing field(s) {', '.join(missing)}")
    unknown = sorted(set(map(str, report)) - set(fields) - {"format", "kind"})
    _require(not unknown, f"unknown field(s) {', '.join(unknown)}")
    for key in fields:
        check, description = _CHECKS[key]
        # the message only on failure: formatting a grid costs more than checking it
        if not check(report[key]):
            _require(False, f"{key} {reprlib.repr(report[key])} is not {description}")
    if kind == "qst":
        n = report["qubits"]
        dim = 1 << n
        _require(report["fidelity"] >= 0.0, "negative fidelity")
    else:
        n = len(report["lines"])
        arity = GATE_ARITY[report["gate"]]
        _require(arity == n, f"gate {report['gate']!r} takes {arity} line(s), not {n}")
    if kind == "qpt":
        _require(_is_fidelity(report["fidelity"]), "fidelity out of range")
        dim = len(report["operator_labels"])
        # the fixed operator sets cover n = 1, 2
        _require(dim in (4, 16), f"chi dimension {dim} is not 4 or 16")
        _require(dim == 4**n, f"chi dimension {dim} does not fit lines {report['lines']}")
        labels = list(OPERATOR_LABELS[n])
        if report["operator_labels"] != labels:
            _require(False, f"operator_labels {reprlib.repr(report['operator_labels'])} "
                            f"are not {labels}")
        _require(report["tp_deviation"] >= 0.0, "negative tp_deviation")
    for key in fields:
        if key.endswith(("_real", "_imag")):
            grid = report[key]
            _require(len(grid) == dim and all(len(row) == dim for row in grid),
                     f"{key} is not {dim}x{dim}")
    if kind == "qpt":
        _hermitian(report, "chi")
        _require(report["residual"] >= 0.0, "negative residual")
    elif kind == "qpt-seeds":
        fidelities = report["fidelities"]
        _require(len(report["seeds"]) == len(fidelities) > 0, "seed/fidelity lists disagree")
        _require(abs(report["fidelity_mean"] - float(np.mean(fidelities))) < 1e-12,
                 "stored mean is inconsistent")
        _require(report["fidelity_min"] == min(fidelities)
                 and report["fidelity_max"] == max(fidelities),
                 "stored min/max are inconsistent")
    else:
        rho = _hermitian(report, "rho")
        _require(abs(np.trace(rho).real - 1.0) <= 1e-6, "stored rho trace is off")
    # qpt: 4**n preparations, each measured in 3**n settings; qst: 3**n settings
    expected = (3 if kind == "qst" else 12) ** n
    _require(report["executions"] == expected,
             f"executions {report['executions']} != {expected}")
    return report


# --- renderings ------------------------------------------------------------------


def render_fidelity_tables(reports: list[dict]) -> tuple[str, str]:
    """(csv, aligned text) fidelity grids: gates as rows, placements as columns.

    Single-qubit placements become columns q0..q4; cx placements get their
    own ``c>t`` columns after them.  Cells hold fidelities to four decimal
    places; missing combinations stay blank.
    """
    cells: dict[tuple[str, str], float] = {}
    for report in reports:
        if report.get("kind") == "qpt":
            lines = report["lines"]
            col = f"{lines[0]}>{lines[1]}" if report["gate"] == "cx" else f"q{lines[0]}"
            cells[(report["gate"], col)] = report["fidelity"]
    # the q columns first, then the c>t ones
    columns = sorted({col for _, col in cells}, key=lambda col: (">" in col, col))
    rows = [g for g in GATE_TABLE_ORDER + ("cx",) if any(gate == g for gate, _ in cells)]

    def fmt(gate: str, col: str) -> str:
        value = cells.get((gate, col))
        return "" if value is None else f"{value:.4f}"

    table = [["gate"] + columns] + [[gate] + [fmt(gate, c) for c in columns] for gate in rows]
    csv_text = "".join(f"{row[0]},{','.join(row[1:])}\n" for row in table)
    name_w = max(len(row[0]) for row in table)
    widths = [max(len(c), 6) for c in columns]
    aligned = "".join(
        "  ".join([row[0].ljust(name_w)] + [v.rjust(w) for v, w in zip(row[1:], widths)]) + "\n"
        for row in table)
    return csv_text, aligned


def chi_grids(report: dict) -> tuple[str, str]:
    """(real, imag) TSV grids of the stored chi, row/column labelled."""
    if report.get("kind") != "qpt":
        raise ValueError("not a qpt report")
    labels = report["operator_labels"]

    def render(grid: list[list[float]]) -> str:
        lines = ["\t".join(["chi"] + list(labels))]
        for label, row in zip(labels, grid):
            lines.append("\t".join([label] + [f"{v:.6f}" for v in row]))
        return "\n".join(lines) + "\n"

    return render(report["chi_real"]), render(report["chi_imag"])
