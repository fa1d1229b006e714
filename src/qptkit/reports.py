"""Serialisation of tomography results and tabular/plot-friendly renderings.

Chi reports are JSON with ``format: 1`` and fixed field names (alphabetical
here, sorted on output):

    backend, chi_imag, chi_real, executions, fidelity, format, gate, kind,
    lines, noise, operator_labels, ordering, psd_projected, residual, seed,
    shots, tp_deviation

``kind`` is "qpt"; multi-seed summaries use kind "qpt-seeds" with
``seeds``, ``fidelities`` and ``fidelity_mean/min/max`` instead of a chi.
State-tomography reports use kind "qst" with ``rho_real``/``rho_imag`` and a
``fidelity`` against the exact simulation.  Serialisation is
``json.dumps(..., indent=2, sort_keys=True)``, so identical inputs yield
byte-identical files; there are no timestamps.

Loaders re-validate what they read (format version, every field of the
kind present, numeric fidelity, residual and executions, integer seeds and
bounded per-seed fidelities, a one- or two-qubit chi or a 1- to 5-qubit rho,
shapes, Hermiticity, bounded fidelity), so every emitted report doubles as a
self-check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .process_tomography import ChiMatrix, QptResult, fixed_operator_set
from .qasm import QUBIT_COUNT

__all__ = [
    "GATE_TABLE_ORDER",
    "ORDERING_NOTE",
    "chi_report_dict",
    "dump_report",
    "load_report",
    "parse_report",
    "result_from_report",
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
    return [[float(part(v)) for v in row] for row in matrix]


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
        "operator_labels": list(fixed_operator_set(result.chi.qubit_count).labels),
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


def dump_report(report: dict, path: str | Path | None = None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid report: {message}")


def _is_number(value, integral: bool = False) -> bool:
    """A JSON number (an int if ``integral``); JSON's true and false are not."""
    kinds = int if integral else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_fidelity(value) -> bool:
    """A number in the range an overlap fidelity can take, rounding allowed."""
    return _is_number(value) and -1.0 <= value <= 1.0 + 1e-9


# the fields each kind of report carries, as the *_dict builders above write them
_FIELDS = {
    "qpt": ("format", "kind", "gate", "lines", "backend", "noise", "shots", "seed",
            "executions", "operator_labels", "ordering", "residual", "tp_deviation",
            "fidelity", "psd_projected", "chi_real", "chi_imag", "chi_theory_real",
            "chi_theory_imag"),
    "qpt-seeds": ("format", "kind", "gate", "lines", "backend", "noise", "shots",
                  "executions", "seeds", "fidelities", "fidelity_mean", "fidelity_min",
                  "fidelity_max"),
    "qst": ("format", "kind", "backend", "noise", "shots", "seed", "executions", "qubits",
            "fidelity", "psd_projected", "rho_real", "rho_imag"),
}


def load_report(path: str | Path) -> dict:
    """Read a report file and re-check its invariants."""
    return parse_report(Path(path).read_text(encoding="utf-8"))


def parse_report(text: str) -> dict:
    report = json.loads(text)
    _require(isinstance(report, dict), "not a JSON object")
    _require(report.get("format") == 1, f"unsupported format {report.get('format')!r}")
    kind = report.get("kind")
    _require(kind in _FIELDS, f"unknown kind {kind!r}")
    missing = [key for key in _FIELDS[kind] if key not in report]
    _require(not missing, f"missing field(s) {', '.join(missing)}")
    for key, integral in (("fidelity", False), ("residual", False), ("executions", True),
                          ("fidelity_mean", False), ("fidelity_min", False),
                          ("fidelity_max", False)):
        if key in _FIELDS[kind]:
            _require(_is_number(report[key], integral),
                     f"{key} {report[key]!r} is not {'an integer' if integral else 'a number'}")
    if kind == "qpt":
        d2 = len(report["operator_labels"])
        # the fixed operator sets, and so result_from_report, cover n = 1, 2
        _require(d2 in (4, 16), f"chi dimension {d2} is not 4 or 16")
        for key in ("chi_real", "chi_imag", "chi_theory_real", "chi_theory_imag"):
            grid = report[key]
            _require(
                len(grid) == d2 and all(len(row) == d2 for row in grid),
                f"{key} is not {d2}x{d2}",
            )
        chi = np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"])
        _require(
            float(np.abs(chi - chi.conj().T).max()) <= 1e-8,
            "stored chi is not Hermitian",
        )
        _require(_is_fidelity(report["fidelity"]), "fidelity out of range")
        _require(report["residual"] >= 0.0, "negative residual")
        n = (d2.bit_length() - 1) // 2
        # 4**n preparations, each measured in 3**n settings
        expected = 4**n * 3**n
        _require(report["executions"] == expected,
                 f"executions {report['executions']} != {expected}")
    elif kind == "qpt-seeds":
        seeds, fidelities = report["seeds"], report["fidelities"]
        _require(isinstance(seeds, list) and all(_is_number(s, integral=True) for s in seeds),
                 f"seeds {seeds!r} is not a list of integers")
        _require(isinstance(fidelities, list) and all(map(_is_fidelity, fidelities)),
                 f"fidelities {fidelities!r} is not a list of numbers in -1..1")
        _require(len(seeds) == len(fidelities) > 0, "seed/fidelity lists disagree")
        _require(
            abs(report["fidelity_mean"] - float(np.mean(fidelities))) < 1e-12,
            "stored mean is inconsistent",
        )
    else:
        qubits = report["qubits"]
        _require(_is_number(qubits, integral=True) and 1 <= qubits <= QUBIT_COUNT,
                 f"qubits {qubits!r} is not an integer in 1..{QUBIT_COUNT}")
        dim = 1 << qubits
        for key in ("rho_real", "rho_imag"):
            grid = report[key]
            _require(len(grid) == dim and all(len(row) == dim for row in grid),
                     f"{key} is not {dim}x{dim}")
        rho = np.array(report["rho_real"]) + 1j * np.array(report["rho_imag"])
        _require(abs(np.trace(rho).real - 1.0) <= 1e-6, "stored rho trace is off")
    return report


def result_from_report(report: dict) -> tuple[ChiMatrix, ChiMatrix, float]:
    """Rebuild (chi, chi_theory, fidelity) from a loaded qpt report."""
    if report.get("kind") != "qpt":
        raise ValueError("not a qpt report")
    d2 = len(report["operator_labels"])
    n = {4: 1, 16: 2}[d2]
    chi = ChiMatrix(
        n,
        np.array(report["chi_real"]) + 1j * np.array(report["chi_imag"]),
        float(report["residual"]),
    )
    theory = ChiMatrix(
        n,
        np.array(report["chi_theory_real"]) + 1j * np.array(report["chi_theory_imag"]),
    )
    return chi, theory, float(report["fidelity"])


# --- renderings ------------------------------------------------------------------


def render_fidelity_tables(reports: list[dict]) -> tuple[str, str]:
    """(csv, aligned text) fidelity grids: gates as rows, placements as columns.

    Single-qubit placements become columns q0..q4; cx placements get their
    own ``c>t`` columns after them.  Cells hold fidelities to four decimal
    places; missing combinations stay blank.
    """
    cells: dict[tuple[str, str], float] = {}
    single_cols: set[str] = set()
    cx_cols: set[str] = set()
    for report in reports:
        if report.get("kind") != "qpt":
            continue
        lines = report["lines"]
        if report["gate"] == "cx":
            col = f"{lines[0]}>{lines[1]}"
            cx_cols.add(col)
        else:
            col = f"q{lines[0]}"
            single_cols.add(col)
        cells[(report["gate"], col)] = report["fidelity"]

    columns = sorted(single_cols) + sorted(cx_cols)
    rows = [g for g in GATE_TABLE_ORDER if any((g, c) in cells for c in columns)]
    if any((("cx", c) in cells) for c in columns):
        rows.append("cx")

    def fmt(gate: str, col: str) -> str:
        value = cells.get((gate, col))
        return "" if value is None else f"{value:.4f}"

    csv_lines = ["gate," + ",".join(columns)]
    for gate in rows:
        csv_lines.append(gate + "," + ",".join(fmt(gate, c) for c in columns))
    csv_text = "\n".join(csv_lines) + "\n"

    widths = [max(len(c), 6) for c in columns]
    name_w = max([len(r) for r in rows] + [4])
    parts = ["gate".ljust(name_w)] + [c.rjust(w) for c, w in zip(columns, widths)]
    txt_lines = ["  ".join(parts)]
    for gate in rows:
        parts = [gate.ljust(name_w)]
        parts += [fmt(gate, c).rjust(w) for c, w in zip(columns, widths)]
        txt_lines.append("  ".join(parts))
    return csv_text, "\n".join(txt_lines) + "\n"


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
