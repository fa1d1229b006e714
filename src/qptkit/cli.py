"""Command-line front end.

Subcommands:

* ``qpt``       run process tomography for one or many gate placements
* ``qst``       run state tomography for a measurement-free QASM circuit
* ``table``     render fidelity grids (csv + aligned text) from qpt reports
* ``chi-plot``  dump a report's chi matrix as labelled real/imag TSV grids

``--backend`` takes either a config file path or a builtin name (``qx4``,
``qx2``).  Runs are exact unless ``--shots`` is given; sampled runs accept
``--seed`` and are bit-reproducible: the same invocation writes byte-identical
reports under one numpy version.  A ``qpt`` run's preparations take the
seeds ``child_seeds(seed, 4**n)`` and a ``qst`` run's circuit the seed
itself; each setting of a preparation draws on its own 4 words of that
preparation's seed expansion (``collect_dataset``).  ``--seeds N`` repeats
a sampled run with seeds seed..seed+N-1 and writes a summary report with
per-seed fidelities and their mean/min/max.

Exit status is 0 only if every requested item succeeded; failures are
reported on stderr and do not stop the remaining items.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from .backend import (MAX_SHOTS, BackendModel, builtin_backend, builtin_backend_names,
                      execute_exact, read_backend)
from .operators import GATE_ARITY
from .process_tomography import project_result, run_qpt
from .qasm import _too_long, parse_qasm
from .reports import (
    GATE_TABLE_ORDER,
    check_report,
    chi_grids,
    chi_report_dict,
    dump_report,
    load_report,
    qst_report_dict,
    render_fidelity_tables,
    seed_summary_dict,
)
from .state_tomography import project_psd, run_qst, state_fidelity, write_dataset

__all__ = ["main"]


@contextmanager
def _usable(subject):
    """Exit with ``error: <subject>: <reason>`` on an ``OSError`` or a
    ``ValueError`` (a ``UnicodeDecodeError`` among them) raised in the block:
    a file or directory a command cannot read, write or run."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise SystemExit(f"error: {subject}: {reason}") from None


def _resolve_backend(spec: str, noise: str | None, idle_decay: str | None) -> BackendModel:
    path = Path(spec)
    if path.is_file():
        with _usable(f"backend {spec}"):
            model = read_backend(path)
    else:
        try:
            model = builtin_backend(spec)
        except Exception:
            raise SystemExit(
                f"error: backend {spec!r} is neither a file nor a builtin "
                f"({', '.join(builtin_backend_names())})"
            ) from None
    if noise is not None:
        model = model.with_noise(noise == "on")
    if idle_decay is not None:
        model = model.with_idle_decay(idle_decay == "on")
    return model


def _parse_lines(spec: str) -> tuple[int, ...]:
    parts = spec.split(",")
    if why := _too_long(max(parts, key=len)):
        raise SystemExit(f"error: bad --lines value: {why}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise SystemExit(f"error: bad --lines value {spec!r}") from None


def _placements(gate: str, args, backend: BackendModel) -> list[tuple[int, ...]]:
    arity = GATE_ARITY[gate]
    if args.all_lines:
        if arity == 1:
            return [(q,) for q in range(len(backend.qubits))]
        return sorted(backend.coupling.pairs)
    if not args.lines:
        raise SystemExit("error: give --lines (repeatable) or --all-lines")
    chosen = []
    for spec in args.lines:
        lines = _parse_lines(spec)
        if len(lines) != arity:
            raise SystemExit(f"error: gate {gate!r} needs {arity} line(s), got {spec!r}")
        chosen.append(lines)
    return chosen


def _report_name(gate: str, lines: tuple[int, ...], summary: bool) -> str:
    where = "-".join(str(q) for q in lines)
    tail = "_seeds" if summary else ""
    return f"qpt_{gate}_{where}{tail}.json"


def cmd_qpt(args) -> int:
    backend = _resolve_backend(args.backend, args.noise, args.idle_decay)
    gates = args.gate or GATE_TABLE_ORDER
    for g in gates:
        if g not in GATE_ARITY:
            raise SystemExit(f"error: unknown gate {g!r}")

    shots = args.shots
    if shots is None and args.seeds > 1:
        raise SystemExit("error: --seeds requires --shots")

    summary = args.seeds > 1
    base = args.seed if args.seed is not None else 0
    seeds = list(range(base, base + args.seeds)) if summary else [args.seed]
    out_dir = Path(args.out)

    failures = 0
    for gate in gates:
        for lines in _placements(gate, args, backend):
            label = f"{gate} {','.join(map(str, lines))}"
            try:
                results = [run_qpt(gate, lines, backend, shots=shots, seed=s) for s in seeds]
                if args.project_psd:
                    results = [project_result(r) for r in results]
                path = out_dir / _report_name(gate, lines, summary)
                if summary:
                    report = seed_summary_dict(results, seeds)
                    done = (f"fidelity mean={report['fidelity_mean']:.6f} "
                            f"min={report['fidelity_min']:.6f} "
                            f"max={report['fidelity_max']:.6f}")
                else:
                    (result,) = results
                    report = chi_report_dict(result)
                    done = f"fidelity={result.fidelity:.6f} residual={result.residual:.2e}"
                check_report(report)
                text = dump_report(report)
                with _usable(out_dir):
                    out_dir.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
                print(f"{label}: {done} -> {path}")
            except Exception as exc:
                failures += 1
                print(f"error: {label}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_qst(args) -> int:
    backend = _resolve_backend(args.backend, args.noise, args.idle_decay)
    source = Path(args.circuit)
    with _usable(source):
        circuit = parse_qasm(source.read_text(encoding="utf-8"))
    if circuit.measurements:
        raise SystemExit(
            "error: the circuit must not measure; tomography appends its own "
            "measurements"
        )
    with _usable(source):  # a gate off the coupling map, say
        run = run_qst(circuit, backend, shots=args.shots, seed=args.seed)
        # the run evolved the circuit as its preparation; on a register with
        # an idle qubit it did so on more qubits than execute_exact does, and
        # those bits can differ, so the reference is evolved again
        reference = run.reference
        if reference is None:
            reference = execute_exact(circuit, backend).final_state
    fidelity = state_fidelity(reference, run.state)
    rho = project_psd(run.state) if args.project_psd else run.state

    report = qst_report_dict(
        backend_name=backend.name,
        noise=backend.noise_enabled,
        shots=args.shots,
        seed=args.seed,
        executions=run.executions,
        qubit_count=circuit.qubit_count,
        rho=rho,
        fidelity=fidelity,
        psd_projected=args.project_psd,
    )
    prefix = str(Path(args.out) / source.stem)
    report_path = prefix + "_qst.json"
    with _usable(report_path):
        check_report(report)
    _write_all(prefix, {"_qst.json": dump_report(report),
                        "_qst_dataset.txt": write_dataset(run.dataset)})
    print(f"{source.name}: state fidelity={fidelity:.6f} -> {report_path}")
    return 0


def _write_all(prefix: str, texts: dict[str, str]) -> None:
    """Write each text to ``prefix + suffix``, creating the missing
    directories of the prefix first; a file that cannot be written removes
    the ones written before it and ends the command in one error line."""
    parent = Path(prefix).parent
    with _usable(parent):
        parent.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    try:
        for suffix, text in texts.items():
            name = prefix + suffix
            with _usable(name):
                Path(name).write_text(text, encoding="utf-8")
            written.append(name)
    except SystemExit:
        for name in written:
            Path(name).unlink()
        raise


def cmd_table(args) -> int:
    reports = []
    for path in sorted(Path(args.reports).glob("*.json")):
        with _usable(path):  # unreadable, not JSON, or an invalid report
            report = load_report(path)
        if report.get("kind") == "qpt":
            reports.append(report)
    if not reports:
        raise SystemExit(f"error: no qpt reports under {args.reports!r}")
    csv_text, aligned = render_fidelity_tables(reports)
    if args.out:
        _write_all(args.out, {".csv": csv_text, ".txt": aligned})
        print(f"wrote {args.out}.csv and {args.out}.txt")
    else:
        print(aligned, end="")
    return 0


def cmd_chi_plot(args) -> int:
    with _usable(args.report):  # as for table, or not a qpt report
        real_text, imag_text = chi_grids(load_report(args.report))
    _write_all(args.out, {"_real.tsv": real_text, "_imag.tsv": imag_text})
    print(f"wrote {args.out}_real.tsv and {args.out}_imag.tsv")
    return 0


def _add_backend_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", required=True,
                   help="config file path or builtin name (qx4, qx2)")
    p.add_argument("--noise", choices=("on", "off"),
                   help="override the config's noise switch")
    p.add_argument("--idle-decay", choices=("on", "off"), dest="idle_decay",
                   help="override the config's idle_decay switch")


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        if why := _too_long(text):
            raise argparse.ArgumentTypeError(why)
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _add_sampling_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=_int_at_least(1, MAX_SHOTS),
                   help="sample counts instead of using exact probabilities")
    p.add_argument("--seed", type=_int_at_least(0), help="base RNG seed for sampled runs")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``qptkit`` parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qptkit",
        description="Process/state tomography against a noisy 5-qubit simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qpt", help="run chi-matrix process tomography")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--gate", action="append",
                       help="gate name (repeatable); cx takes control,target lines")
    which.add_argument("--all-gates", action="store_true", dest="all_gates",
                       help="all nine single-qubit gates")
    p.add_argument("--lines", action="append",
                   help="qubit line(s), e.g. 2 or 3,2 (repeatable)")
    p.add_argument("--all-lines", action="store_true", dest="all_lines",
                   help="every line (single-qubit) or coupling pair (cx)")
    _add_backend_options(p)
    _add_sampling_options(p)
    p.add_argument("--seeds", type=_int_at_least(1), default=1,
                   help="run N seeds (seed..seed+N-1) and write a summary")
    p.add_argument("--project-psd", action="store_true", dest="project_psd",
                   help="clip negative chi eigenvalues before reporting")
    p.add_argument("--out", default=".", help="directory for report files")
    p.set_defaults(func=cmd_qpt)

    p = sub.add_parser("qst", help="run state tomography for a QASM circuit")
    p.add_argument("--circuit", required=True, help="QASM file, no measurements")
    _add_backend_options(p)
    _add_sampling_options(p)
    p.add_argument("--project-psd", action="store_true", dest="project_psd",
                   help="clip negative rho eigenvalues before reporting")
    p.add_argument("--out", default=".", help="directory for report files")
    p.set_defaults(func=cmd_qst)

    p = sub.add_parser("table", help="render fidelity tables from reports")
    p.add_argument("--reports", required=True, help="directory of qpt reports")
    p.add_argument("--out", help="output prefix (writes .csv and .txt)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chi-plot", help="dump chi grids for plotting")
    p.add_argument("--report", required=True, help="a qpt report file")
    p.add_argument("--out", required=True, help="output prefix (_real/_imag.tsv)")
    p.set_defaults(func=cmd_chi_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.shots is None:
        raise SystemExit("error: --seed requires --shots")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
