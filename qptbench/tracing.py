"""Span tracing of qptkit from the outside, by rebinding module attributes.

Each layer is a list of bindings ``(module, attribute)``: the name under which
a caller inside qptkit looks the function up at call time.  ``Tracer.install``
replaces every binding that exists with a wrapper that records a span (name,
start, end, parent, item) and restores the originals on ``uninstall``.  A
binding the package no longer has is skipped, so its layer reports 0 calls.

Aggregation rule, for every layer: a span nested inside another span of the
same layer is not counted again (``calls`` and ``total_s`` count outermost
spans only), and ``self_s`` is span time minus the time of its direct child
spans.  Counters (instructions evolved, state dimension, bytes written) are
read from arguments and results at the same boundaries.
"""

from __future__ import annotations

import importlib
import time

# layer name -> bindings.  "qasm.Circuit" names a class attribute.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "backend.execute_exact": (
        ("backend", "execute_exact"),
        ("state_tomography", "execute_exact"),
        ("cli", "execute_exact"),
    ),
    "backend.sample": (("state_tomography", "execute"),),
    "backend.config_load": (("cli", "builtin_backend"), ("cli", "read_backend")),
    "operators.embed_gate": (("backend", "embed_gate"), ("channels", "embed_gate")),
    "channels.kraus_build": (
        ("backend", "amplitude_damping"),
        ("backend", "pure_dephasing"),
    ),
    "channels.apply_channel": (("process_tomography", "apply_channel"),),
    "operators.pauli_string_matrix": (
        ("state_tomography", "pauli_string_matrix"),
        ("process_tomography", "pauli_string_matrix"),
    ),
    "qasm.parse_qasm": (("cli", "parse_qasm"),),
    "qasm.circuit_build": (
        ("process_tomography", "preparation_circuit"),
        ("state_tomography", "append_setting"),
        ("qasm.Circuit", "extended"),
    ),
    "state_tomography.estimate": (
        ("state_tomography", "estimate_pauli"),
        ("process_tomography", "pauli_expectation"),
    ),
    "state_tomography.reconstruct_density": (
        ("state_tomography", "reconstruct_density"),
        ("process_tomography", "reconstruct_density"),
    ),
    "state_tomography.collect_dataset": (
        ("process_tomography", "collect_dataset"),
        ("state_tomography", "collect_dataset"),
    ),
    "state_tomography.run_qst": (("cli", "run_qst"),),
    "state_tomography.state_fidelity": (("cli", "state_fidelity"),),
    "process_tomography.run_qpt": (("cli", "run_qpt"),),
    "process_tomography.preparation_recipes": (
        ("process_tomography", "preparation_recipes"),
    ),
    "process_tomography.beta_tensor": (("process_tomography", "beta_tensor"),),
    "process_tomography.lambda_from_outputs": (
        ("process_tomography", "lambda_from_outputs"),
    ),
    "process_tomography.solve_chi": (("process_tomography", "solve_chi"),),
    "process_tomography.score": (
        ("process_tomography", "theoretical_chi"),
        ("process_tomography", "process_fidelity"),
        ("process_tomography", "tp_deviation"),
    ),
    "reports.write": (
        ("cli", "chi_report_dict"),
        ("cli", "qst_report_dict"),
        ("cli", "dump_report"),
        ("cli", "write_dataset"),
    ),
    "reports.load": (("cli", "load_report"),),
    "reports.table": (("cli", "render_fidelity_tables"),),
    "cli.main": (("cli", "main"),),
}


def _execute_exact_counts(tracer: "Tracer", args, result) -> None:
    circuit = args[0] if args else None
    tracer.counters["backend.instructions"] += len(getattr(circuit, "instructions", ()))
    state = getattr(result, "final_state", None)
    if state is not None:
        dim = int(state.shape[0])
        if dim > tracer.counters["backend.state_dim.max"]:
            tracer.counters["backend.state_dim.max"] = dim


def _bytes_counts(tracer: "Tracer", args, result) -> None:
    if isinstance(result, str):
        tracer.counters["reports.bytes_written"] += len(result.encode("utf-8"))


# Counters read at a binding: (module, attribute) -> hook(tracer, args, result).
COUNTER_HOOKS = {
    ("backend", "execute_exact"): _execute_exact_counts,
    ("state_tomography", "execute_exact"): _execute_exact_counts,
    ("cli", "execute_exact"): _execute_exact_counts,
    ("cli", "dump_report"): _bytes_counts,
    ("cli", "write_dataset"): _bytes_counts,
}

COUNTERS = ("backend.instructions", "backend.state_dim.max", "reports.bytes_written")


class Tracer:
    """In-memory span recorder; spans are (name, start_ns, end_ns, parent, item)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, str | None]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.active = False
        self.item: str | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- binding management ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap every binding of LAYERS that exists in ``package``."""
        owners = {}
        for name in ("backend", "channels", "cli", "process_tomography",
                     "state_tomography", "qasm"):
            try:
                owners[name] = importlib.import_module(f"{package.__name__}.{name}")
            except ModuleNotFoundError:
                owners[name] = None
        owners["qasm.Circuit"] = getattr(owners["qasm"], "Circuit", None)
        for layer, bindings in LAYERS.items():
            for owner_name, attr in bindings:
                owner = owners[owner_name]
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                hook = COUNTER_HOOKS.get((owner_name, attr))
                setattr(owner, attr, self._wrap(layer, original, hook))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)  # filled when the call returns
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.item)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls / total_s / self_s per layer over the recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i, (name, start, end, parent, _) in enumerate(spans):
            entry = stats[name]
            entry["self_s"] += (end - start - child_ns[i]) * 1e-9
            if not self._inside(i, name):
                entry["calls"] += 1
                entry["total_s"] += (end - start) * 1e-9
        return stats

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """Dump spans as tab-separated ``index parent item name start_ns end_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\titem\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{item or ''}\t{name}\t{start}\t{end}\n")
