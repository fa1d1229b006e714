"""qptkit benchmark: one workload per process, closed loop, one client.

    python3 qptbench/run.py --workload sweep_sampled --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see ``tracing.py``).
Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files live under
``.bench_build/`` and are removed at exit; a traced run leaves its spans in
``.bench_build/trace-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import COUNTERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 11
P90_MIN_ITEMS = 100

# The host's speed drifts: a fixed pure-Python loop took between 18 and 32 ms
# per 2 s window, in phases of tens of seconds, on an idle 2-vCPU VM (Xeon,
# 2.1 GHz).  Raw wall times of one workload then spread by 15-30 % across
# runs.  So every timed call is bracketed by runs of a fixed calibration
# kernel (at most CALIBRATE_EVERY_S apart) and its wall time is scaled by
# NOMINAL_KERNEL_S / (mean kernel time around the call): "nominal seconds",
# about equal to wall seconds on that VM in a typical phase.  Raw wall times
# are printed alongside.
NOMINAL_KERNEL_S = 4.0e-4
CALIBRATE_EVERY_S = 0.5
WARM_MACHINE_S = 1.5
_KERNEL_MATRIX = np.exp(2j * np.pi * np.arange(1024).reshape(32, 32) / 1024) / 32

# Per-layer metrics, per traced pass.  A name is a Tracer counter, or a
# layer of tracing.LAYERS followed by the statistic (calls, total_s, self_s).
PER_LAYER = (
    ("backend.execute_exact.calls", "count"),
    ("backend.execute_exact.self_s", "s"),
    ("backend.instructions", "count"),
    ("backend.state_dim.max", "count"),
    ("backend.sample.self_s", "s"),
    ("backend.config_load.total_s", "s"),
    ("operators.embed_gate.calls", "count"),
    ("operators.embed_gate.total_s", "s"),
    ("channels.kraus_build.calls", "count"),
    ("channels.kraus_build.total_s", "s"),
    ("channels.apply_channel.total_s", "s"),
    ("operators.pauli_string_matrix.calls", "count"),
    ("operators.pauli_string_matrix.total_s", "s"),
    ("qasm.parse_qasm.total_s", "s"),
    ("qasm.circuit_build.calls", "count"),
    ("qasm.circuit_build.total_s", "s"),
    ("state_tomography.estimate.calls", "count"),
    ("state_tomography.estimate.total_s", "s"),
    ("state_tomography.reconstruct_density.total_s", "s"),
    ("state_tomography.collect_dataset.self_s", "s"),
    ("process_tomography.solve_chi.calls", "count"),
    ("process_tomography.solve_chi.total_s", "s"),
    ("process_tomography.beta_tensor.total_s", "s"),
    ("process_tomography.lambda_from_outputs.total_s", "s"),
    ("process_tomography.score.total_s", "s"),
    ("reports.write.total_s", "s"),
    ("reports.load.total_s", "s"),
    ("reports.table.total_s", "s"),
    ("reports.bytes_written", "bytes"),
    ("cli.main.self_s", "s"),
)
# Read from the traced set-up (warm-up items included), not per pass.
SETUP_LAYERS = (
    ("setup.process_tomography.beta_tensor.total_s", "process_tomography.beta_tensor"),
    ("setup.process_tomography.preparation_recipes.total_s",
     "process_tomography.preparation_recipes"),
)


def kernel_s(repeats: int = 7) -> float:
    """Median time of a fixed kernel shaped like the simulator's inner work:
    numpy element writes from a Python loop, then 32x32 complex products."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        buf = np.zeros((32, 32), dtype=complex)
        for i in range(1024):
            buf[i >> 5, i & 31] = _KERNEL_MATRIX[i & 31, i >> 5]
        for _ in range(8):
            buf = _KERNEL_MATRIX @ buf @ _KERNEL_MATRIX.conj().T
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """Kernel timings along the run; scales a call by the two around it."""

    def __init__(self) -> None:
        self.kernel: list[float] = []
        self.at = 0.0
        self.now()

    def now(self) -> int:
        self.kernel.append(kernel_s())
        self.at = time.perf_counter()
        return len(self.kernel) - 1

    def index(self) -> int:
        """Index of a kernel timing at most CALIBRATE_EVERY_S old."""
        if time.perf_counter() - self.at >= CALIBRATE_EVERY_S:
            return self.now()
        return len(self.kernel) - 1

    def scale(self, wall_s: float, before: int) -> float:
        """Nominal seconds of a call made after timing ``before`` (and before
        the next timing, which must exist by now)."""
        kernel = (self.kernel[before] + self.kernel[before + 1]) / 2
        return wall_s * NOMINAL_KERNEL_S / kernel


def warm_machine() -> None:
    """Keep both the interpreter and the BLAS threads busy for a moment.

    After the VM has idled, its first second or so of work runs slow (set-up
    of a fresh process read 3x its usual time), whatever the program.  This
    untimed spin uses only numpy on random data, nothing of qptkit.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    end = time.perf_counter() + WARM_MACHINE_S
    while time.perf_counter() < end:
        kernel_s(1)
        np.linalg.solve(a, a[0])


def purge_package() -> None:
    for name in [m for m in sys.modules if m == "qptkit" or m.startswith("qptkit.")]:
        del sys.modules[name]


def import_package():
    qptkit = importlib.import_module("qptkit")
    importlib.import_module("qptkit.cli")
    if Path(qptkit.__file__).resolve().parent != SRC / "qptkit":
        raise ImportError(f"qptkit imported from {qptkit.__file__}, not from {SRC}")
    return qptkit


def set_up(workload, repeats: int, tracer: Tracer | None = None):
    """Fresh import plus one checked warm-up item of each kind, ``repeats`` times.

    Returns the nominal set-up seconds, the raw set-up and import seconds of
    each repeat, and the package of the last repeat, which the timed passes use.
    """
    calibration = Calibration()
    setup_s, raw_s, import_s = [], [], []
    for _ in range(repeats):
        purge_package()
        before = calibration.now()
        t0 = time.perf_counter()
        qptkit = import_package()
        t1 = time.perf_counter()
        workload.bind(qptkit)
        if tracer is not None:
            tracer.install(qptkit)
            tracer.item, tracer.active = "setup", True
        workload.warm_up()
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        calibration.now()
        setup_s.append(calibration.scale(t2 - t0, before))
        raw_s.append(t2 - t0)
        import_s.append(t1 - t0)
    return setup_s, raw_s, import_s, qptkit


class PassStats:
    """Nominal seconds per pass and per item, plus the raw wall seconds."""

    def __init__(self) -> None:
        self.passes = 0
        self.pass_s: list[float] = []
        self.pass_raw_s: list[float] = []
        self.pass_items: list[int] = []
        self.item_s: list[float] = []
        self.item_raw_s: list[float] = []
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def _rate(items: list[int], seconds: list[float]) -> float:
        return statistics.median(n / s for n, s in zip(items, seconds))

    @property
    def items_per_s(self) -> float:
        """Median over passes of items / nominal program seconds in the pass."""
        return self._rate(self.pass_items, self.pass_s)

    @property
    def raw_items_per_s(self) -> float:
        return self._rate(self.pass_items, self.pass_raw_s)


def run_passes(workload, seconds: float, stats: PassStats, tracer: Tracer | None = None) -> None:
    """Whole passes until ``seconds`` of wall time have gone (at least one).

    Only the program calls are timed; the output checks between them are not.
    """
    calibration = Calibration()
    start = time.perf_counter()
    while stats.passes == 0 or time.perf_counter() - start < seconds:
        timed = []  # (wall seconds, calibration index before, is_item)
        for step in workload.steps():
            before = calibration.index()
            if tracer is not None:
                tracer.item, tracer.active = f"{stats.passes}:{step.id}", True
            error = None
            t0 = time.perf_counter()
            try:
                out = step.run()
            except Exception as exc:
                error = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            timed.append((dt, before, step.is_item))
            stats.attempted += 1
            if error is None:
                try:
                    step.check(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                stats.failed += 1
                if stats.failed <= 5:
                    print(f"FAILED {step.id}: {type(error).__name__}: {error}", file=sys.stderr)
        calibration.now()
        scaled = [calibration.scale(dt, before) for dt, before, _ in timed]
        stats.item_s += [s for s, (_, _, is_item) in zip(scaled, timed) if is_item]
        stats.item_raw_s += [dt for dt, _, is_item in timed if is_item]
        stats.pass_s.append(sum(scaled))
        stats.pass_raw_s.append(sum(dt for dt, _, _ in timed))
        stats.pass_items.append(sum(is_item for _, _, is_item in timed))
        stats.passes += 1
    stats.kernel_s += calibration.kernel


def _git_state() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"git_rev": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"git_rev": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_info() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        **_git_state(),
    }


def measure(workload, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics; returns (metrics, attempted, failed)."""
    setup_s, raw_setup_s, import_s, _ = set_up(workload, SETUP_REPEATS)
    stats = PassStats()
    run_passes(workload, seconds, stats)
    n = len(stats.item_s)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (stats.items_per_s, "1/s"),
        "item_s.p50": (statistics.median(stats.item_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"set-up: {SETUP_REPEATS} repeats, nominal "
          + ", ".join(f"{s:.3f}" for s in setup_s) + " s; raw "
          + ", ".join(f"{s:.3f}" for s in raw_setup_s) + " s; import "
          + ", ".join(f"{s:.3f}" for s in import_s) + " s")
    print(f"timed: {stats.passes} passes, {n} items, {sum(stats.pass_raw_s):.3f} s raw "
          f"in the program; raw items_per_s {stats.raw_items_per_s:.6g}, "
          f"raw item_s.p50 {statistics.median(stats.item_raw_s):.6g} s")
    print(f"calibration kernel: {len(stats.kernel_s)} timings, median "
          f"{statistics.median(stats.kernel_s):.4g} s, range {min(stats.kernel_s):.4g}"
          f"-{max(stats.kernel_s):.4g} s (nominal {NOMINAL_KERNEL_S:g} s)")
    print("pass items_per_s, nominal: " + " ".join(
        f"{n / s:.4g}" for n, s in zip(stats.pass_items, stats.pass_s)))
    if n >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(stats.item_s, n=10, method="inclusive")[8]
        print(f"item_s.p90 = {p90:.6f} s (n={n})")
    else:
        print(f"item_s.p90 omitted: {n} items < {P90_MIN_ITEMS}")
    print(f"failed_frac = {stats.failed / stats.attempted:.6f} "
          f"({stats.failed} of {stats.attempted} checked calls)")
    return metrics, stats.attempted, stats.failed


def measure_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, int, int]:
    """Per-layer metrics; returns (metrics, attempted, failed)."""
    tracer = Tracer()
    _, _, import_s, qptkit = set_up(workload, 1, tracer)
    setup_stats = tracer.layer_stats()
    tracer.uninstall()
    tracer.reset()

    plain = PassStats()
    run_passes(workload, seconds / 2, plain)
    tracer.install(qptkit)
    traced = PassStats()
    run_passes(workload, seconds / 2, traced, tracer)
    tracer.uninstall()

    per_pass = traced.passes
    stats = tracer.layer_stats()
    metrics = {}
    for name, unit in PER_LAYER:
        if name in COUNTERS:
            value = tracer.counters[name]
            if name != "backend.state_dim.max":
                value /= per_pass
        else:
            layer, stat = name.rsplit(".", 1)
            value = stats[layer][stat] / per_pass
        metrics[name] = (value, unit)
    metrics["trace_overhead_frac"] = (plain.items_per_s / traced.items_per_s - 1.0, "frac")
    metrics["setup.import_s"] = (import_s[0], "s")
    for name, layer in SETUP_LAYERS:
        metrics[name] = (setup_stats[layer]["total_s"], "s")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    print(f"traced: {per_pass} passes ({plain.passes} untraced), "
          f"{len(tracer.spans)} spans -> {trace_path}")
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qptkit" / "__init__.py").is_file():
        print(f"error: no qptkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile once, untimed, so set-up reads the same cached modules a
    # user's installed package would.
    compileall.compile_dir(str(SRC / "qptkit"), quiet=1)

    workdir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(f"qptbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("machine " + json.dumps(machine_info(), sort_keys=True))
        warm_machine()
        if args.trace:
            metrics, attempted, failed = measure_traced(
                workload, args.seconds, BUILD / f"trace-{args.workload}.tsv")
        else:
            metrics, attempted, failed = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
