"""Re-measure the ad-hoc baseline cases of ROADMAP.md, cold and warm.

    python3 qptbench/baseline.py

Timed with the harness of ``run.py``: the machine is warmed first and every
call is scaled to nominal seconds by the calibration kernel around it (raw
wall seconds are printed too).  Each case starts from a fresh import of the
package.  "cold" is the import plus the first call, which also builds the lazy
caches (preparation recipes, the two-qubit beta matrix); "warm" is the median
of REPEATS further calls.  cold minus warm is the share a single CLI
invocation pays as set-up.
"""

from __future__ import annotations

import statistics
import sys
import time

from run import SRC, Calibration, import_package, purge_package, warm_machine
from workloads import QX4_PLACEMENTS, SHOTS

REPEATS = 5

CASES = {
    "h exact run": lambda q, b: q.run_qpt("h", (2,), b),
    "cx exact run": lambda q, b: q.run_qpt("cx", (3, 2), b),
    "cx at 8192 shots": lambda q, b: q.run_qpt("cx", (3, 2), b, shots=SHOTS, seed=1),
    "sampled sweep, 51 placements": lambda q, b: [
        q.run_qpt(g, lines, b, shots=SHOTS, seed=i) for i, (g, lines) in enumerate(QX4_PLACEMENTS)
    ],
}


def timed(calibration: Calibration, fn):
    """(result, nominal seconds, raw wall seconds) of one call of ``fn``."""
    before = calibration.now()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    calibration.now()
    return out, calibration.scale(raw, before), raw


def cold_case(case):
    qptkit = import_package()
    backend = qptkit.builtin_backend("qx4")
    case(qptkit, backend)
    return qptkit, backend


def main() -> int:
    sys.path.insert(0, str(SRC))
    warm_machine()
    calibration = Calibration()
    print(f"{'case':<30} {'cold_s':>9} {'warm_s':>9} {'cold-warm':>9}   raw: cold, warm")
    for name, case in CASES.items():
        purge_package()
        (qptkit, backend), cold, cold_raw = timed(calibration, lambda: cold_case(case))
        warm = [timed(calibration, lambda: case(qptkit, backend)) for _ in range(REPEATS)]
        w = statistics.median(s for _, s, _ in warm)
        w_raw = statistics.median(r for _, _, r in warm)
        print(f"{name:<30} {cold:9.3f} {w:9.3f} {cold - w:9.3f}   {cold_raw:.3f}, {w_raw:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
