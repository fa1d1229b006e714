#!/usr/bin/env python3
"""Exact noiseless tomography sweep: every gate on every line, cx on the map.

Every fidelity should print as 1.000000; the point is to exercise the full
linear-inversion pipeline end to end and to time the 51-placement sweep
(45 single-qubit placements and 6 cx pairs on qx4).
"""

import argparse
import time

from qptkit import GATE_TABLE_ORDER, builtin_backend, run_qpt


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--backend", default="qx4", help="builtin backend name")
    args = ap.parse_args()

    backend = builtin_backend(args.backend).with_noise(False)
    start = time.perf_counter()
    worst = 1.0

    print(f"{'gate':8s}" + "".join(f"{f'q{q}':10s}" for q in range(5)))
    for gate in GATE_TABLE_ORDER:
        fids = [run_qpt(gate, (q,), backend).fidelity for q in range(5)]
        worst = min(worst, *fids)
        print(f"{gate:8s}" + "".join(f"{f:<10.6f}" for f in fids))
    for control, target in sorted(backend.coupling.pairs):
        result = run_qpt("cx", (control, target), backend)
        worst = min(worst, result.fidelity)
        print(f"{f'cx {control}>{target}':8s}{result.fidelity:<10.6f}")

    elapsed = time.perf_counter() - start
    print(f"\nworst fidelity {worst:.9f} ({elapsed:.2f}s)")


if __name__ == "__main__":
    main()
