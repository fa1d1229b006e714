"""Write reference_chi.json: the exact (shots=None) chi of every qx4 placement.

    python3 qptbench/make_reference.py [--calibrate SEEDS]

The sampled sweep checks each report against this reference within a shot-noise
limit (``workloads.CHI_NOISE_LIMIT``).  ``--calibrate N`` also runs every
placement at 8192 shots on N seeds and prints the largest
max|chi - exact| * sqrt(shots) per arity, the figure the limit is set from.
Regenerate only when a change is meant to alter exact chi.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qptkit  # noqa: E402
from workloads import QX4_PLACEMENTS, REFERENCE_PATH, SHOTS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calibrate", type=int, default=0, metavar="SEEDS")
    args = parser.parse_args()

    backend = qptkit.builtin_backend("qx4")
    exact = {}
    for gate, lines in QX4_PLACEMENTS:
        exact[(gate, lines)] = qptkit.run_qpt(gate, lines, backend).chi.matrix
    doc = {
        "backend": "qx4",
        "note": "exact chi of run_qpt(gate, lines, builtin_backend('qx4')); key 'gate lines'",
        "placements": {
            f"{g} {','.join(map(str, l))}": {"real": chi.real.tolist(), "imag": chi.imag.tolist()}
            for (g, l), chi in exact.items()
        },
    }
    REFERENCE_PATH.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(exact)} placements to {REFERENCE_PATH}")

    worst = {1: (0.0, None), 2: (0.0, None)}
    for seed in range(args.calibrate):
        for gate, lines in QX4_PLACEMENTS:
            chi = qptkit.run_qpt(gate, lines, backend, shots=SHOTS, seed=seed).chi.matrix
            z = float(np.abs(chi - exact[(gate, lines)]).max()) * math.sqrt(SHOTS)
            if z > worst[len(lines)][0]:
                worst[len(lines)] = (z, f"{gate} {lines} seed {seed}")
    if args.calibrate:
        for arity, (z, where) in worst.items():
            print(f"arity {arity}: max |dchi| * sqrt(shots) = {z:.3f} at {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
