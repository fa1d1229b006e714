"""Run workloads on several seeds and report the spread of every metric.

    python3 qptbench/steadiness.py --seeds 1-10 [--trace 0] [--out FILE] [--against FILE]

Runs ``run.py`` for ``run_seconds`` once per seed and workload of
BENCHMARK.json, seeds outermost so that slow drift of the machine spreads over
all workloads, one run at a time.  For each
workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  Count metrics of a
traced run must be identical in every run; they are flagged when not.
``--out`` saves the runs as JSON, each with the ``machine`` line ``run.py``
prints (versions, BLAS threads, git rev and dirty flag); ``--against`` compares medians with a saved
file, reporting each as the share by which it is worse than the saved median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                             if line.startswith("machine "))
    return result


def summarise(runs: list[dict]) -> dict:
    summary = {"attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "unit": runs[0]["metrics"][name]["unit"], "values": values,
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def _worse_by(name: str, new: float, old: float) -> float:
    better = next((m["better"] for m in BENCH["end_to_end"] + BENCH["per_layer"]
                   if m["name"] == name), "lower")
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    seconds = BENCH["run_seconds"]
    runs: dict[str, list[dict]] = {w["name"]: [] for w in BENCH["workloads"]}
    for seed in _seeds(args.seeds):
        for workload in runs:
            runs[workload].append(run_once(workload, seed, seconds, args.trace))
            print(f"seed {seed} {workload}: {json.dumps(runs[workload][-1]['metrics'])}",
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    saved = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    result = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload, wruns in runs.items():
        summary = summarise(wruns)
        result["workloads"][workload] = {"summary": summary, "runs": wruns}
        print(f"{workload}: {summary['failed']} failed of {summary['attempted']}")
        for name, m in summary["metrics"].items():
            line = f"  {name:<52} median {m['median']:<12.6g} {m['unit']:<6}"
            if m["spread"] is not None:
                line += f" spread {m['spread']:.4f}"
            if name in bounds:
                line += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})"
            if m["unit"] in ("count", "bytes") and len(set(m["values"])) > 1:
                line += " NOT IDENTICAL"
            if saved and workload in saved["workloads"]:
                old = saved["workloads"][workload]["summary"]["metrics"][name]["median"]
                if old:
                    line += f" worse by {_worse_by(name, m['median'], old):+.4f}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
