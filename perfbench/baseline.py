"""Record a baseline: every workload over seeds 1-10, plus one traced run each.

    python3 perfbench/baseline.py

Writes perfbench/baseline.json: for each workload and end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median over the seeds; for each workload the per-layer numbers
of one traced run; and the Python version and CPU count of the machine.
Runs are sequential, one at a time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
                 "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, s, spec["run_seconds"], 0) for s in SEEDS]
        entry: dict = {"why": w["why"], "runs": len(runs),
                       "attempted": [r["attempted"] for r in runs],
                       "failed": [r["failed"] for r in runs],
                       "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": med, "q1": q1,
                "q3": q3, "spread": (q3 - q1) / med, "bound": bound}
            print(f"{name:9s} {metric:12s} median {med:.6g} spread {(q3 - q1) / med:.3f}"
                  f" (bound {bound})", flush=True)
        traced = bench(name, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
