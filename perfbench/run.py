"""Layered benchmark for torofree.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md for why each one exists): axioms, search, blackbox,
cli.  Every job is one user-visible verdict and is checked; jobs run in a
closed loop, one client issuing one job after another, no threads.

--trace 0: runs at least MIN_ROUNDS rounds, and more until the rounds' job
time reaches --seconds.  Each round is a fresh worker process that builds the
seeded job set and runs it once, so every round pays the same cold caches.
Set-up time is sampled in every round and in extra set-up probes, and
reported as a median.  The tail is taken over the jobs of all rounds, each
at the median of its repeats.  Prints the end-to-end metrics.

--trace 1: runs three untraced and three traced rounds, alternating (spans
recorded from the benchmark's own files around the program's public
functions), and prints the per-layer metrics as medians over the traced
rounds, with the tracing overhead (at reference speed).

Job and set-up times are reported at reference speed.  On a shared machine
the speed can drift by tens of percent within minutes, so every round worker
also times a fixed pure-Python reference workload (worker.reference_kernel,
no torofree code) before each job and after the last, outside the jobs'
time, and each job time t is reported as t * REFERENCE_KERNEL_S / (median of
the two reference times before the job and the two after it).  A set-up
time is scaled by the median reference time of its process (a probe times
the reference workload after its set-up).  The raw wall times are
printed next to the metrics.  The per-layer times are raw wall times.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A failure is a wrong verdict, a raised exception, a nonzero exit or
a rerun whose bytes differ; failures never abort the run.  `correct` is false
when any failure is not one of the known defects listed in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms", "search", "blackbox", "cli")
SETUP_SAMPLES = 11
WORKER_TIMEOUT = 150
TAIL_BEYOND = 10
# The tail is the job with TAIL_BEYOND jobs beyond it among all jobs of the
# run.  Every workload has two or more jobs per round of its slowest kind
# (search: the two scans that pay the cold irrep builds), so with at least
# MIN_ROUNDS rounds the tail falls among them, at the same rank for every
# seed, rather than on the edge between two kinds of job.
MIN_ROUNDS = 6
TRACE_PAIRS = 3
WALL_CAP = 2.5  # wall time of the rounds, at most, in multiples of --seconds
REFERENCE_KERNEL_S = 1.2e-3  # nominal duration of worker.reference_kernel

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed verdict)."""


def spawn_worker(*args: str) -> dict:
    # -S: the worker needs only the standard library and src/, and the
    # site-packages scan of the installed environment would add tens of
    # milliseconds of set-up that no change to torofree can move.  The last
    # argument is the spawn time, from which the worker measures set-up.
    argv = [sys.executable, "-S", str(HERE / "worker.py"), *args, repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=str(ROOT))
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker {args[:2]} timed out after {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        raise HarnessError(f"worker {args[:2]} exited {proc.returncode}: "
                           f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().splitlines()[-1])


def run_round(workload: str, seed: int, trace: bool, tmpdir: str) -> dict:
    return spawn_worker("round", workload, str(seed), "1" if trace else "0", tmpdir)


def probe(workload: str, seed: int) -> dict:
    return spawn_worker("probe", workload, str(seed))


def speed(r: dict) -> float:
    """Factor that scales a time measured by worker r to reference speed."""
    return REFERENCE_KERNEL_S / r["kernel_s"]


def job_times(r: dict, scaled: bool = True) -> list[float]:
    """The job times of round r, at reference speed unless scaled is False.

    Job i lies between reference times i and i + 1; the speed the job ran at
    is taken from the two reference times on each side of it, which follows
    a change of speed within the round and is not thrown by a single one.
    """
    k = r["kernels"]
    return [j[1] * (REFERENCE_KERNEL_S / statistics.median(k[max(i - 1, 0):i + 3])
                    if scaled else 1.0)
            for i, j in enumerate(r["jobs"])]


def tail(times: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND jobs beyond it."""
    return sorted(times)[-(TAIL_BEYOND + 1)]


def job_time(r: dict) -> float:
    """Total job time of round r at reference speed."""
    return sum(job_times(r))


def outcome(rounds: list[dict]) -> tuple[int, int, bool, dict]:
    jobs = [j for r in rounds for j in r["jobs"]]
    failures = [j for j in jobs if j[2]]
    reasons: dict[str, int] = {}
    for label, _, reason, known in failures:
        key = f"{'known defect' if known else 'FAILURE'}: {label}: {reason}"
        reasons[key] = reasons.get(key, 0) + 1
    correct = all(j[3] for j in failures)
    return len(jobs), len(failures), correct, reasons


def measure(workload: str, seed: int, seconds: float, tmpdir: str):
    # rounds run until there are MIN_ROUNDS of them and their job time at
    # reference speed reaches `seconds`, so that the number of rounds does
    # not follow the machine's speed; on a machine far slower than the
    # reference, the wall-time cap ends the run after MIN_ROUNDS
    rounds = []
    busy = 0.0
    deadline = time.monotonic() + WALL_CAP * seconds
    while len(rounds) < MIN_ROUNDS or (busy < seconds and time.monotonic() < deadline):
        r = run_round(workload, seed, False, tmpdir)
        rounds.append(r)
        busy += job_time(r)
    setups = [] if workload == "cli" else list(rounds)
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe(workload, seed))
    # throughput and median are taken per round and reported as the median
    # over rounds, so that a round slowed by a noisy neighbour moves them
    # little; the tail needs the jobs of every round to reach far enough
    per_round = len(rounds[0]["jobs"])
    pooled = len(rounds) * per_round
    metrics, raw = {}, {}
    for scaled, out in ((True, metrics), (False, raw)):
        times = [job_times(r, scaled) for r in rounds]
        out["jobs_per_s"] = 1.0 / statistics.median(sum(t) / len(t) for t in times)
        out["job_p50_s"] = statistics.median(map(statistics.median, times))
        # every round runs the same seeded jobs in the same order; in the
        # tail each job counts once per round, at the median of its repeats,
        # so that a job slowed once by a neighbour does not set the tail
        typical = [statistics.median(t) for t in zip(*times)]
        out["job_tail_s"] = tail(typical * len(rounds))
        out["setup_s"] = statistics.median(r["setup_s"] * (speed(r) if scaled else 1.0)
                                           for r in setups)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    over = f"median over {len(rounds)} rounds of {per_round} jobs"
    notes = {
        "jobs_per_s": f"{over}; {busy:.2f} s of job time at reference speed in all",
        "job_p50_s": over,
        "job_tail_s": f"p{100 * (pooled - TAIL_BEYOND) / pooled:.1f}, the highest "
                      f"percentile with {TAIL_BEYOND} of the {pooled} jobs of "
                      f"{len(rounds)} rounds beyond it, each job at the median of its "
                      f"{len(rounds)} repeats",
        "setup_s": f"median of {len(setups)} fresh processes"
                   + (" importing torofree.cli" if workload == "cli" else ""),
        "peak_rss_mb": f"median over {len(rounds)} rounds"
                       + (" of the largest CLI subprocess" if workload == "cli" else ""),
    }
    for name, value in raw.items():
        notes[name] = f"raw {value:.6g}; {notes[name]}"
    kernel_ms = 1e3 * statistics.median(r["kernel_s"] for r in rounds)
    notes["jobs_per_s"] += (f"; reference workload {kernel_ms:.3f} ms against "
                            f"{1e3 * REFERENCE_KERNEL_S:g} ms nominal")
    return rounds, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def measure_traced(workload: str, seed: int, tmpdir: str):
    from tracer import per_layer_units

    # untraced and traced rounds alternate, so that drift in machine speed
    # falls on both sides of the overhead
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_round(workload, seed, False, tmpdir))
        traced.append(run_round(workload, seed, True, tmpdir))
    units = per_layer_units()
    values = {name: statistics.median(r["trace"].get(name, 0) for r in traced)
              for name in units}
    values["trace.overhead_s"] = (statistics.median(map(job_time, traced))
                                  - statistics.median(map(job_time, plain)))
    startup_ref = statistics.median(r["trace"].get("cli.startup_s", 0) * speed(r)
                                    for r in traced)
    notes = {
        "polyalg.mul.ops": "computed: term pairs, len(p.terms) * len(q.terms)",
        "classify.mat_vec.ops": "computed: rows * columns of each dense mat_vec",
        "cli.startup_s": "CLI subprocess wall minus in-process cli.main time and the "
                         "child's own tracer time, summed over a round's commands; "
                         f"{startup_ref:.6g} s at reference speed",
        "trace.overhead_s": "median traced minus median untraced job time per round, "
                            "at reference speed",
    }
    notes.update({name: f"median over {TRACE_PAIRS} traced rounds" for name in values
                  if name not in notes and not name.endswith(".calls")})
    return plain + traced, {k: (v, units[k]) for k, v in values.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "torofree" / "__init__.py").is_file():
        sys.stderr.write(f"error: no torofree sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(HERE))
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        if args.trace:
            rounds, metrics, notes = measure_traced(args.workload, args.seed, tmpdir)
        else:
            rounds, metrics, notes = measure(args.workload, args.seed, args.seconds, tmpdir)
    except HarnessError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    attempted, failed, correct, reasons = outcome(rounds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {sys.version.split()[0]} nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_ratio':44s} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    for reason, count in sorted(reasons.items()):
        print(f"    {count} x {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
