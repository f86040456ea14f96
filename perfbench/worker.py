"""One fresh benchmark process: a round of jobs, a set-up probe, or a traced CLI call.

    worker.py round WORKLOAD SEED TRACE TMPDIR SPAWN
        Build the workload's jobs from the seed and run each once, in order,
        one after another.  Prints one JSON line: set-up time, per-job wall
        times and failure reasons, peak RSS and, when TRACE is 1, the per-layer
        trace summary.
    worker.py probe WORKLOAD SEED SPAWN
        Set up as a round would (for cli: import torofree.cli), then time the
        reference workload; prints the set-up time and the reference time.

SPAWN is the parent's time.monotonic() just before it started this process;
on Linux that clock is shared by all processes, so set-up time is measured
from process spawn to the first job issued.

A round also times ``reference_kernel``, a fixed pure-Python workload that
runs no torofree code, before each job and after the last one, outside the
jobs' time, and reports these times as ``kernels`` and their median as
``kernel_s``; a probe times it PROBE_KERNEL_RUNS times after set-up and
reports the median.  run.py uses them to take out drift in the machine's
speed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

CLI_TIMEOUT = 60
PROBE_KERNEL_RUNS = 5


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_kernel() -> float:
    """Seconds taken by exact-rational dictionary arithmetic like the program's.

    The collector is off while it runs, so that its time does not follow the
    number of objects the program keeps alive.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        q = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(2)}
        for _ in range(2):
            p = {(0, 0): Fraction(1)}
            for _ in range(6):
                out: dict = {}
                for ea, ca in p.items():
                    for eb, cb in q.items():
                        e = (ea[0] + eb[0], ea[1] + eb[1])
                        out[e] = out.get(e, 0) + ca * cb
                p = out
        return time.perf_counter() - t0
    finally:
        gc.enable()


def pin_to_current_cpu() -> None:
    """Keep this process and the processes it starts on the CPU it runs on.

    The reference workload then runs on the same CPU as the jobs whose times
    it scales, CLI subprocesses included; on a shared machine the CPUs' speeds
    differ from moment to moment.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # no CPU placement on this platform; the scaling still applies


def run_round(workload: str, seed: int, trace: bool, spawn: float, tmpdir: str) -> dict:
    if workload == "cli":
        import cliwork

        jobs = cliwork.build(seed, tmpdir)
        return _cli_round(jobs, trace, spawn, tmpdir)
    import workloads

    jobs = workloads.build(workload, seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    setup_s = time.monotonic() - spawn
    results, kernel = [], []
    for i, job in enumerate(jobs):
        kernel.append(reference_kernel())
        if tracer is not None:
            with tracer.job_span(i) as dur:
                reason = workloads.run_job(job)
            wall = dur[0]
        else:
            t0 = time.perf_counter()
            reason = workloads.run_job(job)
            wall = time.perf_counter() - t0
        known = bool(reason) and workloads.is_known(job, reason)
        results.append([job.label, wall, reason, known])
    kernel.append(reference_kernel())
    return {
        "setup_s": setup_s,
        "kernels": kernel,
        "kernel_s": statistics.median(kernel),
        "jobs": results,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "trace": tracer.summary() if tracer is not None else None,
    }


def _cli_round(jobs, trace: bool, spawn: float, tmpdir: str) -> dict:
    import cliwork
    from tracer import merge

    env = dict(os.environ, PYTHONPATH=str(SRC))
    tracefile = str(Path(tmpdir) / "cli-trace.json")
    outputs: dict = {}
    results, summaries, kernel = [], [], []
    startup = 0.0
    setup_s = time.monotonic() - spawn
    for job in jobs:
        kernel.append(reference_kernel())
        if trace:
            argv = [sys.executable, str(HERE / "clichild.py"), tracefile, *job.args]
        else:
            argv = [sys.executable, "-m", "torofree.cli", *job.args]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, env=env, cwd=str(ROOT),
                                  timeout=CLI_TIMEOUT)
            reason = cliwork.check_output(job, proc.returncode, proc.stdout, outputs)
        except subprocess.TimeoutExpired:
            reason = f"timed out after {CLI_TIMEOUT} s"
        except Exception as exc:  # a malformed output is a failed verdict
            reason = f"raised {type(exc).__name__}: {exc}"[:300]
        wall = time.perf_counter() - t0
        if trace and os.path.exists(tracefile):
            with open(tracefile, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(tracefile)
            summaries.append(child["summary"])
            startup += wall - child["main_s"] - child["harness_s"]
        results.append([job.label, wall, reason, False])
    summary = None
    if trace:
        summary = merge(summaries)
        summary["cli.startup_s"] = startup
    kernel.append(reference_kernel())
    return {
        "setup_s": setup_s,
        "kernels": kernel,
        "kernel_s": statistics.median(kernel),
        "jobs": results,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        "trace": summary,
    }


def probe(workload: str, seed: int, spawn: float) -> dict:
    if workload == "cli":
        import torofree.cli  # noqa: F401  (the import is what is timed)
    else:
        import workloads

        workloads.build(workload, seed)
    setup_s = time.monotonic() - spawn
    kernel = [reference_kernel() for _ in range(PROBE_KERNEL_RUNS)]
    return {"setup_s": setup_s, "kernel_s": statistics.median(kernel)}


def main(argv: list[str]) -> int:
    pin_to_current_cpu()
    mode = argv[0]
    if mode == "round":
        workload, seed, trace, tmpdir, spawn = argv[1:6]
        out = run_round(workload, int(seed), trace == "1", float(spawn), tmpdir)
    elif mode == "probe":
        out = probe(argv[1], int(argv[2]), float(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
