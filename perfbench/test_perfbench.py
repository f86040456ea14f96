"""Self-tests of the benchmark: seeded inputs, verdict checks, span accounting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cliwork  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from torofree import repmods as R  # noqa: E402
from torofree.polyalg import Poly  # noqa: E402
from tracer import LAYER_NAMES, Tracer  # noqa: E402


def _inputs(job) -> list[str]:
    """The values a job closes over, rendered comparably."""
    out = [job.label]
    for cell in job.run.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, R.ModuleSpec):
            out.append(json.dumps(R.spec_to_json(v), sort_keys=True))
        elif isinstance(v, Poly):
            out.append(v.text())
        elif isinstance(v, list):
            out.append(repr([p.text() if isinstance(p, Poly) else p for p in v]))
        elif not callable(v):
            out.append(repr(v))
    return out


def test_generators_are_deterministic_under_a_seed(tmp_path):
    for workload in ("axioms", "search", "blackbox"):
        first = [_inputs(j) for j in W.build(workload, 11)]
        assert first == [_inputs(j) for j in W.build(workload, 11)], workload
        assert first != [_inputs(j) for j in W.build(workload, 12)], workload
    runs = []
    for seed in (11, 11, 12):
        d = tmp_path / str(len(runs))
        d.mkdir()
        jobs = cliwork.build(seed, str(d))
        files = sorted(p.read_text() for p in d.iterdir())
        runs.append(([j.label for j in jobs], [[a.replace(str(d), "") for a in j.args]
                                                for j in jobs], files))
    assert runs[0] == runs[1] and runs[0] != runs[2]


def test_every_workload_job_passes_or_fails_with_a_known_defect():
    for workload in ("axioms", "blackbox"):
        for job in W.build(workload, 3):
            reason = W.run_job(job)
            assert reason is None or W.is_known(job, reason), (job.label, reason)


def test_checker_flags_a_planted_wrong_verdict():
    spec = W.make_spec("A", 1, "toroidal", 1, (F(2),), None, (F(3),), F(1, 3), {1})
    planted = W.iso_job("planted iso", spec, spec, expected=False)
    reason = W.run_job(planted)
    assert reason == "iso_test returned True, expected False"
    assert not W.is_known(planted, reason)
    # a corrupted action must fail the suite it is checked by
    corrupt = W.suite_job("planted suite", "bracket_compat_check", spec, W.W2, samples=1,
                          seed=0, action=lambda s, g, p: R.act(s, g, p).scale(2))
    assert W.run_job(corrupt) is not None
    # a defect tag does not excuse a different failure
    tagged = W.iso_job("tagged", spec, spec, expected=False, defect="iso-raw-parameters")
    assert not W.is_known(tagged, W.run_job(tagged))
    rounds = [{"jobs": [[planted.label, 0.1, reason, False], ["ok", 0.1, None, False]]}]
    assert run.outcome(rounds)[:3] == (2, 1, False)
    known = [{"jobs": [["flip", 0.1, "iso_test returned False, expected True", True]]}]
    assert run.outcome(known)[:3] == (1, 1, True)


def test_cli_checker_flags_exit_codes_and_rerun_bytes(tmp_path):
    jobs = cliwork.build(5, str(tmp_path))
    first, second = jobs[0], jobs[1]
    assert second.first is first
    outputs: dict = {}
    assert cliwork.check_output(first, 1, b"{}", outputs) == "exit code 1"
    assert cliwork.check_output(second, 0, b'{"x": 1}', outputs) == "rerun stdout differs"


def test_span_self_times_sum_to_the_traced_wall_time():
    jobs = [j for j in W.build("axioms", 5) if "A1-toroidal" in j.label]
    jobs += [j for j in W.build("blackbox", 5) if j.label.startswith(("recover A1", "iso"))]
    tracer = Tracer()
    tracer.install([W])
    try:
        wall = 0.0
        for i, job in enumerate(jobs):
            with tracer.job_span(i) as dur:
                reason = W.run_job(job)
            wall += dur[0]
            assert reason is None or W.is_known(job, reason), (job.label, reason)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    total_self = sum(tracer.self_times())
    assert abs(total_self - wall) <= 1e-9 * len(tracer.start) + 1e-9
    assert summary["job.calls"] == len(jobs)
    assert all(st >= -1e-9 for st in tracer.self_times())
    for name in ("polyalg.init", "polyalg.mul", "polyalg.shift", "repmods.act",
                 "repmods.act_element", "verify.bracket_compat", "classify.recover",
                 "classify.oracle_eval", "classify.iso"):
        assert summary[f"{name}.calls"] > 0, name
    assert summary["polyalg.mul.ops"] >= summary["polyalg.mul.calls"]
    # uninstall restores the program's own bindings and default arguments
    from torofree import classify, verify

    assert "traced" not in R.act.__qualname__
    assert verify.bracket_compat_check.__defaults__[-1] is R.act
    assert classify.divides.__name__ == "divides"
    assert len(LAYER_NAMES) == len(set(LAYER_NAMES))
