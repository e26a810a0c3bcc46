"""The job runner: results in order and independent of the thread count,
job errors reach the caller, and an interrupted caller cancels queued jobs."""

import _thread
import json
import math
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

from uavcov import jobs, montecarlo, validation
from uavcov.analytic import downlink_coverage
from uavcov.jobs import map_jobs
from uavcov.model import ConstantElevation, GammaTanElevation, NetworkParams
from uavcov.montecarlo import estimate_cellfree, estimate_downlink
from uavcov.validation import nearest_sq_check, run_suite

E25 = ConstantElevation(math.radians(25.0))
GAMMA20 = GammaTanElevation(3.0, math.radians(20.0))


def test_suite_report_does_not_depend_on_thread_count(monkeypatch):
    threaded = run_suite("all", n_samples=200, master_seed=3)
    monkeypatch.setattr(validation.os, "cpu_count", lambda: 1)
    serial = run_suite("all", n_samples=200, master_seed=3)
    assert json.dumps(threaded) == json.dumps(serial)
    assert threaded["n_checks"] == 45 and threaded["passed"]


def _job(job):
    kind, n, seed = job
    params = NetworkParams(density=1e-6, n_antennas=n)
    if kind == "downlink":
        return estimate_downlink(params, E25, 400, seed)
    if kind == "gamma_tan":
        return estimate_downlink(params, GAMMA20, 400, seed)
    if kind == "cellfree":
        return estimate_cellfree(NetworkParams(density=1e-6, beta=7575.08), E25, 200, seed,
                                 guard_tolerance=3e-4)
    if kind == "analytic":
        return downlink_coverage(params, GAMMA20 if seed % 2 else E25)
    return nearest_sq_check(params, E25, "los-weighted", 300, seed)


def test_eight_threads_with_fast_switching_match_serial():
    # more threads than cores and a 1 us switch interval: any state shared
    # between jobs would show as a result that differs from the serial one
    kinds = ("downlink", "gamma_tan", "cellfree", "analytic", "ks")
    job_list = [(kinds[i % 5], 1 + i % 4, 40 + i) for i in range(20)]
    serial = map_jobs(_job, job_list, 1)
    out = []
    runner = threading.Thread(target=lambda: out.append(map_jobs(_job, job_list, 8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [serial]


def _walk_job(job):
    metric, elev, n, seed, rows = job
    params = NetworkParams(density=1e-6, n_antennas=n)
    if metric == "cellfree":
        params = replace(params, beta=1e4)
    if rows == 1:
        estimate = estimate_downlink if metric == "downlink" else estimate_cellfree
        return estimate(params, elev, 300, seed)
    sweep = [replace(params, beta=params.beta * (0.5 + 0.01 * i)) for i in range(rows)]
    return montecarlo.estimate_sweep(metric, sweep, elev, 300, seed)


def test_tangent_walks_on_four_threads_with_fast_switching_match_serial(monkeypatch):
    # on 8 CPUs each of four pool threads has two cores, so every walk, of
    # either law, draws its fills on a helper thread of its own, block by
    # block: four jobs at once run eight threads, and small blocks make many
    # hand-offs, so any state shared between walks or a block's fills taken
    # out of order would show as a result that differs from the serial one.
    # The beta sweeps of 100 rows walk the same blocks as one row and
    # gather their rows a few realizations at a time
    monkeypatch.setattr(montecarlo, "_BLOCK_POINTS", 4096)
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 8)
    job_list = [(("downlink", "cellfree")[i % 2], elev, 1 + i % 3, 60 + i, (1, 100)[i // 2 % 2])
                for elev in (GAMMA20, E25) for i in range(12)]
    serial = map_jobs(_walk_job, job_list, 1)
    out = []
    runner = threading.Thread(target=lambda: out.append(map_jobs(_walk_job, job_list, 4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [serial]


@pytest.mark.parametrize("interrupt", ["job-error", "keyboard-interrupt"])
def test_a_job_error_or_interrupt_reaches_the_caller_and_cancels_queued_jobs(interrupt):
    # job 0 ends the caller's wait, by its own error or by a Ctrl-C in the
    # calling (main) thread; jobs 1 and 2 hold both threads until the
    # caller has cancelled the rest, which must never start
    started = []
    second = threading.Event()
    before = set(threading.enumerate())

    def job(i):
        started.append(i)
        if i == 0:
            second.wait(timeout=5.0)  # both threads are up
            if interrupt == "job-error":
                raise RuntimeError("job 0")
            _thread.interrupt_main()
            return i
        second.set()
        time.sleep(0.5)
        return i

    expected = (pytest.raises(RuntimeError, match="job 0") if interrupt == "job-error"
                else pytest.raises(KeyboardInterrupt))
    # interrupt_main does nothing while SIGINT is ignored, as it is in a
    # suite launched in the background; Python's default handler raises
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with expected:
            map_jobs(job, range(10), 2)
    finally:
        signal.signal(signal.SIGINT, old)
    assert second.is_set()
    assert 0 in started and set(started) <= {0, 1, 2}
    for thread in set(threading.enumerate()) - before:  # the pool's threads end
        thread.join(timeout=5.0)
        assert not thread.is_alive()

