"""The one job runner: `sweep`, `validate` and the acceptance gate map their
independent jobs through map_jobs.

Threads, not processes: numpy releases the interpreter lock in its generator
fills and ufuncs, which do the work of a Monte Carlo run, and a thread costs
no interpreter start-up.  Every job owns its inputs and its generator, so a
job list gives the same results on any number of threads.

Each thread knows how many cores it may keep busy (cores): a map_jobs pool
thread gets its share of the caller's, max(1, cores // workers), and any
other thread all of os.cpu_count().  A Monte Carlo walk starts its helper
thread only where that is two or more, so no job list keeps more threads
busy than there are cores.
"""

import os
import threading

_thread = threading.local()  # the cores of a map_jobs pool thread


def cores():
    """The cores the calling thread may keep busy: its pool's share on a
    map_jobs pool thread, os.cpu_count() on any other."""
    return getattr(_thread, "cores", None) or os.cpu_count() or 1


def map_jobs(fn, items, workers):
    """[fn(item) for item in items], in order, on min(workers, len(items))
    threads; serial, on the calling thread, at one.

    Each pool thread runs its jobs with max(1, cores() // threads) cores of
    the caller's: on 2 CPUs, two threads get one core each and one thread
    runs serially with both.  A job's exception reaches the caller.  When a
    job raises, or the caller is interrupted, the jobs not yet started are
    cancelled and the running ones finish before this returns.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: `point` and one-worker sweeps never build a pool
    from concurrent.futures import ThreadPoolExecutor

    share = max(1, cores() // workers)

    def run(item):
        _thread.cores = share
        return fn(item)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
