"""The one job runner: `sweep`, `validate` and the acceptance gate map their
independent jobs through map_jobs.

Threads, not processes: numpy releases the interpreter lock in its generator
fills and ufuncs, which do the work of a Monte Carlo run, and a thread costs
no interpreter start-up.  Every job owns its inputs and its generator, so a
job list gives the same results on any number of threads.
"""


def map_jobs(fn, items, workers):
    """[fn(item) for item in items], in order, on min(workers, len(items))
    threads; serial, on the calling thread, at one.

    A job's exception reaches the caller.  When a job raises, or the caller
    is interrupted, the jobs not yet started are cancelled and the running
    ones finish before this returns.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: `point` and one-worker sweeps never build a pool
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)
