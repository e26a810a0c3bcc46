"""Run one workload in this (fresh) interpreter and print its result as JSON.

run.py starts this script once per workload run, and a few more times with
--setup-only to sample the set-up time.  --spawned-at is the parent's
time.monotonic() just before it started this process, so setup_s covers
interpreter start-up, importing uavcov (validation pulls in scipy.stats),
parsing the workload's config documents and filling the Gauss-Laguerre
cache, up to the point where the first op can be issued.

After set-up: the calibration kernel (calibration.py) three times, one
untimed warm-up pass, then timed passes until --seconds have gone by, each
preceded by one untimed run of the calibration kernel.  With --trace 1 the
time is split: passes without tracing first (the baseline for the tracing
overhead), then passes with every public function in tracing.TARGETS
wrapped.  The per-op checks and the Monte Carlo references run after the
timed passes, and the known-defect probes last.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import calibration


def _quantiles(xs):
    """(p50, p90, n) of a sample, p90 from statistics.quantiles' default method."""
    if len(xs) < 2:
        return (xs[0] if xs else float("nan")), (xs[0] if xs else float("nan")), len(xs)
    return statistics.median(xs), statistics.quantiles(xs, n=10)[8], len(xs)


def digest(outcomes):
    """sha256 over the labels and exact float reprs of everything a pass returned."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.label.encode())
        h.update(repr(o.values).encode())
        h.update((o.error or "").encode())
    return h.hexdigest()


def _timed_passes(workload, budget, tracer=None, calibrator=None):
    """Passes back to back for `budget` seconds: (outcomes, seconds, kernel seconds).

    With a calibrator, its kernel is timed before each pass, outside the pass.
    """
    passes, times, kernel = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < budget:
        if calibrator is not None:
            kernel.append(calibrator.measure())
        t0 = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        times.append(time.perf_counter() - t0)
    return passes, times, kernel


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer, n_passes, traced_seconds):
    """Per-pass calls and self times, and the derived per-layer ratios."""
    from tracing import summarize

    rows = summarize([s for s in tracer.spans if s is not None], tracer.notes)
    out = {}
    for name, r in rows.items():
        calls = r["calls"] / n_passes
        out[name] = {
            "calls": calls,
            "self_ms": r["self_s"] * 1e3 / n_passes,
            "self_pct": 100.0 * r["self_s"] / traced_seconds,
            "total_ms": r["total_s"] * 1e3 / n_passes,
        }
        if name in ("downlink_coverage", "jensen_lower_bound", "cellfree_coverage"):
            out[name]["numerical_error_max"] = r["numerical_error_max"]
        if name == "downlink_coverage":
            out[name]["integrate_per_call"] = r["integrate_children"] / r["calls"]
            out[name]["jet_exp_pct"] = 100.0 * r["jet_exp_self_s"] / r["total_s"]
        if name == "cellfree_coverage":
            out[name]["inversion_frac"] = r["inversion_children"] / r["calls"]
        if r["points"]:
            out[name]["ns_per_point"] = r["total_s"] * 1e9 / r["points"]
            out[name]["points_per_realization"] = r["points"] / r["realizations"]
    return out


def run(workload, seconds, trace=False, trace_path=None, calibrator=None):
    """Warm up, time passes, check every pass, run the probes; returns a dict."""
    calibrator = calibrator or calibration.Calibrator()
    t0 = time.perf_counter()
    warm = workload.run_pass()
    warmup_s = time.perf_counter() - t0
    budget = seconds / 2.0 if trace else seconds
    passes, times, calibration_s = _timed_passes(workload, budget, calibrator=calibrator)
    peak_rss = _peak_rss_mb()
    result = {"workload": workload.name, "seed": workload.seed, "warmup_s": warmup_s}

    traced = []
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            traced, traced_times, _ = _timed_passes(workload, budget, tracer)
        result["layers"] = layer_metrics(tracer, len(traced), sum(traced_times))
        result["traced_pass_s"] = traced_times
        result["trace_overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        result["spans"] = len(tracer.spans)
        if trace_path:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans,
                           "notes": {str(k): v for k, v in tracer.notes.items()}}, fh)

    refs = workload.references()
    digests = {digest(p) for p in [warm] + passes + traced}
    failures, attempted, failed = [], 0, 0
    for p in passes:
        fails = workload.check(p, refs)
        attempted += workload.attempted(p)
        failed += len({label for label, _ in fails})
        if not failures:
            failures = [{"label": label, "message": msg} for label, msg in fails]

    latencies = [s for p in passes for s in workload.latencies(p)]
    p50, p90, n_lat = _quantiles(latencies)
    result.update({
        "passes": len(passes),
        "pass_s": times,
        "wall_s": statistics.median(times),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "op_samples": n_lat,
        "extras": workload.extras(passes),
        "peak_rss_mb": peak_rss,
        "calibration_s": calibration_s,
        "speed_factor": calibration.speed_factor(calibration_s),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": sorted(digests)[0],
        "deterministic": len(digests) == 1,
        "probes": workload.run_probes(),
    })
    return result


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-path")
    args = ap.parse_args(argv)

    import uavcov
    import uavcov.cli  # noqa: F401
    import uavcov.validation  # noqa: F401  (imports scipy.stats)
    from uavcov.numerics import gauss_laguerre
    from workloads import WORKLOADS

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(uavcov.__file__).startswith(src + os.sep):
        print(f"error: uavcov was imported from {uavcov.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    for n in (64, 96):  # the node counts downlink_coverage uses
        gauss_laguerre(n)
    setup_s = time.monotonic() - args.spawned_at
    calibrator = calibration.Calibrator()
    setup_speed = calibration.speed_factor(
        [calibrator.measure() for _ in range(calibration.KERNEL_SAMPLES_AFTER_SETUP)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_speed_factor": setup_speed}))
        return 0
    result = run(workload, args.seconds, bool(args.trace), args.trace_path, calibrator)
    result["setup_s"] = setup_s
    result["setup_speed_factor"] = setup_speed
    result["versions"] = _versions()
    result["threads_env"] = {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
