"""uavcov benchmark: run workloads, check their outputs, print every metric.

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload analytic_grid --seed 3 --seconds 20
    python3 perfbench/run.py --workload mc_downlink --trace 1   # per-layer run

Run it from the repository root.  Each workload runs in its own fresh
interpreter (perfbench/worker.py) with OMP/OpenBLAS/MKL threads pinned to 1,
so set-up time, peak RSS and lazy caches never carry over from another
workload; set-up is sampled SETUP_SAMPLES times in fresh interpreters and
its median reported.  End-to-end times are scaled to a reference host speed
measured by calibration.py alongside them.  The report lines come first, with
the raw values in brackets; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  Full results, the failed-op list and the host go to
perfbench/out/.  See perfbench/README.md for what each metric means.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("analytic_grid", "mc_downlink", "crosscheck")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
OP_NAMES = {
    "analytic_grid": "analytic.downlink_coverage call",
    "mc_downlink": "montecarlo.estimate_downlink call",
    "crosscheck": "cli.run_sweep row (its wall_ms)",
}

_CALLS = ("jet_exp", "integrate", "gauss_laguerre", "inverse_laplace", "downlink_coverage",
          "jensen_lower_bound", "cellfree_coverage", "effective_density_factor",
          "estimate_downlink", "estimate_cellfree", "guard_radius", "realize_network",
          "GammaTanElevation.expect")
_SELF = ("jet_exp", "integrate", "inverse_laplace", "downlink_coverage", "jensen_lower_bound",
         "cellfree_coverage", "effective_density_factor", "guard_radius", "sample_peak_gain",
         "sample_nearest_sq", "realize_network", "GammaTanElevation.expect", "parse_config",
         "apply_sweep_value", "run_sweep", "evaluate_point", "run_suite")
LAYERS = {
    "numerics": ("jet_exp", "integrate", "gauss_laguerre", "inverse_laplace"),
    "analytic": ("downlink_coverage", "jensen_lower_bound", "cellfree_coverage",
                 "effective_density_factor"),
    "montecarlo": ("estimate_downlink", "estimate_cellfree", "guard_radius",
                   "sample_peak_gain", "sample_nearest_sq"),
    "model": ("realize_network", "GammaTanElevation.expect"),
    "frontend": ("parse_config", "apply_sweep_value", "run_sweep", "evaluate_point",
                 "run_suite"),
}
PER_LAYER = (
    tuple((f"{f}.calls", "count") for f in _CALLS)
    + tuple((f"{f}.self_pct", "%") for f in _SELF)
    + tuple((f"layer.{layer}.self_pct", "%") for layer in LAYERS)
    + tuple((f"{f}.numerical_error_max", "prob")
            for f in ("downlink_coverage", "jensen_lower_bound", "cellfree_coverage"))
    + (
        ("downlink_coverage.integrate_per_call", "count"),
        ("downlink_coverage.jet_exp_pct", "%"),
        ("cellfree_coverage.inversion_frac", "ratio"),
        ("estimate_downlink.mpts_per_s", "Mpt/s"),
        ("estimate_downlink.points_per_realization", "count"),
        ("estimate_cellfree.mpts_per_s", "Mpt/s"),
        ("estimate_cellfree.points_per_realization", "count"),
        ("trace_overhead_s", "s"),
    )
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# -- host --------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _hash_files(paths):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def host_info():
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    cpu_max = _read("/sys/fs/cgroup/cpu.max")
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_hash = _hash_files(glob.glob(os.path.join(SRC, "uavcov", "**", "*.py"), recursive=True))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "cpu_max": cpu_max.strip() if cpu_max else None,
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": src_hash,
        "bench_sha256": _hash_files(glob.glob(os.path.join(HERE, "*.py"))),
    }


# -- children ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_worker(args, deadline):
    """Run worker.py to completion and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(float(seconds))]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(common + ["--setup-only"], deadline))
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"spans_{name}_seed{seed}.json")
    extra = ["--trace", "1", "--trace-path", trace_path] if trace else ["--trace", "0"]
    result = spawn_worker(common + extra, deadline)
    setups.append({k: result[k] for k in ("setup_s", "setup_speed_factor")})
    result["setup_samples"] = setups
    result["setup_s_raw"] = statistics.median(s["setup_s"] for s in setups)
    result["setup_s"] = statistics.median(s["setup_s"] * s["setup_speed_factor"] for s in setups)
    if trace:
        result["spans_file"] = os.path.relpath(trace_path, ROOT)
    return result


# -- determinism -------------------------------------------------------------------


def check_digest(result, host):
    """Compare with earlier runs of this seed and this code, and with the baseline."""
    key = f"{result['workload']}:{result['seed']}"
    code_key = f"{key}:{host['src_sha256'][:16]}:{host['bench_sha256'][:16]}"
    path = os.path.join(OUT, "digests.json")
    seen = json.loads(_read(path) or "{}")
    problems = []
    if not result["deterministic"]:
        problems.append("passes of one run returned different values")
    if code_key in seen and seen[code_key] != result["digest"]:
        problems.append(f"digest {result['digest'][:16]} differs from an earlier run of "
                        f"this seed on the same code ({seen[code_key][:16]})")
    seen.setdefault(code_key, result["digest"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    baseline = json.loads(_read(os.path.join(HERE, "baseline.json")) or "{}")
    base = baseline.get("digests", {}).get(key)
    note = None
    if base is not None and base != result["digest"]:
        note = ("values differ from the baseline digest for this seed: the results or the "
                "Monte Carlo stream changed; say so and check it statistically")
    return problems, note


# -- metrics and report ------------------------------------------------------------


def scaled(result):
    """End-to-end values with every time scaled to the reference host (calibration.py)."""
    f = result["speed_factor"]
    out = {"setup_s": result["setup_s"], "wall_s": result["wall_s"] * f,
           "op_ms_p50": result["op_ms_p50"] * f, "op_ms_p90": result["op_ms_p90"] * f,
           "peak_rss_mb": result["peak_rss_mb"]}
    for name, (value, unit, n) in result["extras"].items():
        out[name] = value / f if unit == "1/s" else value * f
    return out


def end_to_end(result):
    values = scaled(result)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def per_layer(result):
    layers = result["layers"]

    def get(fn, key):
        return float(layers.get(fn, {}).get(key, 0.0))

    values = {}
    for fn in _CALLS:
        values[f"{fn}.calls"] = get(fn, "calls")
    for fn in _SELF:
        values[f"{fn}.self_pct"] = get(fn, "self_pct")
    for layer, fns in LAYERS.items():
        values[f"layer.{layer}.self_pct"] = sum(get(fn, "self_pct") for fn in fns)
    for fn in ("downlink_coverage", "jensen_lower_bound", "cellfree_coverage"):
        values[f"{fn}.numerical_error_max"] = get(fn, "numerical_error_max")
    values["downlink_coverage.integrate_per_call"] = get("downlink_coverage", "integrate_per_call")
    values["downlink_coverage.jet_exp_pct"] = get("downlink_coverage", "jet_exp_pct")
    values["cellfree_coverage.inversion_frac"] = get("cellfree_coverage", "inversion_frac")
    for fn in ("estimate_downlink", "estimate_cellfree"):
        ns = get(fn, "ns_per_point")
        values[f"{fn}.mpts_per_s"] = 1e3 / ns if ns else 0.0
        values[f"{fn}.points_per_realization"] = get(fn, "points_per_realization")
    values["trace_overhead_s"] = float(result["trace_overhead_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def fail_frac(result):
    probes = result["probes"]
    failed = result["failed"] + sum(p["failed"] for p in probes)
    attempted = result["attempted"] + len(probes)
    return failed, attempted


def report(result, problems, note):
    name = result["workload"]
    lines = [f"== {name}  seed {result['seed']}  "
             f"({result['passes']} timed passes after a {result['warmup_s']:.2f} s warm-up)"]

    def row(metric, value, unit, samples):
        lines.append(f"  {metric:<40} {value:>14.6g} {unit:<6} {samples}")

    if "layers" not in result:
        v = scaled(result)
        f = result["speed_factor"]
        lines.append(f"  times scaled to the reference host by {f:.4f} (calibration kernel "
                     f"median {statistics.median(result['calibration_s']) * 1e3:.1f} ms over "
                     f"{len(result['calibration_s'])} samples); raw values in brackets")
        row("setup_s", v["setup_s"], "s", f"[{result['setup_s_raw']:.4g}] median of "
            f"{len(result['setup_samples'])} set-ups, each scaled by its own calibration")
        row("wall_s", v["wall_s"], "s", f"[{result['wall_s']:.4g}] median of "
            f"{result['passes']} passes")
        for q in ("p50", "p90"):
            row(f"op_ms_{q}", v[f"op_ms_{q}"], "ms", f"[{result[f'op_ms_{q}']:.4g}] "
                f"n={result['op_samples']}; op = {OP_NAMES[name]}")
        for metric, (value, unit, n) in result["extras"].items():
            row(metric, v[metric], unit, f"[{value:.4g}] n={n}")
        row("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the workload process")
    failed, attempted = fail_frac(result)
    row("fail_frac", failed / attempted, "ratio",
        f"{failed}/{attempted} ops: {result['failed']}/{result['attempted']} timed, "
        f"{sum(p['failed'] for p in result['probes'])}/{len(result['probes'])} known-defect probes")
    for f in result["failures"]:
        lines.append(f"  FAILED {f['label']}: {f['message']}")
    for p in result["probes"]:
        status = f"FAILED {p['message']}" if p["failed"] else "passed"
        lines.append(f"  probe {p['label']} ({p['seconds'] * 1e3:.1f} ms): {status}")
    if "layers" in result:
        lines.append(f"  {'function':<26} {'calls/pass':>11} {'self_ms/pass':>13} {'self %':>8}"
                     f" {'ns/point':>9}")
        for fn, r in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_ms"]):
            ns = f"{r['ns_per_point']:9.1f}" if "ns_per_point" in r else ""
            lines.append(f"  {fn:<26} {r['calls']:>11.1f} {r['self_ms']:>13.3f}"
                         f" {r['self_pct']:>8.2f} {ns}")
        row("trace_overhead_s", result["trace_overhead_s"], "s",
            "median traced pass - median untraced pass")
    lines.append(f"  digest {result['digest'][:16]}")
    for p in problems:
        lines.append(f"  NONDETERMINISTIC: {p}")
    if note:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description="uavcov benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uavcov", "__init__.py")):
        print(f"error: no uavcov sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S * (3 if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    host = host_info()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        problems, note = check_digest(result, host)
        result["host"] = host
        result["digest_problems"] = problems
        suffix = "_trace" if args.trace else ""
        with open(os.path.join(OUT, f"result_{name}_seed{args.seed}{suffix}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(report(result, problems, note), flush=True)
        if problems:
            print(f"error: {name}: results are not deterministic: {'; '.join(problems)}",
                  file=sys.stderr)
        metrics = per_layer(result) if args.trace else end_to_end(result)
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] = summary["correct"] and not problems and result["failed"] == 0 \
            and result["attempted"] > 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
