"""Command-line front-end: sweep, point, validate.

`sweep <config>` runs the configured parameter sweep and writes one row per
point (CSV by default); `point <config>` evaluates the base configuration
once and prints JSON; `validate <suite>` runs a cross-check suite, prints
the JSON report to stdout and PASS/FAIL lines to stderr.

`sweep` and `point` share one path, run_sweep: `point` is the config with
its sweep removed, which is one point.  The points are grouped into Monte
Carlo draws: a beta, lambda or constant-elevation theta_bar sweep is one
draw, at its first good row's seed (a theta_bar draw at the largest guard
radius of its rows, so even its first row differs from a standalone run);
any other point is its own draw.  Rows of one draw are correlated.  Every
draw and every analytic value is one job for the same pool worker,
evaluate_point.  `--workers` takes 1 to os.cpu_count(), and no more
processes start than there are jobs.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numeric
error in at least one point (failed points carry nan cells; the run still
completes).
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import validation
from .analytic import cellfree_coverage, downlink_coverage
from .config import ConfigError, apply_sweep_value, parse_config
from .model import ConstantElevation
from .montecarlo import estimate_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_COLUMNS = (
    "sweep_var",
    "sweep_value",
    "p_analytic",
    "p_mc",
    "mc_stderr",
    "z_score",
    "n_samples",
    "seed",
    "wall_ms",
)


# sweep axes on which one Monte Carlo draw serves every row (estimate_sweep);
# theta_bar only under constant elevation, where it moves no tangent draw
_SHARED_AXES = ("beta", "lambda", "theta_bar")


def evaluate_point(job):
    """Pool worker: job = (fn, args).  Returns ((result, error message),
    seconds); a raised exception gives (None, its message)."""
    fn, args = job
    start = time.perf_counter()
    try:
        outcome = fn(*args), None
    except Exception as exc:
        outcome = None, str(exc)
    return outcome, time.perf_counter() - start


def _row(sweep_var, sweep_value, analytic, mc, n_samples, seed, seconds):
    """Assemble one output row.

    analytic and mc are (result, error message) pairs, or None for a half
    the mode does not run; numeric failures set the affected cells to nan
    and carry the message in 'error'.
    """
    row = {
        "sweep_var": sweep_var,
        "sweep_value": sweep_value,
        "p_analytic": None,
        "p_mc": None,
        "mc_stderr": None,
        "z_score": None,
        "n_samples": None,
        "seed": None,
        "wall_ms": round(seconds * 1e3, 3),
        "error": None,
    }
    errors = []
    if analytic is not None:
        result, error = analytic
        row["p_analytic"] = float("nan") if error else result.value
        if error:
            errors.append(f"analytic: {error}")
    if mc is not None:
        est, error = mc
        row["n_samples"] = n_samples
        row["seed"] = seed
        row["p_mc"] = float("nan") if error else est.mean
        row["mc_stderr"] = float("nan") if error else est.std_error
        if error:
            errors.append(f"montecarlo: {error}")
    if analytic is not None and mc is not None:
        ok = analytic[1] is None and mc[1] is None
        row["z_score"] = mc[0].z_score(analytic[0].value) if ok else float("nan")
    if errors:
        row["error"] = "; ".join(errors)
    return row


def _bad_row(variable, value, message):
    return {
        "sweep_var": variable,
        "sweep_value": value,
        "p_analytic": float("nan"),
        "p_mc": float("nan"),
        "mc_stderr": float("nan"),
        "z_score": float("nan"),
        "n_samples": None,
        "seed": None,
        "wall_ms": None,
        "error": message,
    }


def _points(cfg):
    """(value, seed, (params, elevation) or None, error message) per point.

    A config without a sweep is one point, at its base parameters.  The
    seeds are SeedSequence(master_seed).generate_state(n), whose first value
    does not depend on n.
    """
    axis = cfg.sweep
    values = [float("nan")] if axis is None else [float(v) for v in axis.values()]
    seeds = np.random.SeedSequence(cfg.master_seed).generate_state(
        len(values), dtype=np.uint64
    )
    points = []
    for value, seed in zip(values, seeds):
        try:
            setting = (cfg.params, cfg.elevation) if axis is None else apply_sweep_value(cfg, value)
            points.append((value, int(seed), setting, None))
        except Exception as exc:
            points.append((value, int(seed), None, str(exc)))
    return points


def _map(fn, items, workers):
    """[fn(item) for item in items] on min(workers, len(items)) processes."""
    workers = min(workers, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_sweep(cfg, workers=1):
    """Evaluate every point of cfg; rows in sweep order.

    Points that do not build become error rows.  The others are grouped
    into Monte Carlo draws: a beta, lambda or constant-elevation theta_bar
    sweep is one draw at its first good row's seed, which
    montecarlo.estimate_sweep counts for every row; any other point (a
    gamma_tan theta_bar or a shape sweep among them) is its own draw;
    mode = analytic has none.  A theta_bar draw is made at the largest
    guard radius of its rows, so its rows are correlated and even its first
    row differs from a standalone run of that point.  Each draw and each
    analytic value is one evaluate_point job.  A row's wall_ms is its
    analytic time plus its draw's time over the draw's size, so the rows
    add up to the run's time.
    """
    variable = "" if cfg.sweep is None else cfg.sweep.variable
    points = _points(cfg)
    good = [i for i, point in enumerate(points) if point[3] is None]
    shared = variable in _SHARED_AXES and (
        variable != "theta_bar" or isinstance(cfg.elevation, ConstantElevation))
    draws = []
    if cfg.mode != "analytic" and good:
        draws = [good] if shared else [[i] for i in good]
    analytic = [] if cfg.mode == "montecarlo" else good
    coverage = cellfree_coverage if cfg.metric == "cellfree" else downlink_coverage
    jobs = []
    for draw in draws:
        seed = points[draw[0]][1]
        params, elevs = zip(*(points[i][2] for i in draw))
        jobs.append((estimate_sweep, (cfg.metric, list(params), list(elevs), cfg.n_samples,
                                      seed, None, cfg.guard_tolerance)))
    jobs += [(coverage, points[i][2]) for i in analytic]
    done = iter(_map(evaluate_point, jobs, workers))
    mc_out = {}
    for draw in draws:
        (estimates, error), seconds = next(done)
        for j, i in enumerate(draw):
            mc = (None if error else estimates[j]), error
            mc_out[i] = mc, points[draw[0]][1], seconds / len(draw)
    a_out = {i: next(done) for i in analytic}
    rows = []
    for i, (value, _, _, error) in enumerate(points):
        if error is not None:
            rows.append(_bad_row(variable, value, error))
            continue
        a, a_seconds = a_out.get(i, (None, 0.0))
        mc, seed, mc_seconds = mc_out.get(i, (None, None, 0.0))
        rows.append(_row(variable, value, a, mc, cfg.n_samples, seed, a_seconds + mc_seconds))
    return rows


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows, stream):
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])


def _jsonable(row):
    out = {}
    for key, value in row.items():
        if isinstance(value, float) and not np.isfinite(value):
            out[key] = None
        else:
            out[key] = value
    return out


def write_json(rows, stream):
    json.dump([_jsonable(r) for r in rows], stream, indent=2, default=float)
    stream.write("\n")


def _read_config(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_sweep(args):
    try:
        cfg = parse_config(_read_config(args.config))
        if cfg.sweep is None:
            raise ConfigError("sweep_variable", "the sweep command needs a sweep")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_sweep(cfg, workers=args.workers)
    out_path = args.output if args.output is not None else cfg.output_path
    fmt = args.format if args.format is not None else cfg.output_format
    if out_path is None or out_path == "-":
        _write_rows(rows, sys.stdout, fmt)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            _write_rows(rows, fh, fmt)
    failed = [r for r in rows if r["error"]]
    for r in failed:
        print(
            f"point {r['sweep_var']} = {r['sweep_value']}: {r['error']}",
            file=sys.stderr,
        )
    return EXIT_NUMERIC if failed else EXIT_OK


def _write_rows(rows, stream, fmt):
    if fmt == "json":
        write_json(rows, stream)
    else:
        write_csv(rows, stream)


def cmd_point(args):
    try:
        cfg = parse_config(_read_config(args.config))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    row = run_sweep(replace(cfg, sweep=None))[0]
    result = _jsonable(row)
    del result["sweep_var"], result["sweep_value"]
    result["metric"] = cfg.metric
    result["mode"] = cfg.mode
    json.dump(result, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    if row["error"]:
        print(f"error: {row['error']}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_validate(args):
    try:
        report = validation.run_suite(
            args.suite, n_samples=args.n_samples, master_seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    json.dump(report, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        detail = check.get("detail") or ""
        print(f"{status} {check['name']}" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
    print(
        f"{report['suite']}: {report['n_checks'] - report['n_failed']}/"
        f"{report['n_checks']} passed",
        file=sys.stderr,
    )
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


def _worker_count(text):
    limit = os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 1 <= n <= limit:
        raise argparse.ArgumentTypeError(f"must lie in 1..{limit} (the CPU count), got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Aerial-base-station coverage: analytic vs Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("config", help="config file path, or - for stdin")
    p_sweep.add_argument("--workers", type=_worker_count, default=1,
                         help="worker processes, 1 to the CPU count (default 1)")
    p_sweep.add_argument("--output", default=None,
                         help="override output path (- for stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default=None,
                         help="override output format")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_point = sub.add_parser("point", help="evaluate the base config once")
    p_point.add_argument("config", help="config file path, or - for stdin")
    p_point.set_defaults(fn=cmd_point)

    p_val = sub.add_parser("validate", help="run a cross-check suite")
    p_val.add_argument("suite", choices=validation.SUITES)
    p_val.add_argument("--n-samples", type=int, default=None,
                       help="override Monte Carlo sample count")
    p_val.add_argument("--seed", type=int, default=None,
                       help="override the suite master seed")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
