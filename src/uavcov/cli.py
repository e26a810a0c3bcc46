"""Command-line front-end: sweep, point, validate.

`sweep <config>` runs the configured parameter sweep and writes one row per
point (CSV by default); `point <config>` evaluates the base configuration
once and prints JSON; `validate <suite>` runs a cross-check suite, prints
the JSON report to stdout and PASS/FAIL lines to stderr.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numeric
error in at least one point (failed points carry nan cells; the run still
completes).
"""

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import validation
from .analytic import cellfree_coverage, downlink_coverage
from .config import ConfigError, apply_sweep_value, parse_config
from .montecarlo import estimate_cellfree, estimate_downlink, estimate_sweep

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


# sweep axes on which one Monte Carlo draw serves every row (estimate_sweep)
_SHARED_AXES = ("beta", "lambda")


def _analytic_value(metric, params, elev):
    if metric == "cellfree":
        return cellfree_coverage(params, elev).value
    return downlink_coverage(params, elev).value


def _mc_estimate(metric, params, elev, n_samples, seed, guard_tolerance):
    fn = estimate_cellfree if metric == "cellfree" else estimate_downlink
    return fn(params, elev, n_samples, seed, guard_tolerance=guard_tolerance)


def _timed(job):
    """Worker: job = (fn, args).  Returns ((result, error message), seconds);
    a raised exception gives (None, its message)."""
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
        value, error = analytic
        row["p_analytic"] = float("nan") if error else value
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
        pa, pm, se = row["p_analytic"], row["p_mc"], row["mc_stderr"]
        if np.isfinite(pa) and np.isfinite(pm):
            diff = pa - pm
            if se > 0.0:
                row["z_score"] = diff / se
            else:
                row["z_score"] = 0.0 if diff == 0.0 else float("inf")
        else:
            row["z_score"] = float("nan")
    if errors:
        row["error"] = "; ".join(errors)
    return row


def evaluate_point(task):
    """Worker: one sweep point.  task is a plain tuple so it pickles.

    Returns a row dict; numeric failures set the affected cells to nan and
    carry the message in 'error' instead of raising.
    """
    (sweep_var, sweep_value, metric, mode, params, elev, n_samples, seed,
     guard_tolerance) = task
    analytic = mc = None
    a_seconds = mc_seconds = 0.0
    if mode in ("analytic", "both"):
        analytic, a_seconds = _timed((_analytic_value, (metric, params, elev)))
    if mode in ("montecarlo", "both"):
        mc, mc_seconds = _timed(
            (_mc_estimate, (metric, params, elev, n_samples, seed, guard_tolerance)))
    return _row(sweep_var, sweep_value, analytic, mc, n_samples, seed, a_seconds + mc_seconds)


def _build_tasks(cfg):
    axis = cfg.sweep
    if axis is None:
        raise ConfigError("sweep_variable", "the sweep command needs a sweep")
    values = axis.values()
    seeds = np.random.SeedSequence(cfg.master_seed).generate_state(
        len(values), dtype=np.uint64
    )
    tasks = []
    for value, seed in zip(values, seeds):
        try:
            params, elev = apply_sweep_value(cfg, float(value))
        except Exception as exc:
            tasks.append(("__bad__", float(value), str(exc)))
            continue
        tasks.append(
            (
                axis.variable,
                float(value),
                cfg.metric,
                cfg.mode,
                params,
                elev,
                cfg.n_samples,
                int(seed),
                cfg.guard_tolerance,
            )
        )
    return tasks


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


def _map(fn, items, workers):
    if workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _shared_rows(good, workers):
    """Rows of a beta or lambda sweep whose Monte Carlo half is one run.

    The run uses the first row's seed, and every row reports it.  A row's
    wall_ms is its own analytic time plus an equal share of the run, so the
    rows still add up to the sweep's time.
    """
    _, _, metric, mode, _, elev, n_samples, seed, guard_tolerance = good[0]
    row_params = [t[4] for t in good]
    jobs = [(estimate_sweep,
             (metric, row_params, elev, n_samples, seed, None, guard_tolerance))]
    if mode == "both":
        jobs += [(_analytic_value, (metric, t[4], t[5])) for t in good]
    ((estimates, mc_error), mc_seconds), *analytic = _map(_timed, jobs, workers)
    share = mc_seconds / len(good)
    rows = []
    for j, t in enumerate(good):
        a, a_seconds = analytic[j] if analytic else (None, 0.0)
        mc = (None if mc_error else estimates[j], mc_error)
        rows.append(_row(t[0], t[1], a, mc, n_samples, seed, a_seconds + share))
    return rows


def run_sweep(cfg, workers=1):
    """Evaluate every sweep point; deterministic row order by sweep index.

    A beta or lambda sweep with a Monte Carlo half draws once for all of
    its rows (montecarlo.estimate_sweep); other axes run one draw per row.
    """
    tasks = _build_tasks(cfg)
    good = [t for t in tasks if t[0] != "__bad__"]
    if good and cfg.mode != "analytic" and cfg.sweep.variable in _SHARED_AXES:
        computed = iter(_shared_rows(good, workers))
    else:
        computed = iter(_map(evaluate_point, good, workers))
    rows = []
    variable = cfg.sweep.variable
    for t in tasks:
        if t[0] == "__bad__":
            rows.append(_bad_row(variable, t[1], t[2]))
        else:
            rows.append(next(computed))
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
    seed = int(
        np.random.SeedSequence(cfg.master_seed).generate_state(1, dtype=np.uint64)[0]
    )
    task = (
        "",
        float("nan"),
        cfg.metric,
        cfg.mode,
        cfg.params,
        cfg.elevation,
        cfg.n_samples,
        seed,
        cfg.guard_tolerance,
    )
    row = evaluate_point(task)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Aerial-base-station coverage: analytic vs Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("config", help="config file path, or - for stdin")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1)")
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
