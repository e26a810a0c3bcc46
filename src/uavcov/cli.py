"""Command-line front-end: sweep, point, validate.

`sweep <config>` runs the configured parameter sweep and writes one row per
point (CSV by default); `point <config>` evaluates the base configuration
once and prints JSON; `validate <suite>` runs a cross-check suite, prints
the JSON report to stdout and PASS/FAIL lines to stderr.  `validate gate`
runs the acceptance gate, one line per criterion; it refuses `--n-samples`
and `--seed` (exit 2), since its criteria fix their own.

`sweep` and `point` share one path, run_sweep: `point` is the config with
its sweep removed, which is one point.  The points are grouped into Monte
Carlo draws by montecarlo.shares_draw (see run_sweep).  Every draw and
every analytic value is one evaluate_point job for jobs.map_jobs.
`--workers` takes 1 to os.cpu_count() worker threads, and no more threads
start than there are jobs; the rows do not depend on the thread count.

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
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import validation
from .analytic import cellfree_coverage, downlink_coverage, load_special
from .config import ConfigError, check_caps, parse_config, points
from .jobs import map_jobs
from .montecarlo import estimate_sweep, shares_draw

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


def evaluate_point(job):
    """Run one job = (fn, args).  Returns ((result, error message),
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
    and carry the message in 'error'.  method and numerical_error come from
    the analytic half: None without one or when it failed.  They appear in
    JSON output only; CSV writes CSV_COLUMNS.
    """
    row = {
        "sweep_var": sweep_var,
        "sweep_value": sweep_value,
        "p_analytic": None,
        "method": None,
        "numerical_error": None,
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
        if error:
            row["p_analytic"] = float("nan")
            errors.append(f"analytic: {error}")
        else:
            row["p_analytic"] = result.value
            row["method"] = result.method
            row["numerical_error"] = result.numerical_error
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
        "method": None,
        "numerical_error": None,
        "p_mc": float("nan"),
        "mc_stderr": float("nan"),
        "z_score": float("nan"),
        "n_samples": None,
        "seed": None,
        "wall_ms": None,
        "error": message,
    }


def run_sweep(cfg, workers=1):
    """Evaluate every point of cfg; rows in sweep order.

    Points that do not build become error rows.  The others make one Monte
    Carlo draw, at the first good row's seed, when montecarlo.shares_draw
    admits them all, and one draw each otherwise; mode = analytic has none.
    Rows of one draw are correlated, and a draw over several theta_bar is
    made at the largest guard radius of its rows, so even its first row
    differs from a standalone run of that point.  Each draw and each
    analytic value is one evaluate_point job.  A row's wall_ms is its
    analytic time plus its draw's time over the draw's size, so the rows
    add up to the run's time less the one-time scipy.special import that an
    analytic downlink run makes before its jobs.
    """
    variable = "" if cfg.sweep is None else cfg.sweep.variable
    pts = points(cfg)
    good = [i for i, point in enumerate(pts) if point[3] is None]
    draws = []
    if cfg.mode != "analytic" and good:
        draws = [good] if shares_draw([pts[i][2] for i in good]) else [[i] for i in good]
    analytic = [] if cfg.mode == "montecarlo" else good
    coverage = cellfree_coverage if cfg.metric == "cellfree" else downlink_coverage
    jobs = []
    for draw in draws:
        seed = pts[draw[0]][1]
        params, elevs = zip(*(pts[i][2] for i in draw))
        jobs.append((estimate_sweep, (cfg.metric, list(params), list(elevs), cfg.n_samples,
                                      seed, None, cfg.guard_tolerance)))
    jobs += [(coverage, pts[i][2]) for i in analytic]
    if analytic and coverage is downlink_coverage:
        load_special()  # its series needs it: loaded before the clock starts
    done = iter(map_jobs(evaluate_point, jobs, workers))
    mc_out = {}
    for draw in draws:
        (estimates, error), seconds = next(done)
        for j, i in enumerate(draw):
            mc = (None if error else estimates[j]), error
            mc_out[i] = mc, pts[draw[0]][1], seconds / len(draw)
    a_out = {i: next(done) for i in analytic}
    rows = []
    for i, (value, _, _, error) in enumerate(pts):
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
        out_path = args.output if args.output is not None else cfg.output_path
        # opened before the run, so an unwritable path costs no computation
        if out_path is None or out_path == "-":
            out = sys.stdout
        else:
            out = open(out_path, "w", encoding="utf-8", newline="")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fmt = args.format if args.format is not None else cfg.output_format
    with out if out is not sys.stdout else nullcontext():
        rows = run_sweep(cfg, workers=args.workers)
        (write_json if fmt == "json" else write_csv)(rows, out)
    failed = [r for r in rows if r["error"]]
    for r in failed:
        print(
            f"point {r['sweep_var']} = {r['sweep_value']}: {r['error']}",
            file=sys.stderr,
        )
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_point(args):
    try:
        cfg = replace(parse_config(_read_config(args.config)), sweep=None)
        check_caps(cfg)  # parse_config checked the sweep's rows, not this point
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    row = run_sweep(cfg)[0]
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


def _integer(low, high=None):
    """argparse type: an integer in low..high (no upper bound without high)."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low or high is not None and n > high:
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {n}")
        return n
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Aerial-base-station coverage: analytic vs Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("config", help="config file path, or - for stdin")
    p_sweep.add_argument("--workers", type=_integer(1, os.cpu_count() or 1), default=1,
                         help="worker threads, 1 to the CPU count (default 1); "
                              "the rows do not depend on it")
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
    p_val.add_argument("--n-samples", type=_integer(1), default=None,
                       help="override Monte Carlo sample count (>= 1)")
    p_val.add_argument("--seed", type=_integer(0), default=None,
                       help="override the suite master seed (>= 0)")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
