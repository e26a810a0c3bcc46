"""CLI behavior: schemas, exit codes, worker parity, shared-draw sweeps,
validate wiring."""

import concurrent.futures
import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

import uavcov.cli as cli
import uavcov.montecarlo as mc
from uavcov.analytic import downlink_coverage
from uavcov.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    run_sweep,
    write_csv,
)
from uavcov.config import SweepAxis, apply_sweep_value, parse_config
from uavcov.model import ConstantElevation, InvalidParameterError, NetworkParams
from uavcov.montecarlo import estimate_cellfree, estimate_downlink

E25 = ConstantElevation(math.radians(25.0))

ANALYTIC_SWEEP = (
    "mode = analytic\n"
    "sweep_variable = theta_bar\n"
    "sweep_start = 10\nsweep_stop = 40\nsweep_steps = 4\n"
)


def _cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_csv_schema_is_stable():
    rows = run_sweep(parse_config(ANALYTIC_SWEEP))
    buf = io.StringIO()
    write_csv(rows, buf)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    assert parsed[0] == list(CSV_COLUMNS)
    assert len(parsed) == 5


def test_analytic_mode_leaves_mc_cells_empty():
    rows = run_sweep(parse_config(ANALYTIC_SWEEP))
    for row, theta in zip(rows, (10.0, 25.0)):
        assert row["p_mc"] is None and row["mc_stderr"] is None
        assert row["z_score"] is None and row["seed"] is None
    p = NetworkParams(density=1e-6)
    want = downlink_coverage(p, ConstantElevation(math.radians(10.0))).value
    assert rows[0]["p_analytic"] == pytest.approx(want, rel=1e-12)


def test_sweep_writes_csv_file_and_exits_clean(tmp_path):
    cfg = _cfg_file(tmp_path, ANALYTIC_SWEEP)
    out = tmp_path / "rows.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert [float(r["sweep_value"]) for r in parsed] == [10.0, 20.0, 30.0, 40.0]
    assert all(r["p_mc"] == "" for r in parsed)
    assert all(float(r["p_analytic"]) > 0.5 for r in parsed)


def test_sweep_json_format(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, ANALYTIC_SWEEP + "output_format = json\n")
    assert main(["sweep", cfg]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert set(CSV_COLUMNS) <= set(rows[0])


def test_sweep_z_scores_consistent(tmp_path, capsys):
    doc = (
        "n_samples = 3000\n"
        "sweep_variable = lambda\n"
        "sweep_start = 1e-7\nsweep_stop = 1e-6\nsweep_steps = 2\n"
        "output_format = json\n"
    )
    assert main(["sweep", _cfg_file(tmp_path, doc)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    for row in rows:
        assert row["n_samples"] == 3000
        se = max(row["mc_stderr"], 1.0 / row["n_samples"])
        z = (row["p_analytic"] - row["p_mc"]) / se
        assert row["z_score"] == pytest.approx(z, rel=1e-12)
        assert abs(row["z_score"]) < 5.0


def test_parallel_workers_match_serial():
    docs = (
        "n_samples = 2000\n"
        "sweep_variable = lambda\n"
        "sweep_start = 1e-7\nsweep_stop = 1e-6\nsweep_steps = 3\n",
        # a cell-free beta sweep: the analytic halves run beside the shared draw
        "metric = cellfree\nmode = both\nguard_tolerance = 3e-4\nn_samples = 600\n"
        "sweep_variable = beta\n"
        "sweep_start = 39\nsweep_stop = 46\nsweep_steps = 3\n",
    )
    for doc in docs:
        cfg = parse_config(doc)
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert len(serial) == len(parallel) == cfg.sweep.steps
        for a, b in zip(serial, parallel):
            a = {k: v for k, v in a.items() if k != "wall_ms"}
            b = {k: v for k, v in b.items() if k != "wall_ms"}
            assert a == b


class _RecordingPool(ThreadPoolExecutor):
    """The runner's executor, recording each pool's max_workers."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)
        super().__init__(max_workers)


def test_pool_starts_no_more_workers_than_jobs(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    two_rows = ("mode = analytic\nsweep_variable = theta_bar\n"
                "sweep_start = 10\nsweep_stop = 20\nsweep_steps = 2\n")
    assert len(run_sweep(parse_config(two_rows), workers=64)) == 2
    # a beta sweep in mode both: one shared draw and three analytic values
    shared = ("n_samples = 200\nsweep_variable = beta\n"
              "sweep_start = -10\nsweep_stop = 0\nsweep_steps = 3\n")
    assert len(run_sweep(parse_config(shared), workers=64)) == 3
    # one job runs in-process: no pool at all
    one_row = two_rows.replace("sweep_steps = 2", "sweep_steps = 1")
    assert len(run_sweep(parse_config(one_row), workers=64)) == 1
    assert _RecordingPool.started == [2, 4]


@pytest.mark.parametrize("value", ["0", "-1", str((os.cpu_count() or 1) + 1), "two"])
def test_workers_outside_one_to_cpu_count_rejected(monkeypatch, tmp_path, capsys, value):
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # no pool may start
    cfg = _cfg_file(tmp_path, ANALYTIC_SWEEP)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", cfg, "--workers", value])
    assert exc.value.code == EXIT_CONFIG
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("metric,beta_db", [("downlink", -10), ("cellfree", 40)])
@pytest.mark.parametrize("axis", ["theta_bar", "beta"])
def test_point_is_the_row_of_a_one_step_sweep(tmp_path, capsys, metric, beta_db, axis):
    # theta_bar rows draw one by one, beta rows share a draw: both give point's row
    base = (f"metric = {metric}\nmode = both\nbeta_db = {beta_db}\ntheta_bar_deg = 25\n"
            "guard_tolerance = 3e-4\nn_samples = 500\nmaster_seed = 9\n")
    at = 25 if axis == "theta_bar" else beta_db
    sweep = base + (f"sweep_variable = {axis}\n"
                    f"sweep_start = {at}\nsweep_stop = {at}\nsweep_steps = 1\n")
    (row,) = run_sweep(parse_config(sweep))
    assert main(["point", _cfg_file(tmp_path, base)]) == EXIT_OK
    point = json.loads(capsys.readouterr().out)
    assert row["error"] is None and row["p_mc"] is not None
    for key in ("seed", "n_samples", "p_analytic", "p_mc", "mc_stderr", "z_score"):
        assert point[key] == row[key], key


def test_point_z_score_finite_when_every_sample_hits(tmp_path, capsys):
    # at -23 dB every one of the 2000 samples is covered, so mc_stderr is 0;
    # the 1/n floor keeps z finite instead of reporting inf (JSON null)
    cfg = _cfg_file(tmp_path, "beta_db = -23\nn_antennas = 2\nn_samples = 2000\nmaster_seed = 2\n")
    assert main(["point", cfg]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["p_mc"] == 1.0 and result["mc_stderr"] == 0.0
    assert result["z_score"] == pytest.approx((result["p_analytic"] - 1.0) * 2000, rel=1e-12)
    assert result["z_score"] == pytest.approx(-0.375, abs=0.01)


def test_negative_master_seed_exits_config(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "mode = montecarlo\nn_samples = 100\nmaster_seed = -3\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    assert "master_seed" in capsys.readouterr().err


def test_point_refuses_oversized_guard_disk(tmp_path, capsys):
    # guard_tolerance 1e-9 puts 6.8e9 points in each realization: parse_config
    # refuses it by arithmetic, before the analytic half runs
    cfg = _cfg_file(tmp_path, "guard_tolerance = 1e-9\nn_samples = 100\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "guard_tolerance" in err and "6.8e+09 points" in err and "16777216" in err


def test_sweep_refuses_too_many_rows_before_listing_them(monkeypatch, tmp_path, capsys):
    # 1e9 steps once built an 8 GB axis before the first row; listing the
    # axis fails this test instead of allocating
    def listed(axis):
        raise AssertionError("the sweep axis was listed")

    monkeypatch.setattr(SweepAxis, "values", listed)
    for mode in ("analytic", "both"):
        cfg = _cfg_file(tmp_path, f"mode = {mode}\nsweep_variable = theta_bar\nsweep_start = 5\n"
                                  "sweep_stop = 60\nsweep_steps = 1000000000\n")
        assert main(["sweep", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sweep_steps" in err and "1000000000" in err and str(mc._MAX_ROWS) in err


@pytest.mark.parametrize("key,value,names", [
    ("alpha", "1e6", "alpha = 1e+06"),
    ("lambda", "1e-300", "lambda = 1e-300"),
    ("lambda", "1e300", "lambda = 1e+300"),
])
def test_analytic_overflow_is_a_typed_error_naming_the_parameter(
        tmp_path, capsys, key, value, names):
    # these raised bare ZeroDivisionError and OverflowError texts
    cfg = _cfg_file(tmp_path, f"mode = analytic\n{key} = {value}\n")
    assert main(["point", cfg]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert names in err and "outside the double range" in err
    params = parse_config(f"mode = analytic\n{key} = {value}\n").params
    with pytest.raises(InvalidParameterError, match=key):
        downlink_coverage(params, E25)


def test_sweep_refuses_a_row_whose_guard_disk_is_oversized(tmp_path, capsys):
    # with NLoS erased the theta 0 row holds 2.9e7 points per realization at
    # guard_tolerance 3e-6, the base point at 25 deg 7.2e5
    cfg = _cfg_file(tmp_path, "ell = 0\nguard_tolerance = 3e-6\nn_samples = 100\n"
                              "sweep_variable = theta_bar\nsweep_start = 0\n"
                              "sweep_stop = 40\nsweep_steps = 3\n")
    assert main(["sweep", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "2.93e+07 points" in err and "theta_bar = 0" in err


def test_point_refuses_its_base_guard_disk_that_parse_config_left_to_it(tmp_path, capsys):
    # parse_config checks a sweep's rows (20..40 deg, 7.3e5 points each) and
    # accepts the document; `point` runs the base at theta 0, 2.93e7 points
    cfg = _cfg_file(tmp_path, "ell = 0\ntheta_bar_deg = 0\nguard_tolerance = 3e-6\n"
                              "n_samples = 100\nsweep_variable = theta_bar\n"
                              "sweep_start = 20\nsweep_stop = 40\nsweep_steps = 3\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "guard_tolerance" in captured.err and "2.93e+07 points" in captured.err


# -- beta and lambda sweeps: one Monte Carlo draw serves every row ---------------

SHARED_SWEEPS = {
    "downlink-beta": (
        "n_samples = 4000\nmaster_seed = 21\n"
        "sweep_variable = beta\nsweep_start = -10\nsweep_stop = 10\nsweep_steps = 5\n"),
    "cellfree-beta": (
        "metric = cellfree\nguard_tolerance = 3e-4\nn_samples = 2000\nmaster_seed = 22\n"
        "sweep_variable = beta\nsweep_start = 38\nsweep_stop = 47\nsweep_steps = 4\n"),
    # noise at -60 dBm makes the low densities noise-limited, so the rows differ
    "downlink-lambda": (
        "noise_dbm = -60\nn_samples = 4000\nmaster_seed = 23\n"
        "sweep_variable = lambda\nsweep_start = 1e-7\nsweep_stop = 1e-5\nsweep_steps = 5\n"),
    "cellfree-lambda": (
        "metric = cellfree\nbeta_db = 40\nguard_tolerance = 3e-4\nn_samples = 2000\n"
        "master_seed = 24\n"
        "sweep_variable = lambda\nsweep_start = 1e-7\nsweep_stop = 1e-5\nsweep_steps = 5\n"),
    "gamma-tan-lambda": (
        "elevation = gamma_tan\nshape = 3\ntheta_bar_deg = 20\nnoise_dbm = -65\n"
        "n_samples = 3000\nmaster_seed = 25\n"
        "sweep_variable = lambda\nsweep_start = 1e-7\nsweep_stop = 1e-5\nsweep_steps = 5\n"),
}


@pytest.mark.parametrize("name", sorted(SHARED_SWEEPS))
def test_shared_draw_rows_agree_with_analytic(name):
    cfg = parse_config(SHARED_SWEEPS[name])
    rows = run_sweep(cfg)
    n = cfg.n_samples
    for row in rows:
        assert row["error"] is None and row["seed"] == rows[0]["seed"]
        z = (row["p_analytic"] - row["p_mc"]) / max(row["mc_stderr"], 1.0 / n)
        assert abs(z) <= 3.0, (row["sweep_value"], row["p_analytic"], row["p_mc"])
    # row 0 is the estimate a single run at its params and seed returns
    params, elev = apply_sweep_value(cfg, rows[0]["sweep_value"])
    fn = estimate_cellfree if cfg.metric == "cellfree" else estimate_downlink
    est = fn(params, elev, n, rows[0]["seed"], guard_tolerance=cfg.guard_tolerance)
    assert (rows[0]["p_mc"], rows[0]["mc_stderr"]) == (est.mean, est.std_error)


def _count_draws(monkeypatch):
    # every chunk of a draw, theta_bar draws included, starts with its counts
    calls = []
    draw = mc._counts

    def counted(*args):
        calls.append(1)
        return draw(*args)

    monkeypatch.setattr(mc, "_counts", counted)
    return calls


@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
@pytest.mark.parametrize("axis,shared", [
    ("sweep_variable = beta\nsweep_start = 38\nsweep_stop = 44\nsweep_steps = 4\n", True),
    ("sweep_variable = lambda\nsweep_start = 1e-7\nsweep_stop = 1e-5\nsweep_steps = 4\n", True),
    ("sweep_variable = theta_bar\nsweep_start = 10\nsweep_stop = 40\nsweep_steps = 4\n", True),
    # the tangent draws depend on theta_bar and shape: one draw per row
    ("elevation = gamma_tan\nshape = 3\n"
     "sweep_variable = theta_bar\nsweep_start = 10\nsweep_stop = 40\nsweep_steps = 4\n", False),
    ("elevation = gamma_tan\nshape = 3\ntheta_bar_deg = 20\n"
     "sweep_variable = shape\nsweep_start = 1\nsweep_stop = 4\nsweep_steps = 4\n", False),
    # the grouping follows the rows, not the axis name: equal rows share a draw
    ("sweep_variable = n_antennas\nsweep_start = 2\nsweep_stop = 2\nsweep_steps = 3\n", True),
    ("sweep_variable = n_antennas\nsweep_start = 1\nsweep_stop = 4\nsweep_steps = 4\n", False),
], ids=["beta", "lambda", "theta_bar", "gamma_tan-theta_bar", "shape", "equal-n_antennas",
        "n_antennas"])
def test_shared_sweeps_draw_once(monkeypatch, metric, axis, shared):
    cfg = parse_config(f"metric = {metric}\nmode = montecarlo\nn_samples = 300\n" + axis)
    calls = _count_draws(monkeypatch)
    rows = run_sweep(cfg)
    sweep_calls = len(calls)
    fn = estimate_cellfree if metric == "cellfree" else estimate_downlink
    per_row = []
    for row in rows:
        del calls[:]
        params, elev = apply_sweep_value(cfg, row["sweep_value"])
        fn(params, elev, cfg.n_samples, row["seed"])
        per_row.append(len(calls))
    if shared:
        # a theta_bar draw is made at its rows' largest guard radius
        assert sweep_calls == max(per_row)
    else:
        assert sweep_calls == sum(per_row) == len(rows) * per_row[0]


THETA_SWEEPS = {
    # theta_sweep.cfg's rows, half of them, at 0 dB, where the optimum near
    # 16 deg shows; cell-free coverage falls from 0.77 to 0.16 over its rows
    "downlink": "lambda = 1e-7\nn_antennas = 4\nbeta_db = 0\nsweep_start = 5\n"
                "sweep_stop = 60\nsweep_steps = 12\nmaster_seed = 31\n",
    "cellfree": "metric = cellfree\nbeta_db = 37\nsweep_start = 10\nsweep_stop = 60\n"
                "sweep_steps = 6\nmaster_seed = 32\n",
}


@pytest.mark.parametrize("metric", sorted(THETA_SWEEPS))
def test_theta_sweep_rows_agree_with_analytic(metric):
    # one shared draw, at the first row's seed, for every row
    cfg = parse_config("n_samples = 20000\nsweep_variable = theta_bar\n" + THETA_SWEEPS[metric])
    rows = run_sweep(cfg)
    for row in rows:
        assert row["error"] is None and row["seed"] == rows[0]["seed"]
        assert abs(row["z_score"]) <= 3.0, (row["sweep_value"], row["p_analytic"], row["p_mc"])


def test_unwritable_output_path_exits_config_before_the_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_sweep", None)  # the run must not start
    out = str(tmp_path / "missing" / "out.csv")
    cfg = _cfg_file(tmp_path, ANALYTIC_SWEEP)
    assert main(["sweep", cfg, "--output", out]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    cfg = _cfg_file(tmp_path, ANALYTIC_SWEEP + f"output_path = {out}\n")
    assert main(["sweep", cfg]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_config(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_config(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "densty = 1e-6\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    assert "densty" in capsys.readouterr().err


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "lambda = 1e-6\n")
    assert main(["sweep", cfg]) == EXIT_CONFIG
    assert "sweep" in capsys.readouterr().err


def test_bad_sweep_point_exits_numeric_but_completes(tmp_path, capsys):
    # theta_bar = 0 is outside the gamma-tan domain; the rest still runs
    doc = (
        "mode = analytic\nelevation = gamma_tan\nshape = 3\n"
        "sweep_variable = theta_bar\n"
        "sweep_start = 0\nsweep_stop = 20\nsweep_steps = 3\n"
    )
    cfg = _cfg_file(tmp_path, doc)
    out = tmp_path / "rows.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "theta_bar = 0.0" in err
    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 3
    assert parsed[0]["p_analytic"] == "nan"
    assert float(parsed[2]["p_analytic"]) > 0.5


@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
@pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
def test_point_refuses_an_infinite_gamma_tan_shape(tmp_path, capsys, mode, metric):
    # an infinite shape once printed 0.0 (analytic downlink) or 1.0
    # (cell-free) with exit 0, and blamed guard_tolerance in Monte Carlo
    cfg = _cfg_file(tmp_path, f"elevation = gamma_tan\nshape = inf\nmode = {mode}\n"
                              f"metric = {metric}\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "config key 'shape'" in captured.err


@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
@pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
def test_point_with_a_failed_w_eff_exits_numeric(tmp_path, capsys, mode, metric):
    # shape 1e20 gives w_eff = inf: the analytic downlink once read 0.7929
    # at every theta_bar and cell-free 1.0, both with exit 0
    cfg = _cfg_file(tmp_path, f"elevation = gamma_tan\nshape = 1e20\nmode = {mode}\n"
                              f"metric = {metric}\nn_samples = 100\n")
    assert main(["point", cfg]) == EXIT_NUMERIC
    assert "w_eff = inf" in capsys.readouterr().err


def test_point_reports_json(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, "mode = analytic\ntheta_bar_deg = 20\n")
    assert main(["point", cfg]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert "sweep_var" not in result and "sweep_value" not in result
    assert result["metric"] == "downlink" and result["mode"] == "analytic"
    want = downlink_coverage(
        NetworkParams(density=1e-6), ConstantElevation(math.radians(20.0))
    ).value
    assert result["p_analytic"] == pytest.approx(want, rel=1e-12)
    assert result["p_mc"] is None


def test_point_refuses_its_base_antenna_count_that_parse_config_left_to_it(tmp_path, capsys):
    # the sweep's rows have 1 and 2 antennas; `point` would run the base's 5000
    cfg = _cfg_file(tmp_path, "mode = analytic\nn_antennas = 5000\nsweep_variable = n_antennas\n"
                              "sweep_start = 1\nsweep_stop = 2\nsweep_steps = 2\n")
    assert main(["point", cfg]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_antennas = 5000" in captured.err and "4096" in captured.err


def test_json_rows_say_how_the_analytic_value_was_computed(tmp_path, capsys):
    assert main(["point", _cfg_file(tmp_path, "mode = analytic\ntheta_bar_deg = 20\n")]) == EXIT_OK
    point = json.loads(capsys.readouterr().out)
    want = downlink_coverage(NetworkParams(density=1e-6), ConstantElevation(math.radians(20.0)))
    assert (point["method"], point["numerical_error"]) == (want.method, want.numerical_error)
    # no analytic half, or a failed one: both null
    mc_only = "mode = montecarlo\nn_samples = 100\n"
    assert main(["point", _cfg_file(tmp_path, mc_only)]) == EXIT_OK
    point = json.loads(capsys.readouterr().out)
    assert point["method"] is None and point["numerical_error"] is None
    assert main(["point", _cfg_file(tmp_path, "mode = analytic\nalpha = 1e6\n")]) == EXIT_NUMERIC
    point = json.loads(capsys.readouterr().out)
    assert point["method"] is None and point["numerical_error"] is None
    sweep = ("metric = cellfree\nmode = analytic\nsweep_variable = beta\n"
             "sweep_start = 30\nsweep_stop = 45\nsweep_steps = 3\n")
    assert main(["sweep", _cfg_file(tmp_path, sweep), "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [row["method"] for row in rows] == ["exact-integration"] * 3
    assert all(0.0 < row["numerical_error"] < 1e-6 for row in rows)
    # CSV keeps its columns
    assert main(["sweep", _cfg_file(tmp_path, sweep), "--format", "csv"]) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",") == list(CSV_COLUMNS)


def test_point_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("mode = analytic\n"))
    assert main(["point", "-"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["p_analytic"] > 0.5


def _fake_report(passed):
    return {
        "suite": "numerics",
        "n_checks": 2,
        "n_failed": 0 if passed else 1,
        "passed": passed,
        "checks": [
            {"name": "alpha", "passed": True, "detail": ""},
            {"name": "bravo", "passed": passed, "detail": "" if passed else "off by 2"},
        ],
    }


@pytest.mark.parametrize("passed,code", [(True, EXIT_OK), (False, EXIT_VALIDATION)])
def test_validate_exit_reflects_report(monkeypatch, capsys, passed, code):
    monkeypatch.setattr(
        "uavcov.validation.run_suite",
        lambda suite, n_samples=None, master_seed=None: _fake_report(passed),
    )
    assert main(["validate", "numerics"]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] is passed
    assert ("FAIL bravo (off by 2)" in captured.err) is not passed
    assert "numerics:" in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--n-samples", "0"), ("--n-samples", "-5"), ("--n-samples", "many"), ("--seed", "-1"),
])
def test_validate_rejects_bad_sample_counts_and_seeds(monkeypatch, capsys, flag, value):
    monkeypatch.setattr("uavcov.validation.run_suite", None)  # no suite may run
    with pytest.raises(SystemExit) as exc:
        main(["validate", "coverage", flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--n-samples", "10"), ("--seed", "3")])
def test_validate_gate_refuses_sample_counts_and_seeds(monkeypatch, capsys, flag, value):
    monkeypatch.setattr("uavcov.validation._gate_jobs", None)  # no gate job may be built
    assert main(["validate", "gate", flag, value]) == EXIT_CONFIG
    assert "'gate'" in capsys.readouterr().err


def test_validate_numerics_suite_end_to_end(capsys):
    assert main(["validate", "numerics"]) == EXIT_OK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] and report["n_failed"] == 0
    assert captured.err.count("PASS") == report["n_checks"]


def test_unknown_suite_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["validate", "everything"])
