"""Config parsing: defaults, unit conversion, validation."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import uavcov.analytic as analytic
import uavcov.config as config
from uavcov.config import (
    ConfigError,
    RunConfig,
    SweepAxis,
    apply_sweep_value,
    parse_config,
)
from uavcov.model import (
    ConstantElevation,
    GammaTanElevation,
    InvalidParameterError,
    NetworkParams,
)


def test_empty_document_yields_default_scenario():
    cfg = parse_config("")
    p = cfg.params
    assert p.density == 1e-6
    assert p.power == 50.0
    assert p.n_antennas == 1
    assert p.noise == pytest.approx(10.0**-9.25, rel=1e-15)
    assert p.alpha == 2.75
    assert p.ell == 0.25
    assert p.beta == 0.1
    assert (p.c1, p.c2) == (24.5811, 39.5971)
    assert isinstance(cfg.elevation, ConstantElevation)
    assert cfg.elevation.theta_bar == pytest.approx(math.radians(25.0))
    assert cfg.metric == "downlink" and cfg.mode == "both"
    assert cfg.n_samples == 100_000 and cfg.master_seed == 1
    assert cfg.guard_tolerance == 1e-3
    assert cfg.sweep is None and cfg.output_format == "csv"


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# scenario A\n\nlambda = 2e-6  # denser\n")
    assert cfg.params.density == 2e-6


def test_db_and_dbm_units_convert():
    cfg = parse_config("beta_db = -10\nnoise_dbm = -92.5\n")
    assert cfg.params.beta == pytest.approx(0.1, rel=1e-15)
    assert cfg.params.noise == pytest.approx(10.0**-9.25, rel=1e-15)


def test_linear_units_pass_through():
    cfg = parse_config("beta = 0.35\nnoise_mw = 1e-8\n")
    assert cfg.params.beta == 0.35
    assert cfg.params.noise == 1e-8


@pytest.mark.parametrize(
    "doc,key",
    [
        ("beta = 0.1\nbeta_db = -10\n", "beta"),
        ("noise_dbm = -90\nnoise_mw = 1e-9\n", "noise_mw"),
        ("theta_bar_deg = 25\ntheta_bar_rad = 0.4\n", "theta_bar_rad"),
    ],
)
def test_mutually_exclusive_unit_twins(doc, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == key


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as exc:
        parse_config("densty = 1e-6\n")
    assert exc.value.key == "densty"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 2.75\nalpha = 3.0\n")
    assert exc.value.key == "alpha"


def test_missing_equals_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("alpha = 3.0\njust words\n")


def test_non_numeric_value_named():
    with pytest.raises(ConfigError) as exc:
        parse_config("lambda = dense\n")
    assert exc.value.key == "lambda"


def test_parameter_range_violation_blames_config_key():
    # pathloss exponents at or below 2 break every moment in the model
    with pytest.raises(ConfigError) as exc:
        parse_config("alpha = 1.5\n")
    assert exc.value.key == "alpha"
    with pytest.raises(ConfigError) as exc:
        parse_config("lambda = -1e-6\n")
    assert exc.value.key == "lambda"


@pytest.mark.parametrize("doc,key", [
    ("lambda = inf\n", "lambda"),
    ("power_mw = inf\n", "power_mw"),
    ("noise_mw = inf\n", "noise_mw"),
    ("noise_dbm = inf\n", "noise_dbm"),
    ("noise_dbm = nan\n", "noise_dbm"),
    ("noise_dbm = 4000\n", "noise_dbm"),
    ("alpha = inf\n", "alpha"),
    ("ell = nan\n", "ell"),
    ("beta = inf\n", "beta"),
    ("beta_db = inf\n", "beta_db"),
    ("beta_db = 4000\n", "beta_db"),
    ("beta_db = -inf\n", "beta_db"),
    ("c1 = inf\n", "c1"),
    ("c2 = -inf\n", "c2"),
    ("guard_tolerance = inf\n", "guard_tolerance"),
    ("guard_tolerance = nan\n", "guard_tolerance"),
    ("elevation = gamma_tan\nshape = nan\n", "shape"),
    ("elevation = gamma_tan\nshape = inf\n", "shape"),
    ("sweep_variable = beta\nsweep_start = nan\nsweep_stop = 10\n", "sweep_start"),
    ("sweep_variable = lambda\nsweep_start = -inf\nsweep_stop = 1e-5\n", "sweep_start"),
    ("sweep_variable = lambda\nsweep_start = 1e-7\nsweep_stop = inf\n", "sweep_stop"),
])
def test_non_finite_values_blame_the_key_used(doc, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == key


def test_gamma_tan_elevation_parses():
    cfg = parse_config("elevation = gamma_tan\nshape = 3\ntheta_bar_deg = 20\n")
    assert isinstance(cfg.elevation, GammaTanElevation)
    assert cfg.elevation.shape == 3.0
    assert cfg.elevation.theta_bar == pytest.approx(math.radians(20.0))


def test_shape_requires_gamma_tan():
    with pytest.raises(ConfigError) as exc:
        parse_config("shape = 3\n")
    assert exc.value.key == "shape"
    with pytest.raises(ConfigError) as exc:
        parse_config("elevation = gamma_tan\n")
    assert exc.value.key == "shape"


def test_invalid_choice_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("metric = uplink\n")
    assert exc.value.key == "metric"


@pytest.mark.parametrize("doc,key", [
    ("n_samples = 0\n", "n_samples"),
    ("guard_tolerance = 0\n", "guard_tolerance"),
    ("guard_tolerance = 1\n", "guard_tolerance"),
    ("guard_tolerance = 5\n", "guard_tolerance"),
    ("master_seed = -1\n", "master_seed"),
    ("c2 = -1\n", "c2"),
    ("elevation = gamma_tan\nshape = -1\n", "shape"),
    ("elevation = gamma_tan\nshape = 0\n", "shape"),
])
def test_positivity_checks(doc, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == key


def test_guard_disk_over_the_point_cap_is_refused_for_monte_carlo_modes():
    # by arithmetic only: guard_tolerance 1e-9 gives 6.8e9 points per
    # realization at the defaults; the analytic mode draws none
    for mode in ("montecarlo", "both"):
        with pytest.raises(ConfigError, match=r"6\.8e\+09 points.*16777216") as exc:
            parse_config(f"mode = {mode}\nguard_tolerance = 1e-9\n")
        assert exc.value.key == "guard_tolerance"
    assert parse_config("mode = analytic\nguard_tolerance = 1e-9\n").guard_tolerance == 1e-9
    # alpha 2.3 at 1e-5 holds 3.7e6 points, under the cap
    assert parse_config("alpha = 2.3\nguard_tolerance = 1e-5\n").guard_tolerance == 1e-5


def test_guard_disk_cap_applies_to_every_sweep_row():
    # theta 0 with NLoS erased holds 2.9e7 points at 3e-6; 20 and 40 deg 7.3e5
    sweep = "ell = 0\nguard_tolerance = 3e-6\nsweep_variable = theta_bar\nsweep_steps = 3\n"
    with pytest.raises(ConfigError, match=r"theta_bar = 0") as exc:
        parse_config(sweep + "sweep_start = 0\nsweep_stop = 40\n")
    assert exc.value.key == "guard_tolerance"
    assert parse_config(sweep + "sweep_start = 20\nsweep_stop = 40\n").sweep.steps == 3
    assert parse_config("mode = analytic\n" + sweep + "sweep_start = 0\nsweep_stop = 40\n")


def test_guard_disk_cap_skips_a_sweeps_base_point():
    # the base theta 0 holds 2.9e7 points at 3e-6, but `sweep` runs only the
    # 20..40 deg rows, 7.3e5 each; `point` checks the base itself
    cfg = parse_config("ell = 0\ntheta_bar_deg = 0\nguard_tolerance = 3e-6\n"
                       "sweep_variable = theta_bar\nsweep_start = 20\nsweep_stop = 40\n"
                       "sweep_steps = 3\n")
    assert cfg.elevation.theta_bar == 0.0 and cfg.sweep.steps == 3


def test_analytic_downlink_over_the_antenna_cap_is_refused(monkeypatch):
    # by arithmetic only: nothing may reach the series of such a value
    def no_work(*args):
        raise AssertionError("an over-cap value reached the integral")

    monkeypatch.setattr(analytic, "effective_density_factor", no_work)
    cap = analytic._MAX_ANTENNAS
    assert cap == 4096
    with pytest.raises(InvalidParameterError, match=f"n_antennas = {cap + 1} .* {cap}"):
        analytic.downlink_coverage(NetworkParams(density=1e-6, n_antennas=cap + 1),
                                    ConstantElevation(0.4))
    for mode in ("analytic", "both"):
        with pytest.raises(ConfigError, match=f"n_antennas = {cap + 1} .* {cap}") as exc:
            parse_config(f"mode = {mode}\nn_antennas = {cap + 1}\n")
        assert exc.value.key == "n_antennas"
    assert parse_config(f"mode = analytic\nn_antennas = {cap}\n").params.n_antennas == cap
    # the Monte Carlo half and the cell-free integral do not grow as N^2
    assert parse_config("mode = montecarlo\nn_antennas = 65536\n").params.n_antennas == 65536
    cellfree = parse_config("metric = cellfree\nmode = analytic\nn_antennas = 65536\n")
    assert cellfree.params.n_antennas == 65536


def test_antenna_cap_applies_to_every_sweep_row():
    sweep = "mode = analytic\nsweep_variable = n_antennas\nsweep_steps = 2\n"
    with pytest.raises(ConfigError, match="n_antennas = 4100") as exc:
        parse_config(sweep + "sweep_start = 4000\nsweep_stop = 4100\n")
    assert exc.value.key == "n_antennas"
    # the base point is not a row: `point` checks it on its own
    assert parse_config("n_antennas = 5000\n" + sweep + "sweep_start = 1\nsweep_stop = 2\n")


# -- sweeps ---------------------------------------------------------------------


def test_density_sweep_has_canonical_default_axis():
    cfg = parse_config("sweep_variable = lambda\n")
    axis = cfg.sweep
    assert axis == SweepAxis("lambda", 1e-7, 1e-5, 9, "log")
    np.testing.assert_allclose(axis.values(), np.geomspace(1e-7, 1e-5, 9))
    axis = parse_config("sweep_variable = lambda\nsweep_steps = 4\n").sweep
    assert axis == SweepAxis("lambda", 1e-7, 1e-5, 4, "log")


def test_beta_sweep_defaults_to_db_scale():
    cfg = parse_config("sweep_variable = beta\nsweep_start = -20\nsweep_stop = 10\nsweep_steps = 4\n")
    axis = cfg.sweep
    assert axis.scale == "db"
    np.testing.assert_allclose(axis.values(), [-20.0, -10.0, 0.0, 10.0])


def test_theta_sweep_defaults_to_degrees():
    cfg = parse_config("sweep_variable = theta_bar\nsweep_start = 5\nsweep_stop = 60\nsweep_steps = 12\n")
    assert cfg.sweep.scale == "degrees"


def test_sweep_bounds_required_for_non_density_axes():
    with pytest.raises(ConfigError) as exc:
        parse_config("sweep_variable = beta\nsweep_stop = 10\n")
    assert exc.value.key == "sweep_start"


@pytest.mark.parametrize("bound,missing", [
    ("sweep_stop = 1e-4", "sweep_start"),
    ("sweep_start = 1e-8", "sweep_stop"),
])
def test_density_sweep_with_one_bound_names_the_other(bound, missing):
    # the 1e-7..1e-5 default applies only when neither bound is given
    with pytest.raises(ConfigError) as exc:
        parse_config(f"sweep_variable = lambda\n{bound}\n")
    assert exc.value.key == missing


def test_sweep_keys_require_variable():
    with pytest.raises(ConfigError) as exc:
        parse_config("sweep_start = 1\n")
    assert exc.value.key == "sweep_start"


def test_log_scale_needs_positive_bounds():
    doc = "sweep_variable = beta\nsweep_start = -20\nsweep_stop = 10\nsweep_scale = log\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == "sweep_scale"


def test_master_seed_zero_is_accepted():
    assert parse_config("master_seed = 0\n").master_seed == 0


@pytest.mark.parametrize("variable,scale", [
    ("theta_bar", "db"),
    ("lambda", "db"),
    ("n_antennas", "db"),
    ("beta", "degrees"),
    ("lambda", "degrees"),
    ("shape", "degrees"),
])
def test_unit_scale_only_on_its_own_axis(variable, scale):
    # db is read only by a beta sweep and degrees only by a theta_bar sweep
    doc = (f"elevation = gamma_tan\nshape = 3\nsweep_variable = {variable}\n"
           f"sweep_start = 5\nsweep_stop = 60\nsweep_scale = {scale}\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == "sweep_scale"


@pytest.mark.parametrize("variable,scale", [
    ("beta", "db"), ("beta", "linear"), ("theta_bar", "degrees"), ("theta_bar", "linear"),
])
def test_unit_scale_on_its_own_axis_parses(variable, scale):
    doc = (f"sweep_variable = {variable}\n"
           f"sweep_start = 1\nsweep_stop = 2\nsweep_scale = {scale}\n")
    assert parse_config(doc).sweep.scale == scale


def test_shape_sweep_needs_gamma_tan():
    doc = "sweep_variable = shape\nsweep_start = 1\nsweep_stop = 8\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.key == "sweep_variable"


def test_apply_sweep_value_converts_units():
    cfg = parse_config("sweep_variable = beta\nsweep_start = -20\nsweep_stop = 10\n")
    params, elev = apply_sweep_value(cfg, -10.0)
    assert params.beta == pytest.approx(0.1, rel=1e-15)
    assert elev is cfg.elevation

    # theta_bar bounds are degrees on every scale
    for scale in ("degrees", "linear", "log"):
        cfg = parse_config("sweep_variable = theta_bar\nsweep_start = 5\nsweep_stop = 60\n"
                           f"sweep_scale = {scale}\n")
        params, elev = apply_sweep_value(cfg, 30.0)
        assert elev.theta_bar == pytest.approx(math.radians(30.0)), scale
        assert params is cfg.params

    cfg = parse_config("sweep_variable = lambda\n")
    params, _ = apply_sweep_value(cfg, 3e-6)
    assert params.density == 3e-6


def test_apply_sweep_value_guards_antenna_integrality():
    doc = "sweep_variable = n_antennas\nsweep_start = 1\nsweep_stop = 8\nsweep_steps = 8\n"
    cfg = parse_config(doc)
    params, _ = apply_sweep_value(cfg, 4.0)
    assert params.n_antennas == 4
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, 2.5)


def test_apply_sweep_value_without_sweep_raises():
    with pytest.raises(ConfigError):
        apply_sweep_value(parse_config(""), 1.0)


def test_readme_config_table_lists_exactly_the_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("### Config keys", 1)[1].splitlines()
    start = lines.index("| key | meaning | default |")
    keys = set()
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert keys == set(config._KEYS)


def test_runconfig_is_plain_data():
    cfg = parse_config("")
    assert isinstance(cfg, RunConfig)
    with pytest.raises(AttributeError):
        cfg.metric = "cellfree"
