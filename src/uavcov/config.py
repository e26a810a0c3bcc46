"""Flat key-value run configuration.

The on-disk format is UTF-8 text, one `key = value` per line, `#` comments.
Human units are accepted on input (noise_dbm, beta_db, theta_bar_deg) and
converted to the internal linear-mW / linear-ratio / radian conventions at
parse time; their exact-unit twins (noise_mw, beta, theta_bar_rad) are
accepted as well.  An empty document is valid and yields the default
scenario: density 1e-6, 50 mW, one antenna, suburban LoS constants,
constant 25 deg elevation, mode 'both'.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import downlink_antennas
from .model import (
    ConstantElevation,
    GammaTanElevation,
    InvalidParameterError,
    NetworkParams,
)
from .montecarlo import _MAX_ROWS, disk_points, guard_radius


class ConfigError(ValueError):
    """A configuration document could not be parsed or validated."""

    def __init__(self, key, message):
        super().__init__(f"config key '{key}': {message}" if key else message)
        self.key = key


_MODES = ("analytic", "montecarlo", "both")
_METRICS = ("downlink", "cellfree")
_SWEEP_VARS = ("lambda", "theta_bar", "beta", "n_antennas", "shape")
_SCALES = ("linear", "log", "db", "degrees")
_FORMATS = ("csv", "json")

_DEFAULT_SCALES = {
    "lambda": "log",
    "theta_bar": "degrees",
    "beta": "db",
    "n_antennas": "linear",
    "shape": "linear",
}


@dataclass(frozen=True)
class SweepAxis:
    """One swept variable: bounds are in display units (deg, dB, raw)."""

    variable: str
    start: float
    stop: float
    steps: int
    scale: str

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs."""

    params: NetworkParams
    elevation: object
    metric: str = "downlink"
    mode: str = "both"
    n_samples: int = 100_000
    master_seed: int = 1
    guard_tolerance: float = 1e-3
    sweep: SweepAxis | None = None
    output_path: str | None = None
    output_format: str = "csv"


_KNOWN_KEYS = {
    "lambda", "power_mw", "n_antennas", "noise_dbm", "noise_mw", "alpha",
    "ell", "beta", "beta_db", "c1", "c2", "elevation", "theta_bar_deg",
    "theta_bar_rad", "shape", "metric", "mode", "n_samples", "master_seed",
    "guard_tolerance", "sweep_variable", "sweep_start", "sweep_stop",
    "sweep_steps", "sweep_scale", "output_path", "output_format",
}


def _parse_lines(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(None, f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(key, "unknown key")
        if key in pairs:
            raise ConfigError(key, "duplicate key")
        pairs[key] = value
    return pairs


def _get_float(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(key, f"expected a number, got {pairs[key]!r}") from None


def _from_db(pairs, key):
    try:
        return 10.0 ** (_get_float(pairs, key) / 10.0)
    except OverflowError:
        raise ConfigError(key, f"{pairs[key]} dB overflows a double") from None


def _get_int(pairs, key, default=None):
    if key not in pairs:
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {pairs[key]!r}") from None


def _get_choice(pairs, key, choices, default=None):
    if key not in pairs:
        return default
    value = pairs[key].lower()
    if value not in choices:
        raise ConfigError(key, f"expected one of {choices}, got {pairs[key]!r}")
    return value


def _exclusive(pairs, *keys):
    present = [k for k in keys if k in pairs]
    if len(present) > 1:
        raise ConfigError(present[1], f"mutually exclusive with '{present[0]}'")
    return present[0] if present else None


def parse_config(text):
    """Parse a flat key-value document into a RunConfig.

    Raises ConfigError naming the offending key for unknown keys, bad
    values, parameter-range violations, a sweep over the row cap, an
    analytic downlink over the antenna cap, or a Monte Carlo guard disk
    over the point cap.
    """
    pairs = _parse_lines(text)

    noise_key = _exclusive(pairs, "noise_dbm", "noise_mw")
    if noise_key == "noise_dbm":
        noise = _from_db(pairs, "noise_dbm")
    elif noise_key == "noise_mw":
        noise = _get_float(pairs, "noise_mw")
    else:
        noise = 10.0 ** -9.25

    beta_key = _exclusive(pairs, "beta_db", "beta")
    if beta_key == "beta_db":
        beta = _from_db(pairs, "beta_db")
    elif beta_key == "beta":
        beta = _get_float(pairs, "beta")
    else:
        beta = 0.1

    try:
        params = NetworkParams(
            density=_get_float(pairs, "lambda", 1e-6),
            power=_get_float(pairs, "power_mw", 50.0),
            n_antennas=_get_int(pairs, "n_antennas", 1),
            noise=noise,
            alpha=_get_float(pairs, "alpha", 2.75),
            ell=_get_float(pairs, "ell", 0.25),
            beta=beta,
            c1=_get_float(pairs, "c1", 24.5811),
            c2=_get_float(pairs, "c2", 39.5971),
        )
    except InvalidParameterError as exc:
        raise ConfigError(_blame_param(str(exc), noise_key, beta_key), str(exc)) from None

    theta_key = _exclusive(pairs, "theta_bar_deg", "theta_bar_rad")
    if theta_key == "theta_bar_rad":
        theta_bar = _get_float(pairs, "theta_bar_rad")
    elif theta_key == "theta_bar_deg":
        theta_bar = math.radians(_get_float(pairs, "theta_bar_deg"))
    else:
        theta_bar = math.radians(25.0)

    kind = _get_choice(pairs, "elevation", ("constant", "gamma_tan"), "constant")
    try:
        if kind == "constant":
            if "shape" in pairs:
                raise ConfigError("shape", "only valid with elevation = gamma_tan")
            elevation = ConstantElevation(theta_bar)
        else:
            shape = _get_float(pairs, "shape")
            if shape is None:
                raise ConfigError("shape", "required when elevation = gamma_tan")
            elevation = GammaTanElevation(shape=shape, theta_bar=theta_bar)
    except InvalidParameterError as exc:
        raise ConfigError(theta_key or "theta_bar_deg", str(exc)) from None

    sweep = None
    if "sweep_variable" in pairs:
        variable = _get_choice(pairs, "sweep_variable", _SWEEP_VARS)
        scale = _get_choice(pairs, "sweep_scale", _SCALES, _DEFAULT_SCALES[variable])
        if variable == "lambda" and "sweep_start" not in pairs and "sweep_stop" not in pairs:
            start, stop, default_steps = 1e-7, 1e-5, 9
        else:
            start = _get_float(pairs, "sweep_start")
            stop = _get_float(pairs, "sweep_stop")
            if start is None or stop is None:
                missing = "sweep_start" if start is None else "sweep_stop"
                raise ConfigError(missing, "required for a sweep")
            default_steps = 10
        steps = _get_int(pairs, "sweep_steps", default_steps)
        if not 1 <= steps <= _MAX_ROWS:
            raise ConfigError("sweep_steps", f"must lie in 1..{_MAX_ROWS}, got {steps}")
        if scale in ("db", "degrees") and scale != _DEFAULT_SCALES[variable]:
            raise ConfigError("sweep_scale", f"{scale!r} does not apply to a {variable} sweep")
        if scale == "log" and (start <= 0 or stop <= 0):
            raise ConfigError("sweep_scale", "log spacing needs positive bounds")
        if variable == "shape" and not isinstance(elevation, GammaTanElevation):
            raise ConfigError("sweep_variable", "shape sweeps need elevation = gamma_tan")
        sweep = SweepAxis(variable, start, stop, steps, scale)
    else:
        for key in ("sweep_start", "sweep_stop", "sweep_steps", "sweep_scale"):
            if key in pairs:
                raise ConfigError(key, "requires sweep_variable")

    n_samples = _get_int(pairs, "n_samples", 100_000)
    if n_samples < 1:
        raise ConfigError("n_samples", f"must be >= 1, got {n_samples}")
    master_seed = _get_int(pairs, "master_seed", 1)
    if master_seed < 0:
        raise ConfigError("master_seed", f"must be >= 0, got {master_seed}")
    guard_tolerance = _get_float(pairs, "guard_tolerance", 1e-3)
    if not 0.0 < guard_tolerance < 1.0:
        raise ConfigError("guard_tolerance", f"must lie in (0, 1), got {guard_tolerance}")

    cfg = RunConfig(
        params=params,
        elevation=elevation,
        metric=_get_choice(pairs, "metric", _METRICS, "downlink"),
        mode=_get_choice(pairs, "mode", _MODES, "both"),
        n_samples=n_samples,
        master_seed=master_seed,
        guard_tolerance=guard_tolerance,
        sweep=sweep,
        output_path=pairs.get("output_path"),
        output_format=_get_choice(pairs, "output_format", _FORMATS, "csv"),
    )
    check_caps(cfg)
    return cfg


def check_caps(cfg):
    """Refuse a config with a point, in points(cfg), over a cap: a Monte
    Carlo guard disk over montecarlo's point cap, or an analytic downlink
    value over analytic's antenna cap.

    A sweep's base point is not one of its points: `uavcov point` checks
    that with the sweep removed.  Arithmetic only, before anything is
    computed.  A row that does not build, or whose radius cannot be
    computed, is left to the run, which reports it as an error row.
    """
    antennas = cfg.metric == "downlink" and cfg.mode != "montecarlo"
    disks = cfg.mode != "analytic"
    for value, _, setting, error in points(cfg):
        if error is not None:
            continue
        params, elev = setting
        where = "" if math.isnan(value) else f" at {cfg.sweep.variable} = {value:g}"
        if antennas:
            try:
                downlink_antennas(params.n_antennas)
            except InvalidParameterError as exc:
                raise ConfigError("n_antennas", f"{exc}{where}") from None
        if not disks:
            continue
        try:
            disk_points(params.density, guard_radius(params, elev, cfg.guard_tolerance))
        except ArithmeticError:
            continue
        except InvalidParameterError as exc:
            raise ConfigError(
                "guard_tolerance",
                f"{cfg.guard_tolerance:g} gives a guard disk{where} where {exc}; "
                "raise guard_tolerance") from None


def _blame_param(message, noise_key, beta_key):
    # map a NetworkParams complaint back to the config key the document used
    for word, key in (
        ("density", "lambda"),
        ("power", "power_mw"),
        ("n_antennas", "n_antennas"),
        ("noise", noise_key),
        ("alpha", "alpha"),
        ("ell", "ell"),
        ("beta", beta_key),
        ("c1", "c1"),
        ("c2", "c2"),
    ):
        if word in message:
            return key
    return None


def points(cfg):
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
    out = []
    for value, seed in zip(values, seeds):
        try:
            setting = (cfg.params, cfg.elevation) if axis is None else apply_sweep_value(cfg, value)
            out.append((value, int(seed), setting, None))
        except Exception as exc:
            out.append((value, int(seed), None, str(exc)))
    return out


def apply_sweep_value(cfg, display_value):
    """Return (params, elevation) with the swept variable set.

    display_value is in axis units: degrees for theta_bar on every scale,
    dB for beta when the scale is 'db', raw otherwise.
    """
    axis = cfg.sweep
    if axis is None:
        raise ConfigError("sweep_variable", "configuration has no sweep")
    params, elevation = cfg.params, cfg.elevation
    var = axis.variable
    if var == "lambda":
        params = replace(params, density=float(display_value))
    elif var == "beta":
        beta = 10.0 ** (display_value / 10.0) if axis.scale == "db" else float(display_value)
        params = replace(params, beta=beta)
    elif var == "n_antennas":
        n = int(round(display_value))
        if abs(display_value - n) > 1e-9:
            raise ConfigError("sweep_steps", f"n_antennas sweep hit non-integer {display_value}")
        params = replace(params, n_antennas=n)
    elif var == "theta_bar":
        elevation = replace(elevation, theta_bar=math.radians(display_value))
    elif var == "shape":
        elevation = replace(elevation, shape=float(display_value))
    return params, elevation
