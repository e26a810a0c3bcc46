"""Flat key-value run configuration.

The on-disk format is UTF-8 text, one `key = value` per line, `#` comments.
`_KEYS` maps each key to the value it sets and the parser that reads it.
Keys that set the same value are unit twins, and a document holds at most
one of each pair: the human units noise_dbm, beta_db and theta_bar_deg
convert at parse time to the linear mW, linear ratio and radians of
noise_mw, beta and theta_bar_rad.  A value that the document does not set
keeps its dataclass default; the config itself owns only density 1e-6,
theta_bar 25 deg and the density sweep's axis.  So an empty document is
the default scenario: density 1e-6, 50 mW, one antenna, suburban LoS
constants, constant 25 deg elevation, mode 'both'.
"""

import math
from dataclasses import dataclass, fields, replace

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


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _integer(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _db(text):
    try:
        return 10.0 ** (_number(text) / 10.0)
    except OverflowError:
        raise ValueError(f"{text} dB overflows a double") from None


def _degrees(text):
    return math.radians(_number(text))


def _choice(*choices):
    def parse(text):
        if text.lower() not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text.lower()

    return parse


def _where(parse, rule, holds):
    """parse, refusing a value for which holds(value) is false."""

    def checked(text):
        value = parse(text)
        if not holds(value):
            raise ValueError(f"must {rule}, got {value}")
        return value

    return checked


_finite = _where(_number, "be finite", math.isfinite)

# key -> (name of the value it sets, parser); unit twins set the same value,
# and a document holding both is blamed on the later one
_KEYS = {
    "lambda": ("density", _number),
    "power_mw": ("power", _number),
    "n_antennas": ("n_antennas", _integer),
    "noise_dbm": ("noise", _db),
    "noise_mw": ("noise", _number),
    "alpha": ("alpha", _number),
    "ell": ("ell", _number),
    "beta_db": ("beta", _db),
    "beta": ("beta", _number),
    "c1": ("c1", _number),
    "c2": ("c2", _number),
    "elevation": ("elevation", _choice("constant", "gamma_tan")),
    "theta_bar_deg": ("theta_bar", _degrees),
    "theta_bar_rad": ("theta_bar", _number),
    "shape": ("shape", _number),
    "metric": ("metric", _choice("downlink", "cellfree")),
    "mode": ("mode", _choice("analytic", "montecarlo", "both")),
    "n_samples": ("n_samples", _where(_integer, "be >= 1", lambda n: n >= 1)),
    "master_seed": ("master_seed", _where(_integer, "be >= 0", lambda n: n >= 0)),
    "guard_tolerance": (
        "guard_tolerance", _where(_number, "lie in (0, 1)", lambda x: 0.0 < x < 1.0)),
    "sweep_variable": ("variable", _choice(*_DEFAULT_SCALES)),
    "sweep_start": ("start", _finite),
    "sweep_stop": ("stop", _finite),
    "sweep_steps": (
        "steps", _where(_integer, f"lie in 1..{_MAX_ROWS}", lambda n: 1 <= n <= _MAX_ROWS)),
    "sweep_scale": ("scale", _choice("linear", "log", "db", "degrees")),
    "output_path": ("output_path", str),
    "output_format": ("output_format", _choice("csv", "json")),
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
        if key not in _KEYS:
            raise ConfigError(key, "unknown key")
        if key in pairs:
            raise ConfigError(key, "duplicate key")
        pairs[key] = value
    return pairs


def parse_config(text):
    """Parse a flat key-value document into a RunConfig.

    Raises ConfigError naming the offending key for unknown keys, bad
    values, parameter-range violations, a sweep over the row cap, an
    analytic downlink over the antenna cap, or a Monte Carlo guard disk
    over the point cap.
    """
    pairs = _parse_lines(text)
    values = {"density": 1e-6, "theta_bar": math.radians(25.0)}
    source = {}  # value name -> the key that set it
    for key, (name, parse) in _KEYS.items():
        if key not in pairs:
            continue
        if name in source:
            raise ConfigError(key, f"mutually exclusive with '{source[name]}'")
        source[name] = key
        try:
            values[name] = parse(pairs[key])
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None

    def take(cls):
        return {f.name: values.pop(f.name) for f in fields(cls) if f.name in values}

    try:
        params = NetworkParams(**take(NetworkParams))
        gamma_tan = values.pop("elevation", None) == "gamma_tan"
        shape = values.pop("shape", None)
        theta_bar = values.pop("theta_bar")
        if gamma_tan:
            if shape is None:
                raise ConfigError("shape", "required when elevation = gamma_tan")
            elevation = GammaTanElevation(shape=shape, theta_bar=theta_bar)
        elif shape is not None:
            raise ConfigError("shape", "only valid with elevation = gamma_tan")
        else:
            elevation = ConstantElevation(theta_bar)
    except InvalidParameterError as exc:
        # every range check's message starts with the name of its value
        raise ConfigError(source.get(str(exc).split()[0]), str(exc)) from None

    sweep = None
    axis = take(SweepAxis)
    if "variable" in axis:
        variable = axis["variable"]
        defaults = {"steps": 10, "scale": _DEFAULT_SCALES[variable]}
        if variable == "lambda" and "start" not in axis and "stop" not in axis:
            defaults.update(start=1e-7, stop=1e-5, steps=9)
        axis = defaults | axis
        for bound in ("start", "stop"):
            if bound not in axis:
                raise ConfigError(f"sweep_{bound}", "required for a sweep")
        sweep = SweepAxis(**axis)
        if sweep.scale in ("db", "degrees") and sweep.scale != _DEFAULT_SCALES[variable]:
            raise ConfigError(
                "sweep_scale", f"{sweep.scale!r} does not apply to a {variable} sweep")
        if sweep.scale == "log" and (sweep.start <= 0 or sweep.stop <= 0):
            raise ConfigError("sweep_scale", "log spacing needs positive bounds")
        if variable == "shape" and not gamma_tan:
            raise ConfigError("sweep_variable", "shape sweeps need elevation = gamma_tan")
    elif axis:
        raise ConfigError(source[next(iter(axis))], "requires sweep_variable")

    cfg = RunConfig(params=params, elevation=elevation, sweep=sweep, **values)
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
