"""The three benchmark workloads, their inputs and their per-op checks.

Every input is a config document generated from the benchmark seed and
parsed with `uavcov.config.parse_config`, so the program only ever sees
generated inputs.  A workload is a closed loop with one caller: `run_pass`
issues its ops back to back and times each call from outside; `check`
judges the returned values afterwards, outside the timed region.

An op fails if it raises, returns a value that is not finite or not in
[0, 1], reports a numerical_error above ERROR_LIMIT (a value that was
clamped or that carries no information), breaks jensen <= downlink <=
cellfree by more than the reported numerical errors, or, on a paired
analytic/Monte Carlo point, gives |z| > Z_LIMIT with the standard error
floored at 1/n.  Z_LIMIT is 4, not the repo's own gate of 3, because a
3-sigma cut over about 40 points fails about 10 % of seeds by chance.
"""

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

ERROR_LIMIT = 1e-2
Z_LIMIT = 4.0
KS_P_LIMIT = 6.3e-5  # two-sided normal tail at 4 sigma, the KS analogue of Z_LIMIT


@dataclass
class Outcome:
    """One op of one pass: what ran, how long it took and what it returned."""

    label: str
    kind: str
    seconds: float
    values: tuple = ()
    error: str = None
    result: object = None
    rows: list = field(default_factory=list)


def doc(**keys):
    """A config document with one `key = value` line per keyword."""
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _derived_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def _call(label, kind, fn):
    start = time.perf_counter()
    try:
        result = fn()
        error = None
    except Exception as exc:  # a failing op is data, not a crash of the benchmark
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return Outcome(label, kind, time.perf_counter() - start, error=error, result=result)


def _probability_problem(value):
    if not isinstance(value, float) or not math.isfinite(value):
        return f"value {value!r} is not finite"
    if not 0.0 <= value <= 1.0:
        return f"value {value!r} is outside [0, 1]"
    return None


def _coverage_problem(result):
    problem = _probability_problem(float(result.value))
    if problem:
        return problem
    err = result.numerical_error
    if not math.isfinite(err) or err > ERROR_LIMIT:
        return (f"numerical_error {err:.3g} exceeds {ERROR_LIMIT:g}: value "
                f"{result.value!r} carries no information (clamped?)")
    return None


def _z_problem(analytic, mean, se, n):
    z = abs(analytic - mean) / max(se, 1.0 / n)
    if not z <= Z_LIMIT:
        return (f"|z| = {z:.2f} > {Z_LIMIT:g} (analytic {analytic!r}, "
                f"mc {mean!r} +- {se:.3g}, n {n})")
    return None


class Workload:
    """Base class: subclasses set `name` and fill `ops` in `setup`."""

    name = None

    def __init__(self, seed, scale="full"):
        if scale not in ("full", "tiny"):
            raise ValueError(f"scale must be 'full' or 'tiny', got {scale!r}")
        self.seed = int(seed)
        self.tiny = scale == "tiny"
        self.ops = []      # (label, kind, callable) issued in order by run_pass
        self.probes = []   # known-defect ops, run once after timing

    def setup(self):
        raise NotImplementedError

    def run_pass(self, tracer=None):
        out = []
        for label, kind, fn in self.ops:
            if tracer is not None:
                tracer.op += 1
            out.append(self.finish(_call(label, kind, fn)))
        return out

    def finish(self, outcome):
        """Fill `values` (the digest input) from the returned object."""
        r = outcome.result
        if r is not None:
            outcome.values = tuple(float(getattr(r, a)) for a in
                                   ("value", "numerical_error", "mean", "std_error")
                                   if hasattr(r, a))
        return outcome

    def references(self):
        """Reference values computed after the timed ops; excluded from metrics."""
        return {}

    def check(self, outcomes, refs):
        """(label, message) for every failed op of one pass."""
        raise NotImplementedError

    def latencies(self, outcomes):
        """Per-op seconds entering op_ms_p50 / op_ms_p90."""
        raise NotImplementedError

    def attempted(self, outcomes):
        return len(outcomes)

    def extras(self, passes):
        """Workload-specific end-to-end figures: name -> (value, unit, samples)."""
        return {}

    def run_probes(self):
        out = []
        for label, kind, fn in self.probes:
            o = self.finish(_call(label, kind, fn))
            problem = o.error or _coverage_problem(o.result)
            out.append({"label": label, "seconds": o.seconds, "values": list(o.values),
                        "failed": problem is not None, "message": problem})
        return out


# -- analytic_grid ------------------------------------------------------------------


class AnalyticGrid(Workload):
    """Analytic calls only: downlink, Jensen bound and cell-free over a grid.

    Points in KNOWN_DEFECTS are left out of the timed grid because their
    results are wrong at the time of writing (the value is clamped, or its
    numerical_error is above ERROR_LIMIT) and each call takes 0.1-0.9 s.  One
    representative of each defect runs as a probe after the timed ops; its
    failure is reported, never hidden.
    """

    name = "analytic_grid"
    ALPHAS = (2.05, 2.75, 4.0, 6.0)
    NS = (1, 2, 4, 8, 16, 24)
    DENSITIES = (1e-7, 1e-6)
    THETAS = (15.0, 35.0)
    BETAS_DB = (30.0, 33.0, 36.0, 39.0, 42.0, 45.0)
    BETA_ALPHAS = (2.75, 4.0, 6.0)
    KNOWN_DEFECTS = (
        {(4.0, 1e-7, n) for n in (16, 24)} | {(6.0, 1e-6, n) for n in (1, 2, 4, 8, 16, 24)}
    )

    def setup(self):
        from uavcov import analytic
        from uavcov.config import parse_config

        alphas, ns, densities, thetas, betas = (
            ((2.75, 6.0), (1, 4), (1e-6,), self.THETAS[:1], self.BETAS_DB[-2:])
            if self.tiny else
            (self.ALPHAS, self.NS, self.DENSITIES, self.THETAS, self.BETAS_DB))
        rng = np.random.default_rng(self.seed)
        # a small per-seed jitter of the angles changes the values, not the cost
        thetas = [round(t + rng.uniform(-0.5, 0.5), 6) for t in thetas]

        def inputs(**keys):
            cfg = parse_config(doc(mode="analytic", **keys))
            return cfg.params, cfg.elevation

        ops = []
        for a in alphas:
            for n in ns:
                for d in densities:
                    if (a, d, n) in self.KNOWN_DEFECTS:
                        continue
                    for t in thetas:
                        key = f"a={a:g} N={n} lam={d:g} th={t:.3f}"
                        p, e = inputs(alpha=a, n_antennas=n, **{"lambda": d}, theta_bar_deg=t)
                        ops.append((f"downlink {key}", "downlink",
                                    lambda p=p, e=e: analytic.downlink_coverage(p, e)))
                        ops.append((f"jensen {key}", "jensen",
                                    lambda p=p, e=e: analytic.jensen_lower_bound(p, e)))
                        if a != 2.05:  # known defect: raw OverflowError, see probes
                            ops.append((f"cellfree {key}", "cellfree",
                                        lambda p=p, e=e: analytic.cellfree_coverage(p, e)))
        for a in (a for a in self.BETA_ALPHAS if a in alphas):
            for b in betas:
                p, e = inputs(alpha=a, n_antennas=4, beta_db=b, theta_bar_deg=thetas[0])
                ops.append((f"cellfree-beta a={a:g} beta_db={b:g}", "cellfree-beta",
                            lambda p=p, e=e: analytic.cellfree_coverage(p, e)))
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]

        t = thetas[0]
        probes = [("probe cellfree a=2.05 overflow",
                   "cellfree", dict(alpha=2.05, n_antennas=4, beta_db=-10))]
        if not self.tiny:
            probes += [
                ("probe downlink N=32 clamp", "downlink",
                 dict(alpha=2.75, n_antennas=32, **{"lambda": 1e-6})),
                ("probe downlink a=4 lam=1e-7 N=16 cancellation", "downlink",
                 dict(alpha=4.0, n_antennas=16, **{"lambda": 1e-7})),
                ("probe downlink a=6 lam=1e-6 N=8 fallback", "downlink",
                 dict(alpha=6.0, n_antennas=8, **{"lambda": 1e-6})),
            ]
        fns = {"downlink": analytic.downlink_coverage, "cellfree": analytic.cellfree_coverage}
        for label, kind, keys in probes:
            p, e = inputs(theta_bar_deg=t, **keys)
            self.probes.append((label, kind, lambda f=fns[kind], p=p, e=e: f(p, e)))

    def check(self, outcomes, refs):
        failed = []
        by_point = {}
        for o in outcomes:
            problem = o.error or _coverage_problem(o.result)
            if problem:
                failed.append((o.label, problem))
            elif o.kind in ("downlink", "jensen", "cellfree"):
                by_point.setdefault(o.label.split(" ", 1)[1], {})[o.kind] = o.result
        for key, r in by_point.items():
            d, j, c = r.get("downlink"), r.get("jensen"), r.get("cellfree")
            if d is None:
                continue
            if j is not None and j.value > d.value + j.numerical_error + d.numerical_error:
                failed.append((f"downlink {key}", f"jensen {j.value!r} > downlink {d.value!r}"))
            if c is not None and d.value > c.value + d.numerical_error + c.numerical_error:
                failed.append((f"downlink {key}", f"downlink {d.value!r} > cellfree {c.value!r}"))
        return failed

    def latencies(self, outcomes):
        return [o.seconds for o in outcomes if o.kind == "downlink"]

    def extras(self, passes):
        ms = sorted(s * 1e3 for p in passes for s in self.latencies(p))
        return {"downlink_ms_p50": (statistics.median(ms), "ms", len(ms)),
                "downlink_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms", len(ms))}


# -- mc_downlink ------------------------------------------------------------------


class McDownlink(Workload):
    """estimate_downlink only, constant and gamma_tan elevation.

    The analytic references that the z-check needs come from
    downlink_coverage, computed once after the timed ops.
    """

    name = "mc_downlink"
    ELEVATIONS = (dict(elevation="constant"), dict(elevation="gamma_tan", shape=4.0))
    NS = (1, 4, 8)
    THETAS = (10.0, 25.0, 40.0)
    DENSITIES = (1e-7, 1e-6)
    N_SAMPLES = 500

    def setup(self):
        from uavcov import montecarlo
        from uavcov.config import parse_config

        # gamma_tan at one density only, so that the median op is a constant-
        # elevation one rather than the boundary between the two cost levels
        constant, gamma_tan = self.ELEVATIONS
        grid = [(constant, n, t, d) for n in self.NS for t in self.THETAS
                for d in self.DENSITIES]
        grid += [(gamma_tan, n, t, 1e-6) for n in self.NS for t in self.THETAS]
        n_samples = self.N_SAMPLES
        if self.tiny:
            grid, n_samples = [(el, 1, 25.0, 1e-6) for el in self.ELEVATIONS], 200
        seeds = _derived_seeds(self.seed, len(grid))
        self.inputs = {}
        self.ops = []
        for (el, n, t, d), s in zip(grid, seeds):
            cfg = parse_config(doc(mode="montecarlo", n_antennas=n, theta_bar_deg=t,
                                   n_samples=n_samples, master_seed=s,
                                   **{"lambda": d}, **el))
            label = f"mc {el['elevation']} N={n} th={t:g} lam={d:g}"
            self.inputs[label] = (cfg.params, cfg.elevation)
            self.ops.append((label, "estimate_downlink", lambda c=cfg: montecarlo.estimate_downlink(
                c.params, c.elevation, c.n_samples, c.master_seed,
                guard_tolerance=c.guard_tolerance)))

    def references(self):
        from uavcov.analytic import downlink_coverage

        return {label: downlink_coverage(p, e) for label, (p, e) in self.inputs.items()}

    def check(self, outcomes, refs):
        failed = []
        for o in outcomes:
            if o.error:
                failed.append((o.label, o.error))
                continue
            est = o.result
            problem = _probability_problem(float(est.mean))
            if problem is None:
                ref = refs[o.label]
                problem = _coverage_problem(ref)
                if problem:
                    problem = f"analytic reference: {problem}"
                else:
                    problem = _z_problem(ref.value, est.mean, est.std_error, est.n_samples)
            if problem:
                failed.append((o.label, problem))
        return failed

    def latencies(self, outcomes):
        return [o.seconds for o in outcomes]

    def extras(self, passes):
        # per pass: realizations per Monte Carlo second, and the seconds the
        # pass would need to bring every estimate to a standard error of 1e-3
        rate, to_se = [], []
        for p in passes:
            ok = [o for o in p if o.result is not None]
            rate.append(sum(o.result.n_samples for o in ok) / sum(o.seconds for o in ok))
            to_se.append(sum(o.seconds * (max(o.result.std_error, 1.0 / o.result.n_samples)
                                          / 1e-3) ** 2 for o in ok))
        return {"mc_realizations_per_s": (statistics.median(rate), "1/s", len(passes)),
                "mc_s_to_se_1e-3": (statistics.median(to_se), "s", len(passes))}


# -- crosscheck -------------------------------------------------------------------


class Crosscheck(Workload):
    """The paired path users run: config -> cli.run_sweep -> validation suite."""

    name = "crosscheck"

    def setup(self):
        from uavcov import cli, config, validation

        s = _derived_seeds(self.seed, 4)
        tiny = self.tiny
        self.docs = {
            "theta": doc(n_antennas=1, mode="both", n_samples=200 if tiny else 600,
                         master_seed=s[0], sweep_variable="theta_bar", sweep_start=5,
                         sweep_stop=60, sweep_steps=2 if tiny else 12, **{"lambda": 1e-7}),
            # ~3738 points per realization, a Gamma draw per point, sum-only reduction
            "cellfree-mc": doc(metric="cellfree", mode="both", guard_tolerance=3e-4,
                               n_samples=200 if tiny else 600, master_seed=s[1],
                               sweep_variable="beta", sweep_start=39, sweep_stop=46,
                               sweep_steps=2 if tiny else 6),
            # the analytic transition of demos/configs/cellfree_transition.cfg
            "cellfree-transition": doc(metric="cellfree", mode="analytic", beta_db=0,
                                       sweep_variable="beta", sweep_start=30,
                                       sweep_stop=45, sweep_steps=4 if tiny else 8),
        }
        for text in self.docs.values():  # parse once in setup so errors surface early
            config.parse_config(text)
        suite_n = 200 if tiny else 600

        def sweep(text):
            return cli.run_sweep(config.parse_config(text), workers=1)

        self.ops = [(f"sweep {k}", "sweep", lambda t=t: sweep(t)) for k, t in self.docs.items()]
        self.ops.append(("suite all", "suite",
                         lambda: validation.run_suite("all", n_samples=suite_n, master_seed=s[3])))

    def finish(self, outcome):
        r = outcome.result
        if r is None:
            return outcome
        if outcome.kind == "sweep":
            outcome.rows = r
            outcome.values = tuple(
                float("nan") if row[k] is None else float(row[k])
                for row in r for k in ("p_analytic", "p_mc", "mc_stderr"))
        else:
            outcome.values = tuple(float(c.get("value", float("nan"))) for c in r["checks"])
        return outcome

    def check(self, outcomes, refs):
        failed = []
        for o in outcomes:
            if o.error:
                failed.append((o.label, o.error))
            elif o.kind == "sweep":
                for row in o.rows:
                    problem = self._row_problem(row)
                    if problem:
                        label = f"{o.label} {row['sweep_var']}={row['sweep_value']:g}"
                        failed.append((label, problem))
            else:
                for c in o.result["checks"]:
                    problem = self._suite_problem(c)
                    if problem:
                        failed.append((f"{o.label} {c['name']}", problem))
        return failed

    @staticmethod
    def _row_problem(row):
        if row["error"]:
            return row["error"]
        for key in ("p_analytic", "p_mc"):
            if row[key] is not None:
                problem = _probability_problem(float(row[key]))
                if problem:
                    return f"{key}: {problem}"
        if row["p_analytic"] is not None and row["p_mc"] is not None:
            return _z_problem(row["p_analytic"], row["p_mc"], row["mc_stderr"], row["n_samples"])
        return None

    @staticmethod
    def _suite_problem(c):
        name, value = c["name"], c.get("value")
        if c.get("detail", "").startswith("error:"):
            return c["detail"]
        if name.startswith("distributions/"):
            return None if value >= KS_P_LIMIT else f"KS p-value {value:.3g} < {KS_P_LIMIT:g}"
        if name.startswith("coverage/"):
            return None if value <= Z_LIMIT else f"|z| = {value:.2f} > {Z_LIMIT:g}: {c['detail']}"
        return None if c["passed"] else f"check failed: {c.get('detail', '')}"

    def latencies(self, outcomes):
        return [row["wall_ms"] / 1e3 for o in outcomes for row in o.rows]

    def attempted(self, outcomes):
        return sum(max(len(o.rows), 1) if o.kind == "sweep" else 1 for o in outcomes)

    def extras(self, passes):
        rates = [sum(len(o.rows) for o in p) / sum(o.seconds for o in p if o.kind == "sweep")
                 for p in passes]
        return {"sweep_points_per_s": (statistics.median(rates), "1/s", len(passes))}


WORKLOADS = {w.name: w for w in (AnalyticGrid, McDownlink, Crosscheck)}
