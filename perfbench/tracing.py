"""Span tracing for the benchmark's traced run.

The tracer wraps public uavcov functions from outside the package: every
module attribute (and the one class attribute) bound to a target function is
replaced by a wrapper that records a span, and `unpatch` puts the originals
back.  Spans stay in memory as plain tuples and are written out at the end
of the run; nothing inside `src/` is changed.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in `Tracer.spans` (or -1) and `op` the workload op that was
running.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute path) of every wrapped function.
TARGETS = (
    ("jet_exp", "uavcov.numerics.jets", "jet_exp"),
    ("integrate", "uavcov.numerics.quadrature", "integrate"),
    ("gauss_laguerre", "uavcov.numerics.quadrature", "gauss_laguerre"),
    ("inverse_laplace", "uavcov.numerics.laplace", "inverse_laplace"),
    ("downlink_coverage", "uavcov.analytic", "downlink_coverage"),
    ("jensen_lower_bound", "uavcov.analytic", "jensen_lower_bound"),
    ("cellfree_coverage", "uavcov.analytic", "cellfree_coverage"),
    ("effective_density_factor", "uavcov.analytic", "effective_density_factor"),
    ("estimate_downlink", "uavcov.montecarlo", "estimate_downlink"),
    ("estimate_cellfree", "uavcov.montecarlo", "estimate_cellfree"),
    ("guard_radius", "uavcov.montecarlo", "guard_radius"),
    ("sample_peak_gain", "uavcov.montecarlo", "sample_peak_gain"),
    ("sample_nearest_sq", "uavcov.montecarlo", "sample_nearest_sq"),
    ("realize_network", "uavcov.model", "realize_network"),
    ("GammaTanElevation.expect", "uavcov.model", "GammaTanElevation.expect"),
    ("parse_config", "uavcov.config", "parse_config"),
    ("apply_sweep_value", "uavcov.config", "apply_sweep_value"),
    ("run_sweep", "uavcov.cli", "run_sweep"),
    ("evaluate_point", "uavcov.cli", "evaluate_point"),
    ("run_suite", "uavcov.validation", "run_suite"),
)

_ESTIMATORS = ("estimate_downlink", "estimate_cellfree")


def _resolve(module_name, path):
    """(owner, attribute name, function) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uavcov" or name.startswith("uavcov."))]


class Tracer:
    """Records spans for the functions in TARGETS while patched."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, op); None while open
        self.notes = {}      # span index -> dict of counts read at the boundary
        self.op = -1
        self._stack = []
        self._undo = []      # (owner, attribute, original)
        self._guard_radius = None

    # -- patching --------------------------------------------------------------

    def patch(self):
        """Bind a wrapper at every module or class attribute holding a target."""
        if self._undo:
            raise RuntimeError("tracer is already patched")
        from uavcov import montecarlo

        self._guard_radius = montecarlo.guard_radius
        modules = _package_modules()
        for name, module_name, path in TARGETS:
            owner, attr, fn = _resolve(module_name, path)
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, key, fn))
                        setattr(module, key, wrapper)

    def unpatch(self):
        """Restore every attribute `patch` replaced."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False

    def _wrap(self, name, fn):
        spans, notes, stack = self.spans, self.notes, self._stack
        signature = inspect.signature(fn) if name in _ESTIMATORS else None
        tracer = self

        def traced(*args, **kwargs):
            note = tracer._estimator_note(signature, args, kwargs) if signature else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            err = getattr(result, "numerical_error", None)
            if err is not None:
                note = {"numerical_error": float(err)}
            if note is not None:
                notes[index] = note
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _estimator_note(self, signature, args, kwargs):
        # points per realization = density pi R^2, R from the public guard_radius
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        params = a["params"]
        radius = a["sim_radius"]
        if radius is None:
            radius = self._guard_radius(params, a["elev"], a["guard_tolerance"])
        per = params.density * math.pi * radius * radius
        n = int(a["n_samples"])
        return {"realizations": n, "points": n * per}


# -- analysis ---------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, notes):
    """Per-name totals: calls, self and inclusive seconds, plus the notes folded in."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                               "realizations": 0, "points": 0.0,
                               "numerical_error_max": 0.0,
                               "integrate_children": 0, "inversion_children": 0,
                               "jet_exp_self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += end - start
        note = notes.get(i)
        if note:
            row["realizations"] += note.get("realizations", 0)
            row["points"] += note.get("points", 0.0)
            err = note.get("numerical_error")
            if err is not None and not err <= row["numerical_error_max"]:
                row["numerical_error_max"] = err
        if name == "integrate" and _has_ancestor(spans, i, "downlink_coverage"):
            out["downlink_coverage"]["integrate_children"] += 1
        if name == "jet_exp" and _has_ancestor(spans, i, "downlink_coverage"):
            out["downlink_coverage"]["jet_exp_self_s"] += selfs[i]
        if name == "inverse_laplace" and _has_ancestor(spans, i, "cellfree_coverage"):
            out["cellfree_coverage"]["inversion_children"] += 1
    return dict(out)
