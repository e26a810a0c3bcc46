"""Tests of the benchmark harness itself (not of uavcov).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker
from calibration import REFERENCE_S, Calibrator, speed_factor
from tracing import TARGETS, Tracer, self_times, summarize
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),      # overlaps a: the overlap is covered once
        ("leaf", 2.0, 3.0, 1, 0),   # grandchild: only a loses it, not root
        ("c", 8.0, 12.0, 0, 0),     # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_summarize_counts_calls_and_descendants():
    spans = [
        ("downlink_coverage", 0.0, 5.0, -1, 0),
        ("integrate", 0.5, 1.5, 0, 0),
        ("jet_exp", 2.0, 4.0, 0, 0),
        ("integrate", 6.0, 7.0, -1, 1),   # not under downlink_coverage
        ("cellfree_coverage", 8.0, 9.0, -1, 2),
        ("inverse_laplace", 8.2, 8.7, 4, 2),
    ]
    out = summarize(spans, {0: {"numerical_error": 1e-9}, 4: {"numerical_error": 3e-8}})
    assert out["downlink_coverage"]["calls"] == 1
    assert out["downlink_coverage"]["self_s"] == pytest.approx(2.0)
    assert out["downlink_coverage"]["integrate_children"] == 1
    assert out["downlink_coverage"]["jet_exp_self_s"] == pytest.approx(2.0)
    assert out["integrate"]["calls"] == 2
    assert out["cellfree_coverage"]["inversion_children"] == 1
    assert out["cellfree_coverage"]["numerical_error_max"] == 3e-8


# -- patching ----------------------------------------------------------------------


def _snapshot():
    import uavcov.cli  # noqa: F401  (load every module the tracer may patch)
    import uavcov.validation  # noqa: F401
    from uavcov.model import GammaTanElevation

    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if m is not None and (name == "uavcov" or name.startswith("uavcov."))}
    return mods, GammaTanElevation.__dict__["expect"]


def test_patch_reaches_every_binding_and_unpatch_restores_all():
    before, expect = _snapshot()
    originals = {}
    for name, module, path in TARGETS:
        *outer, attr = path.split(".")
        owner = sys.modules[module]
        for part in outer:
            owner = getattr(owner, part)
        originals[name] = owner.__dict__[attr] if outer else getattr(owner, attr)

    tracer = Tracer()
    with tracer:
        for mod_name, attrs in before.items():
            for key, value in attrs.items():
                for name, fn in originals.items():
                    if value is fn:
                        bound = getattr(sys.modules[mod_name], key)
                        assert bound is not fn and bound.__wrapped__ is fn, (mod_name, key)
        import uavcov.analytic
        import uavcov.model
        import uavcov.numerics
        import uavcov.numerics.jets
        import uavcov.validation

        for owner in (uavcov.analytic, uavcov.numerics, uavcov.numerics.jets,
                      uavcov.validation):
            assert owner.jet_exp.__wrapped__ is originals["jet_exp"]
        for owner in (uavcov.analytic, uavcov.model, uavcov.validation):
            assert owner.integrate.__wrapped__ is originals["integrate"]
        assert uavcov.model.GammaTanElevation.__dict__["expect"].__wrapped__ is expect

        elev = uavcov.model.GammaTanElevation(2.0, math.radians(20.0))
        params = uavcov.model.NetworkParams(density=1e-6)
        uavcov.analytic.effective_density_factor(params, elev)
        names = [s[0] for s in tracer.spans]
        assert names[:2] == ["effective_density_factor", "GammaTanElevation.expect"]
        assert "integrate" in names

    after, expect_after = _snapshot()
    assert expect_after is expect
    assert after.keys() == before.keys()
    for mod_name, attrs in before.items():
        restored = after[mod_name]
        for key, value in attrs.items():
            assert restored[key] is value, (mod_name, key)


# -- workloads ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    workload = WORKLOADS[name](seed=3, scale="tiny")
    workload.setup()
    result = worker.run(workload, seconds=0.0)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    assert result["deterministic"]
    assert result["op_samples"] > 0 and result["wall_s"] > 0.0
    assert len(result["calibration_s"]) == result["passes"] and result["speed_factor"] > 0.0
    if name == "analytic_grid":  # the overflow probe is a known defect and reports it
        assert [p["failed"] for p in result["probes"]] == [True]


def test_traced_tiny_run_reports_layers_and_restores_patches(tmp_path):
    import uavcov.montecarlo

    original = uavcov.montecarlo.estimate_downlink
    workload = WORKLOADS["mc_downlink"](seed=3, scale="tiny")
    workload.setup()
    spans = tmp_path / "spans.json"
    result = worker.run(workload, seconds=0.0, trace=True, trace_path=str(spans))
    assert uavcov.montecarlo.estimate_downlink is original
    layers = result["layers"]
    assert layers["estimate_downlink"]["calls"] == 2
    assert layers["estimate_downlink"]["ns_per_point"] > 0
    assert json.loads(spans.read_text())["spans"]
    metrics = run.per_layer(result)
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(run.PER_LAYER)


def test_same_seed_same_inputs():
    a, b = (WORKLOADS["mc_downlink"](seed=5, scale="tiny") for _ in range(2))
    a.setup()
    b.setup()
    assert a.inputs == b.inputs
    assert [label for label, _, _ in a.ops] == [label for label, _, _ in b.ops]


# -- the command -------------------------------------------------------------------


def test_scaled_multiplies_times_and_divides_rates_by_the_speed_factor():
    result = {"speed_factor": 0.5, "setup_s": 1.5, "wall_s": 2.0, "op_ms_p50": 10.0,
              "op_ms_p90": 30.0, "peak_rss_mb": 100.0,
              "extras": {"mc_realizations_per_s": (1000.0, "1/s", 3),
                         "mc_s_to_se_1e-3": (40.0, "s", 3)}}
    v = run.scaled(result)
    assert v["wall_s"] == 1.0 and v["op_ms_p50"] == 5.0 and v["op_ms_p90"] == 15.0
    assert v["setup_s"] == 1.5  # already scaled per set-up sample
    assert v["peak_rss_mb"] == 100.0
    assert v["mc_realizations_per_s"] == 2000.0 and v["mc_s_to_se_1e-3"] == 20.0


def test_speed_factor_scales_by_the_median_kernel_time():
    assert speed_factor([0.03, 0.06, 0.5]) == pytest.approx(REFERENCE_S / 0.06)
    assert Calibrator().measure() > 0.0


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_downlink", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
