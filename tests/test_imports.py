"""Import cost: what loading the package pulls in.

Every `uavcov point`/`sweep` process, demo and bench worker pays for the
package's imports before its first evaluation, so a module-level import of
a scipy subpackage is a cost on every run: scipy.special alone adds about
0.25 s to a cold start, and scipy.stats (optimize, linalg, sparse, spatial,
ndimage, interpolate, integrate and fft) about 0.8 s and 44 MB.  Import
such a package inside the function that uses it: scipy.special loads at the
first analytic downlink value (a point or sweep run loads it just before its
jobs), scipy.stats at the first KS test, concurrent.futures at the first
pool.  A Monte Carlo run or a config error loads no scipy.

The same goes for names: every exported name needs a user, and every name
the benchmark in perfbench/ imports, traces or patches must still exist.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_IMPORT_PROBE = """
import sys
import uavcov, uavcov.cli, uavcov.validation
print(" ".join(sorted(
    name for name, mod in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")
)))
"""

# runs `uavcov point` in-process, then reports the heavy modules it loaded
_POINT_PROBE = """
import json, sys
from uavcov import cli
code = cli.main(["point", sys.argv[1]])
heavy = [name for name in sys.modules if name.split(".")[0] in ("scipy", "concurrent")]
print(json.dumps({"code": code, "modules": sorted(heavy)}), file=sys.stderr)
"""


def _python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, **kwargs)


def test_package_import_loads_no_scipy_subpackage():
    assert _python(["-c", _IMPORT_PROBE]).stdout.split() == []


def _point(tmp_path, text):
    """`uavcov point` on a config text in a fresh interpreter: (printed
    JSON, exit code, the scipy and concurrent modules loaded by the end)."""
    cfg = tmp_path / "point.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = _python(["-c", _POINT_PROBE, str(cfg)])
    probe = json.loads(out.stderr.strip().splitlines()[-1])
    return json.loads(out.stdout), probe["code"], probe["modules"]


def test_monte_carlo_point_loads_no_scipy_and_no_pool(tmp_path):
    row, code, modules = _point(tmp_path, "mode = montecarlo\nn_samples = 2000\n")
    assert code == 0 and modules == []
    # the value of the same point in a process that has loaded scipy.special
    assert (row["p_mc"], row["mc_stderr"]) == (0.801, 0.008927457644816915)


def test_analytic_point_loads_scipy_special_at_its_first_value(tmp_path):
    row, code, modules = _point(tmp_path, "mode = analytic\n")
    assert code == 0 and "scipy.special" in modules
    # deferred, not replaced: the value recorded when it loaded at import
    assert row["p_analytic"] == 0.7928248499457627



def test_cold_analytic_point_books_no_import_in_its_row(tmp_path):
    # run_sweep loads scipy.special before its jobs start, so the row's
    # wall_ms is the value's own time (under a millisecond), not the import
    # (about 0.25 s)
    row, code, _ = _point(tmp_path, "mode = analytic\n")
    assert code == 0 and row["wall_ms"] < 50.0


def _used_names():
    """Names the code in src/ and demos/ uses: every ast Name and Attribute,
    and every name imported outside a package __init__ (a re-export is not
    a use)."""
    used = set()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_used():
    # an export only its own unit test calls is surface without a user
    import uavcov
    import uavcov.numerics

    used = _used_names()
    unused = sorted(set(uavcov.__all__ + uavcov.numerics.__all__) - used)
    assert unused == []


def _traced_targets():
    """TARGETS of perfbench/tracing.py, read with ast: the names the
    benchmark's traced run wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_benchmark_finds_every_name_it_uses():
    # the benchmark imports, traces and patches these names from outside
    import importlib
    import inspect

    import uavcov.numerics
    import uavcov.validation
    from uavcov.montecarlo import estimate_cellfree, estimate_downlink

    targets = _traced_targets()
    assert targets
    for _, module_name, path in targets:
        owner = importlib.import_module(module_name)
        assert Path(owner.__file__).resolve().is_relative_to(SRC), module_name
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)
    assert callable(uavcov.numerics.gauss_laguerre)
    for estimate in (estimate_downlink, estimate_cellfree):
        assert {"sim_radius", "guard_tolerance"} <= set(inspect.signature(estimate).parameters)
    assert callable(uavcov.validation.integrate)
