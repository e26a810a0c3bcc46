"""Import cost: what loading the package pulls in.

Every `uavcov point`/`sweep` process, demo and bench worker pays for the
package's imports before its first evaluation, so a module-level import of
a heavy scipy subpackage (scipy.stats alone drags in optimize, linalg,
sparse, spatial, ndimage, interpolate, integrate and fft, ~0.8 s and ~44 MB)
is a cost on every run.  Import such a package inside the function that
uses it, or copy the constants it would supply.

The same goes for names: every exported name needs a user, and every name
the benchmark in perfbench/ imports, traces or patches must still exist.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_PROBE = """
import sys
import uavcov, uavcov.cli, uavcov.validation
print(" ".join(sorted(
    name for name, mod in sys.modules.items()
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")
)))
"""


def test_package_import_loads_only_scipy_special():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert set(out.split()) == {"scipy.special"}


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
    assert callable(uavcov.validation.jet_exp) and callable(uavcov.validation.integrate)
