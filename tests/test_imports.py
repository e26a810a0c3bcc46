"""Import cost: what loading the package pulls in.

Every `uavcov point`/`sweep` process, demo and bench worker pays for the
package's imports before its first evaluation, so a module-level import of
a heavy scipy subpackage (scipy.stats alone drags in optimize, linalg,
sparse, spatial, ndimage, interpolate, integrate and fft, ~0.8 s and ~44 MB)
is a cost on every run.  Import such a package inside the function that
uses it, or copy the constants it would supply.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
