"""The demos are scripts no other test runs: check that their uavcov imports resolve."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uavcov_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "uavcov"
    ]
    assert imports, f"{path.name} imports nothing from uavcov"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
