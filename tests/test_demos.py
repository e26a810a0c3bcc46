"""The demos are scripts no other test runs: check, from their source alone,
that their uavcov imports resolve and that they call those names only with
keywords the signatures accept; and that every demo config parses into a
sweep whose points all build."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from uavcov.config import parse_config, points

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uavcov_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uavcov":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, f"{path.name} imports nothing from uavcov"
    # every keyword passed to an imported callable must be one of its parameters
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported:
            params = inspect.signature(imported[node.func.id]).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, \
                    f"{path.name}:{node.lineno}: {node.func.id}({kw.arg}=...)"


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_demo_config_builds_every_row(path):
    # parse only: lists the sweep's points and runs no coverage computation
    cfg = parse_config(path.read_text(encoding="utf-8"))
    rows = points(cfg)
    assert len(rows) == cfg.sweep.steps
    assert [error for *_, error in rows if error is not None] == []
