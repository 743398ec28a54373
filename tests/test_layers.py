"""Module layers run one way: no module imports one ranked above it.
Every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

import sigmaevo

PACKAGE = Path(sigmaevo.__file__).parent

LAYERS = (
    ("params", "grid"),
    ("operators", "data", "propagator", "theory"),
    ("solver",),
    ("picard",),
    ("decay",),
    ("checks",),
    ("fieldio",),
    ("cli",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of sigmaevo modules imported anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "sigmaevo" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # ``from . import solver`` imports a module by its alias name
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "sigmaevo" and len(parts) > 1:
                found.add(parts[1])
    return found & RANK.keys()


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == RANK.keys()


@pytest.mark.parametrize("name", sorted(RANK))
def test_no_import_points_up(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    upward = sorted(dep for dep in _package_imports(tree)
                    if RANK[dep] > RANK[name])
    assert not upward, f"{name} imports higher layers: {upward}"


@pytest.mark.parametrize("name", ["__init__"] + sorted(RANK))
def test_every_exported_name_exists(name):
    module = (sigmaevo if name == "__init__"
              else importlib.import_module(f"sigmaevo.{name}"))
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
