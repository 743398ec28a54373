"""Module layers run one way: no module imports one ranked above it.
Every exported name exists.  There is one transform path and one
validation error.  The CLI starts, and runs in 1-D, without the slow
scipy submodules and without OpenSSL."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


# Complex transforms; the real pair rfftn/irfftn on the half spectrum is
# the package's one transform path.
COMPLEX_FFTS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}


@pytest.mark.parametrize("name", ["__init__"] + sorted(RANK))
def test_no_complex_transform(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in COMPLEX_FFTS]
        elif isinstance(node, ast.Call):
            func = node.func
            called = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            if called in COMPLEX_FFTS:
                found.append(f"{called} (line {node.lineno})")
    assert not found, f"{name} uses complex transforms: {found}"


# scipy submodules that cost most of a second to import; no run needs them.
# scipy.fft alone adds about 0.3 s after numpy and scipy.
SLOW_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.special",
              "scipy.optimize", "scipy.fft")
# numpy.polynomial adds 1.4 MiB of memory; duhamel_weight holds its
# Gauss-Legendre nodes as literals instead.
UNUSED = SLOW_SCIPY + ("numpy.polynomial",)
# hashlib loads _hashlib and with it OpenSSL's libcrypto, about 3.4 MiB;
# config_hash takes CPython's built-in SHA-256 where the interpreter has it.
if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
    UNUSED += ("hashlib", "_hashlib")


def test_cli_starts_without_slow_scipy_modules(tmp_path):
    # the CLI's import, the step tables of a toy grid, then a toy 1-D
    # linear and semilinear run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    toy = ["--N", "64", "--L", "60", "--t_end", "4"]
    code = ("import sys, sigmaevo.cli\n"
            "from sigmaevo import GridSpec, ModelParams, build_grid\n"
            "from sigmaevo.solver import StepTables\n"
            "StepTables(build_grid(GridSpec(1, 16, 6.0)), ModelParams(n=1, "
            "sigma=1.0, alpha=0.5, p=4.0, m=1.0), 0.1, dealias=True)\n"
            "for sub in ('linear', 'semilinear'):\n"
            f"    assert sigmaevo.cli.main([sub, *{toy!r}, '--output_dir', "
            f"{str(tmp_path)!r} + '/' + sub]) == 0\n"
            f"print([m for m in {UNUSED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def _imports_scipy_integrate(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.startswith("scipy.integrate") for name in names):
            return True
    return False


def test_only_checks_imports_scipy_integrate():
    found = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if _imports_scipy_integrate(ast.parse(path.read_text())))
    assert found == ["checks"]


def test_one_validation_error():
    defined = [f"{path.stem}:{node.lineno}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and node.name == "ValidationError"]
    assert len(defined) == 1, defined
    from sigmaevo import cli, params
    assert cli.ValidationError is params.ValidationError
