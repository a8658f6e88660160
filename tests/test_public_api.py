"""The public surface: the names the package exports, the README example, and
what import drlqr loads."""

import ast
import functools
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import drlqr

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "drlqr"


def test_all_names_bound_once():
    namespace = {}
    exec("from drlqr import *", namespace)
    assert len(drlqr.__all__) == len(set(drlqr.__all__))
    assert all(name in namespace for name in drlqr.__all__)


def test_every_export_is_used_by_readme_cli_or_benchmark():
    """The public API is what README, the CLI and the benchmark use: each
    exported name occurs there as a word."""
    text = "\n".join((ROOT / f).read_text()
                     for f in ("README.md", "src/drlqr/cli.py", "perfbench/workloads.py"))
    assert [name for name in drlqr.__all__ if not re.search(rf"\b{name}\b", text)] == []


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    result = namespace["result"]
    assert result.cost_bound == result.controller.cost_bound
    assert np.all(np.isfinite(result.controller.K))
    assert "(True," in capsys.readouterr().out


def _fresh(code: str) -> list[str]:
    """The lines code prints, run by a new interpreter with src/ first on its path."""
    code = f"import sys\nsys.path.insert(0, sys.argv.pop(1))\n{textwrap.dedent(code)}"
    return subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                          text=True, check=True).stdout.splitlines()


def _loaded(modules, names):
    """The modules among modules that are one of names or inside one of them."""
    return [m for m in modules if any(m == n or m.startswith(n + ".") for n in names)]


@functools.cache
def _import_loads() -> list[str]:
    """The modules a new interpreter holds after import drlqr."""
    return _fresh("import drlqr; print(*sys.modules)")[0].split()


def test_import_loads_no_special_functions_or_pool():
    """import drlqr loads neither scipy.special, which example1_analytic imports
    when called, nor concurrent.futures or multiprocessing, which a sweep imports
    when it starts a pool."""
    loaded = _import_loads()
    assert "drlqr.experiment" in loaded
    assert _loaded(loaded, ("scipy.special", "concurrent", "multiprocessing")) == []


def test_import_skips_the_scipy_linalg_package():
    """The LAPACK routines come from scipy.linalg._flapack alone: the scipy.linalg
    package, whose __init__ loads numpy.f2py, numpy.testing and numpy.ma, is not
    imported."""
    loaded = _import_loads()
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
    assert _loaded(loaded, ("numpy.f2py", "numpy.testing", "numpy.ma")) == []


# the LAPACK routines each module binds and calls
LAPACK_BOUND = {"matcore": ("dgesv", "dpotrf", "dpotrs", "dtrtrs"),
                "riccati": ("dgesv", "dpotrf", "dpotrs"),
                "stability": ("dgesv", "dpotrf"),
                "sdpcore": ("dpotrf", "dpotrs", "dtrtrs")}

# prints whether scipy.linalg was loaded when drlqr had been imported, then every
# routine a module binds that is not the object scipy.linalg.lapack exports
_NOT_SCIPYS = f"""
loaded = set(sys.modules)
import importlib, scipy.linalg.lapack as lapack
print("scipy.linalg" in loaded, *[f"{{m}}.{{r}}" for m, names in {LAPACK_BOUND!r}.items() for r in names
                                  if getattr(importlib.import_module("drlqr." + m), r)
                                  is not getattr(lapack, r)])
"""


@pytest.mark.parametrize("first", ["drlqr", "scipy.linalg.lapack"])
def test_bound_routines_are_scipys(first):
    """Every routine bound is the very object scipy.linalg.lapack exports, whichever
    of drlqr and scipy.linalg is imported first."""
    assert _fresh(f"import {first}\nimport drlqr\n" + _NOT_SCIPYS) == [f"{first != 'drlqr'}"]


_NOT_FOUND = """
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES = []
"""

_LOAD_ERROR = """
import importlib.machinery
create = importlib.machinery.ExtensionFileLoader.create_module

def failing(self, spec):
    if spec.name == "scipy.linalg._flapack" and "scipy.linalg" not in sys.modules:
        raise OSError("cannot load")
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = failing
"""


@pytest.mark.parametrize("failure", [_NOT_FOUND, _LOAD_ERROR], ids=["not_found", "load_error"])
def test_fallback_binds_the_same_routines(failure):
    """When the extension is not found, or does not load, the routines come from
    scipy.linalg.lapack: the same objects."""
    assert _fresh(failure + "import drlqr\n" + _NOT_SCIPYS) == ["True"]


# matcore's error states for numpy.linalg's gufuncs, by their names then and now
ERROR_STATES = {"NOT_PD", "NO_CONVERGENCE", "SINGULAR", "_NOT_PD", "_NO_CONVERGENCE", "_SINGULAR"}


def _error_state_uses(tree) -> list[str]:
    """Where tree enters np.errstate(**...) or names one of matcore's error states."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "errstate" and any(k.arg is None for k in node.keywords)):
            found.append(f"line {node.lineno}: errstate(**...)")
        names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.attr] if isinstance(node, ast.Attribute)
                 else [node.id] if isinstance(node, ast.Name) else [])
        found += [f"line {node.lineno}: {name}" for name in names if name in ERROR_STATES]
    return found


def test_only_matcore_enters_numpys_linalg_error_state():
    """The bindings enter numpy.linalg's error state themselves: no other module
    enters np.errstate(**state) or imports matcore's states to do so."""
    modules = {path.name: _error_state_uses(ast.parse(path.read_text()))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "matcore.py"}
    assert len(modules) > 5 and {name: uses for name, uses in modules.items() if uses} == {}
    assert _error_state_uses(ast.parse((PACKAGE / "matcore.py").read_text()))  # the scan sees them
