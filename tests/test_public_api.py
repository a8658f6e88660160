"""The public surface: the names the package exports and the README example."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import drlqr

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_import_loads_no_special_functions_or_pool():
    """import drlqr loads neither scipy.special, which example1_analytic imports
    when called, nor concurrent.futures or multiprocessing, which a sweep imports
    when it starts a pool.  scipy.linalg loads concurrent.futures itself, through
    numpy.testing, so the check is on the modules that drlqr's import adds to
    those of the numpy and scipy modules it uses."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, scipy.linalg.lapack; "
            "before = set(sys.modules); import drlqr; "
            "print(*sorted(set(sys.modules) - before)); print(*sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    added, loaded = out[0].split(), out[1].split()
    assert "drlqr.experiment" in added and "scipy.special" not in loaded
    assert [m for m in added if m.split(".")[0] in ("concurrent", "multiprocessing")] == []
