"""The public surface: the names the package exports and the README example."""

import re
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
