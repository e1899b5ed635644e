"""The package namespace covers its documented users: every name the
README quick start and the demos import from ``hfnoise``, and every
``hf.<name>`` the benchmark harness reads, resolves on the package; and
importing it loads no more of scipy than ``scipy.special``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hfnoise

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def imported_names(source):
    return sorted({alias.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "hfnoise" and node.level == 0
                   for alias in node.names})


def attribute_names(source, alias="hf"):
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id == alias})


@pytest.mark.parametrize("path", [README] + DEMOS, ids=lambda p: p.name)
def test_documented_imports_resolve(path):
    source = quick_start() if path == README else path.read_text("utf-8")
    names = imported_names(source)
    assert names
    assert [n for n in names if not hasattr(hfnoise, n)] == []


def test_benchmark_attributes_resolve():
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if re.search(r"^import hfnoise as hf\b", source, re.M):
            names.update(attribute_names(source))
    assert {"default_K", "roc_points", "ols", "block_estimates",
            "HFNoiseError"} <= names
    assert sorted(n for n in names if not hasattr(hfnoise, n)) == []


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert "vs true" in out[0] and "TestReport(" in out[1]


def test_import_leaves_out_scipy_stats_and_signal():
    # the package needs only scipy.special; scipy.stats alone takes most of
    # a second to import
    src = str(Path(hfnoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hfnoise, hfnoise.cli; print([m for m in "
            "('scipy.stats', 'scipy.signal') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
