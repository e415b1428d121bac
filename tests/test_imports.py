"""Every ``repro`` module imports with only its declared dependencies.

A clean ``pip install -e '.[test]'`` provides the standard library plus
the packages ``pyproject.toml`` declares, nothing else.  The check runs
in a fresh interpreter whose import system refuses every other
top-level package, so a module that needs an undeclared package fails
here even when that package happens to be installed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_CHILD = r"""
import importlib
import pkgutil
import sys
import traceback

allowed = set(sys.argv[1].split(",")) | set(sys.stdlib_module_names) | {"repro"}


class RefuseUndeclared:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in allowed:
            raise ModuleNotFoundError(f"undeclared dependency {top!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseUndeclared())
import repro

failed = []
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name.rpartition(".")[2] == "__main__":
        continue
    try:
        importlib.import_module(module.name)
    except Exception:
        failed.append(module.name)
        traceback.print_exc()
print("failed:", failed)
sys.exit(1 if failed else 0)
"""


def declared_packages() -> list:
    """Top-level names of the ``[project]`` dependencies in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
    assert block, "pyproject.toml declares no [project] dependencies list"
    names = re.findall(r"[\"']\s*([A-Za-z0-9_.\-]+)", block.group(1))
    return [name.lower().replace("-", "_") for name in names]


def test_declared_dependencies_are_read():
    assert "numpy" in declared_packages()


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names needs Python 3.10"
)
def test_every_module_imports_with_declared_dependencies_only():
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, ",".join(declared_packages())],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
