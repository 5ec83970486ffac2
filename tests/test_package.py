"""Package surface: every exported name resolves, and the README example runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparsechan

MODULES = sorted(m.name for m in pkgutil.iter_modules(sparsechan.__path__))


def test_package_exports_resolve():
    missing = [n for n in sparsechan.__all__ if not hasattr(sparsechan, n)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"sparsechan.{module}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_readme_library_example_runs():
    # The first python block of README.md, run as a user would, from a fresh
    # interpreter with src/ on the path.
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
