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


def test_package_exports_each_library_name_once():
    # The package re-exports its library modules' lists; the Gram helpers
    # stay internal to the modules that use them.
    names = [
        n
        for m in MODULES
        if m != "cli"
        for n in importlib.import_module(f"sparsechan.{m}").__all__
    ]
    assert sparsechan.__all__ == names
    assert len(set(names)) == len(names) == 45
    assert not {"gram_kernel", "support_gram", "support_solve"} & set(names)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"sparsechan.{module}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


ROOT = Path(__file__).resolve().parent.parent


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with src/ on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_import_loads_neither_scipy_nor_the_process_pool():
    # scipy.special alone costs about 0.3 s of every CLI start, and
    # concurrent.futures.process (multiprocessing) about 30 ms; only
    # run_sweep with several workers needs the pool.  numpy.ma (about 1 MB of
    # peak RSS, pulled in by np.unique) stays unloaded through a
    # single-process sweep of every estimator on a block's arrays: the
    # pursuits' rows grow supports of several sizes, and li-mmse factors a
    # stack of sample covariances.
    proc = _run_fresh(
        "import sys, sparsechan.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process')); "
        "from sparsechan import ESTIMATOR_NAMES, SweepConfig, SystemConfig, etu_profile, "
        "run_sweep; "
        "run_sweep(SweepConfig(SystemConfig(d=32, n_pilots=8), etu_profile(), (10.0,), 10, "
        "ESTIMATOR_NAMES, n_prior_sets=2)); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m in ('numpy.ma', 'concurrent.futures.process')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_readme_library_example_runs():
    # The first python block of README.md, run as a user would.
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
