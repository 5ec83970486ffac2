"""Package surface: every exported name resolves."""

import importlib
import pkgutil

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
