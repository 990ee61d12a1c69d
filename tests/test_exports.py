"""Every name that a ``ddkit`` module lists in ``__all__`` resolves, so a
deletion cannot leave an export behind."""

import importlib
import pkgutil

import pytest

import ddkit

MODULES = sorted(f"ddkit.{m.name}" for m in pkgutil.iter_modules(ddkit.__path__))


def test_the_package_modules_are_found():
    assert {"ddkit.kernel", "ddkit.linalg", "ddkit.simulate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
