"""Every name a ``repro`` package lists in ``__all__`` must import.

A stale re-export (a name kept in ``__all__`` after its definition was
deleted) breaks ``from repro.x import *`` and any caller that trusts the
package's advertised surface; nothing else in the suite would notice.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return sorted(
        name for name in names if hasattr(importlib.import_module(name), "__all__")
    )


PACKAGES = _packages_with_all()


def test_packages_are_discovered():
    assert {"repro", "repro.core", "repro.orchestrator", "repro.recovery"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_import(package):
    module = importlib.import_module(package)
    missing = []
    for name in module.__all__:
        # ``from package import name`` also resolves submodules.
        if hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{package}.{name}")
        except ImportError:
            missing.append(name)
    assert not missing, f"{package}.__all__ lists names that do not import: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{package}.__all__ has duplicates"
