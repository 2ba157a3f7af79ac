"""Every exported name resolves, so a moved or deleted function cannot
leave a stale entry in ``__all__``."""

import importlib
import pkgutil

import pytest

import sparsett

MODULES = ["sparsett"] + [
    f"sparsett.{info.name}" for info in pkgutil.iter_modules(sparsett.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
