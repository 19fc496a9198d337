"""Every exported name resolves, so a deleted function cannot leave a stale
export behind in ``horus`` or in one of its modules."""

import importlib
import pkgutil

import horus


def test_every_exported_name_imports():
    modules = [horus] + [
        importlib.import_module(f"horus.{info.name}")
        for info in pkgutil.iter_modules(horus.__path__)
    ]
    undeclared = [m.__name__ for m in modules if not hasattr(m, "__all__")]
    assert undeclared == []
    stale = [
        f"{m.__name__}.{name}" for m in modules for name in m.__all__
        if not hasattr(m, name)
    ]
    assert stale == []
    # what the package re-exports is what its modules export
    for name in horus.__all__:
        obj = getattr(horus, name)
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"{name} is not in {home.__name__}.__all__"
