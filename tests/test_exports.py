"""Every exported name resolves, so a deleted function cannot leave a stale
export behind in one of the package's modules; and every public name a
module exports or defines has a caller outside the tests, so no public
function lives on for its own tests alone."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import horus


def test_every_exported_name_imports():
    modules = [
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


def public_names(module) -> set[str]:
    """The names ``module`` exports, and every function and class it defines
    at module level whose name has no leading underscore."""
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    return defined | set(module.__all__)


def test_every_exported_name_has_a_caller():
    """A public name (see :func:`public_names`) is used as code (a name or
    an attribute) somewhere in the package's own modules, the benchmark or
    the tools, not only in its tests; its own definition is not a use."""
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "horus").glob("*.py") if f.name != "__init__.py"]
    files += sorted((root / "bench").rglob("*.py")) + sorted((root / "tools").rglob("*.py"))
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    modules = [
        importlib.import_module(f"horus.{info.name}")
        for info in pkgutil.iter_modules(horus.__path__)
    ]
    unused = [
        f"{m.__name__}.{name}" for m in modules for name in sorted(public_names(m))
        if name not in used
    ]
    assert unused == []


def test_the_package_re_exports_nothing():
    """Each name has one home: ``horus`` itself imports none of its modules."""
    init = Path(horus.__file__).read_text(encoding="utf-8")
    imports = [node for node in ast.walk(ast.parse(init))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
