"""Every exported name resolves, so a deleted function cannot linger in an export
list, and no module reaches into a sibling's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import zetaline


def test_module_all_entries_resolve():
    for info in pkgutil.iter_modules(zetaline.__path__):
        mod = importlib.import_module(f"zetaline.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"zetaline.{info.name}.__all__ names missing {name!r}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(zetaline.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"zetaline.{module}")
        assert getattr(zetaline, name) is getattr(mod, name)
        assert name in mod.__all__, f"zetaline re-exports {name!r}, not in zetaline.{module}.__all__"


def test_no_module_imports_a_private_name_from_a_sibling():
    """An underscore-prefixed name stays inside its module: a choice such as
    the series pass's scale and working precision is made in one place."""
    offenders = []
    for path in sorted(Path(zetaline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("zetaline")):
                offenders += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
