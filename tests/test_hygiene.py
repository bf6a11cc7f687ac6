"""Source hygiene: every top-level import in a hexport module is used, and
every module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import hexport

PACKAGE = sorted(Path(hexport.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_scanner_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(sources: dict) -> list:
    """(module, name) of module-level ``_private`` names no module reads.

    A definition (``def``, ``class`` or assignment target) is read when its
    name is loaded, or taken as an attribute, anywhere in ``sources``.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.extend(
                (module, name) for name in names
                if name.startswith("_") and not name.startswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_scanner_flags_an_unused_private_name():
    sources = {
        "a.py": "_used = 1\n_dead, _pair = 2, 3\ndef _helper():\n    return _used\n"
                "class _Gone:\n    pass\nprint(_pair)\n",
        "b.py": "import a\nfrom a import _helper\nprint(_helper(), a._Kept)\n",
        "c.py": "class _Kept:\n    pass\n_orphan: int = 0\n__all__ = []\n",
    }
    assert unused_private_names(sources) == [
        ("a.py", "_Gone"), ("a.py", "_dead"), ("c.py", "_orphan"),
    ]


def test_no_unused_private_names():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unused_private_names(sources) == []
