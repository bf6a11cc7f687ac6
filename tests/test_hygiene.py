"""Source hygiene: every top-level import in a hexport module is used."""

import ast
from pathlib import Path

import pytest

import hexport

MODULES = sorted(
    path for path in Path(hexport.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


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
