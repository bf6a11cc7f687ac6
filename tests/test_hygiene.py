"""Source hygiene: every import in a hexport module, at any depth, is used,
every module-level private name is read somewhere in the package, every
public module function and class member is read somewhere in the package,
its tests or its benchmark, and so is every private method and
``self._name`` attribute of a package class."""

import ast
from pathlib import Path

import pytest

import hexport

PACKAGE = sorted(Path(hexport.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by imports anywhere in the module that it never reads.

    A name the module lists in ``__all__`` counts as read: that is how a
    package re-exports what it imports.  A name is read anywhere in the
    module, so an import inside a function is taken as used when another
    scope reads the same name.
    """
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
    return sorted(name for name in bound if name not in used)


def test_scanner_flags_an_unused_import():
    source = (
        "import os\nimport sys as system\nfrom math import pi, tau\nprint(system, tau)\n"
        "from .errors import Kept, Gone\n__all__ = ['Kept']\n"
        "def f():\n    import json\n    from re import match, sub\n    return sub\n"
    )
    assert unused_imports(source) == ["Gone", "json", "match", "os", "pi"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bound_names(node) -> list:
    """Names a ``def``, ``class`` or assignment statement binds; else none."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def read_names(sources) -> set:
    """Names the sources load, take as an attribute, or spell as a whole
    string constant (``getattr`` and ``mock.patch.object`` targets)."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unused_private_names(sources: dict) -> list:
    """(module, name) of module-level ``_private`` names no module reads.

    A definition (``def``, ``class`` or assignment target) is read when
    :func:`read_names` finds its name anywhere in ``sources``.
    """
    read = read_names(sources.values())
    return sorted(
        (module, name) for module, source in sources.items()
        for node in ast.parse(source).body for name in bound_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


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


def project_sources() -> dict:
    """Every Python source under ``src``, ``tests`` and ``hexbench``, by path."""
    root = Path(__file__).resolve().parents[1]
    return {str(path): path.read_text(encoding="utf-8")
            for folder in ("src", "tests", "hexbench") for path in (root / folder).rglob("*.py")}


def unused_public_names(package: dict, readers: dict, exempt=()) -> list:
    """(module, name) of public module functions and class members of
    ``package`` that :func:`read_names` finds in no source of ``readers``.

    A class member is a method, property or class-body assignment target.
    Private names, dunders and the ``(module, name)`` pairs in ``exempt``
    are skipped.
    """
    read = read_names(readers.values())
    defined = set()
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                members = node.body
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [node]
            else:
                continue
            defined.update((module, name) for member in members
                           for name in bound_names(member) if not name.startswith("_"))
    return sorted(
        (module, name) for module, name in defined - set(exempt) if name not in read
    )


def test_scanner_flags_an_unused_public_name():
    package = {
        "a.py": "def used():\n    pass\ndef dead():\n    pass\ndef main():\n    pass\n"
                "def __getattr__(name):\n    pass\n"
                "class Box:\n    size: int = 0\n    spare = 1\n    def area(self):\n"
                "        return self.size\n    @property\n    def pitch(self):\n"
                "        return 1\n    def __len__(self):\n        return 0\n"
                "    def _hidden(self):\n        pass\n",
        "b.py": "def patched():\n    pass\n",
    }
    readers = {**package, "test_c.py": "from a import used\nused()\nBox().area()\n"
                                       "mock.patch.object(b, 'patched')\n"}
    assert unused_public_names(package, readers, exempt=[("a.py", "main")]) == [
        ("a.py", "dead"), ("a.py", "pitch"), ("a.py", "spare"),
    ]


def test_no_unused_public_names():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = project_sources()
    assert unused_public_names(package, readers, exempt=[("cli.py", "main")]) == []


def private_members(source: str) -> list:
    """``_name`` methods of the module's classes, and the ``self._name``
    attributes their methods store; dunders are skipped."""
    members = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node in cls.body:
                members.append(node.name)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                members.append(node.attr)
    return [name for name in members if name.startswith("_") and not name.startswith("__")]


def loaded_attributes(sources) -> set:
    """Attribute names the sources load, and every whole string constant
    (``getattr`` and ``mock.patch.object`` targets)."""
    loaded = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    return loaded


def unused_private_members(package: dict, readers: dict) -> list:
    """(module, name) of :func:`private_members` of ``package`` that no
    source of ``readers`` loads as an attribute or spells as a string."""
    loaded = loaded_attributes(readers.values())
    return sorted({(module, name) for module, source in package.items()
                   for name in private_members(source) if name not in loaded})


def test_scanner_flags_an_unused_private_member():
    package = {
        "a.py": "class Box:\n    def __init__(self):\n        self._kept = 1\n"
                "        self._gone = 2\n        self._spelled = 3\n        other._far = 4\n"
                "        self._count = 0\n        self._count += 1\n"
                "    def _used(self):\n        return self._kept\n"
                "    def _dead(self):\n        pass\n"
                "    def __len__(self):\n        return self._used()\n"
                "def _helper():\n    pass\n",
    }
    readers = {**package, "test_b.py": "getattr(box, '_spelled')\n"}
    assert unused_private_members(package, readers) == [
        ("a.py", "_count"), ("a.py", "_dead"), ("a.py", "_gone"),
    ]


def test_no_unused_private_members():
    package = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers = project_sources()
    assert unused_private_members(package, readers) == []
