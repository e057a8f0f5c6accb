"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

import pytest

import scopflearn

SOURCES = sorted(Path(scopflearn.__file__).parent.glob("*.py"))
# __init__.py imports to re-export, so its imports are its interface
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom x import y, z\nnp.zeros(z)\n"
    assert unused_imports(source) == ["os", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """The private functions, methods and classes a module defines."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read(source: str) -> set[str]:
    """The names a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_unread_private_definitions_are_found():
    source = ("def _read(): pass\ndef _unread(): pass\nclass _Unread:\n"
              "    def _method(self): pass\n    def __init__(self): self._method()\n"
              "def public(): _read()\n")
    assert private_definitions(source) == {"_read", "_unread", "_Unread", "_method"}
    assert private_definitions(source) - names_read(source) == {"_unread", "_Unread"}


def test_every_private_definition_is_read():
    # a private helper no module of the package reads is dead code
    sources = [p.read_text() for p in SOURCES]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(private_definitions, sources))
    assert len(defined) > 30
    assert sorted(defined - read) == []


def module_constants(source: str) -> set[str]:
    """The UPPER_CASE names a module assigns at its top level."""
    names = set()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    return names


def test_unread_module_constants_are_found():
    source = ("A = 1\nB: int = 2\n_C = A\nlower = 3\nX, Y = 4, 5\n"
              "class K:\n    D = 6\ndef f():\n    E = 7\n")
    assert module_constants(source) == {"A", "B", "_C"}
    assert module_constants(source) - names_read(source) == {"B", "_C"}


def test_every_module_constant_is_read():
    # a module-level constant no module of the package reads is dead code
    sources = [p.read_text() for p in SOURCES]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(module_constants, sources))
    assert len(defined) > 10
    assert sorted(defined - read) == []
