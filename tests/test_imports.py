import ast
from pathlib import Path

import lindloc

PACKAGE = Path(lindloc.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by `from ... import` in a module that no name in it
    reads; annotations count as reads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_checker_finds_an_unused_import():
    source = "from x import a, b as c\nfrom __future__ import annotations\n\ndef f(y: c): pass\n"
    assert unused_imports(source) == ["line 1: a"]


def test_no_module_imports_a_name_it_does_not_use():
    """Every `from ... import` name in the package's modules is used; the
    package's __init__ imports names to export them."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {
        p.name: unused
        for p in modules
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def private_definitions(source: str) -> dict[str, int]:
    """The private module-level defs, classes and constants of a module, and
    the private methods of its classes, with their lines."""
    found = {}

    def add(name, line):
        if name.startswith("_") and not name.endswith("__"):
            found[name] = line

    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    add(target.id, node.lineno)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            add(node.target.id, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            add(node.name, node.lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    add(item.name, item.lineno)
    return found


def reads(source: str) -> set[str]:
    """Every name and attribute a module loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private definitions of the modules (name -> source) that no
    module reads, as "module:line name"."""
    read = set().union(*map(reads, sources.values()))
    return [
        f"{module}:{line} {name}"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    ]


def test_the_checker_finds_an_unread_private_definition():
    a = (
        "_USED = 1\n_UNUSED: int = 2\n__all__ = []\n\n"
        "def _helper():\n    return _USED\n\n"
        "def _orphan():\n    pass\n\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._spare = 0\n"
        "    def _read(self):\n        return self._spare\n"
        "    def _stale(self):\n        _orphan_too = 1\n"
    )
    b = "from a import _helper, _Box\n_helper()\n_Box()._read()\n"
    assert unread_private_definitions({"a": a, "b": b}) == [
        "a:2 _UNUSED",
        "a:8 _orphan",
        "a:16 _stale",
    ]


def test_every_private_definition_is_read_in_the_package():
    """A private helper, constant, class or method that nothing in the
    package reads is dead code; tests alone do not keep one alive."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 10
    assert unread_private_definitions(sources) == []
