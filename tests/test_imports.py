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
