"""Every exported name, every public module-level function and class, and
every public method of a library class has a caller in the library or the
acceptance suite."""

from __future__ import annotations

import ast
import os

import drinfeld

HERE = os.path.dirname(__file__)
PACKAGE = os.path.dirname(drinfeld.__file__)
MODULES = [
    os.path.join(PACKAGE, name)
    for name in sorted(os.listdir(PACKAGE))
    if name.endswith(".py") and name != "__init__.py"
]
CALLERS = MODULES + [os.path.join(HERE, "test_acceptance.py")]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _references(path):
    """Names loaded or read as attributes in a file, outside their own definition."""
    found = set()
    for stmt in _parse(path).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def _attribute_reads(path):
    """Attribute names read in a file, outside every function of that name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(_parse(path), frozenset())
    return found


def test_every_exported_name_has_a_caller():
    reached = set().union(*map(_references, CALLERS))
    assert sorted(set(drinfeld.__all__) - reached) == []


def test_every_public_module_level_definition_has_a_caller():
    reached = set().union(*map(_references, CALLERS))
    unreached = [
        "%s.%s" % (os.path.basename(path)[:-3], stmt.name)
        for path in MODULES
        for stmt in _parse(path).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in reached
    ]
    assert unreached == []


def test_every_public_method_has_a_caller():
    reached = set().union(*map(_attribute_reads, CALLERS))
    unreached = [
        "%s.%s.%s" % (os.path.basename(path)[:-3], cls.name, fn.name)
        for path in MODULES
        for cls in _parse(path).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in reached
    ]
    assert unreached == []
