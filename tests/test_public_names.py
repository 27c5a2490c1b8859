"""Every exported name has a caller in the library or the acceptance suite."""

from __future__ import annotations

import ast
import os

import drinfeld

HERE = os.path.dirname(__file__)
PACKAGE = os.path.dirname(drinfeld.__file__)


def _references(path):
    """Names loaded or read as attributes in a file, outside their own definition."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for stmt in tree.body:
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


def test_every_exported_name_has_a_caller():
    paths = [
        os.path.join(PACKAGE, name)
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py") and name != "__init__.py"
    ]
    paths.append(os.path.join(HERE, "test_acceptance.py"))
    reached = set().union(*map(_references, paths))
    assert sorted(set(drinfeld.__all__) - reached) == []
