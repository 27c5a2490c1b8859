"""Every exported name and every public module-level function and class has a
caller in the library or the acceptance suite, and every public method of a
library class is called by the acceptance suite or a golden CLI request.

The first two checks read the source.  The method check runs
`tests/test_acceptance.py` and `tests/test_golden_replay.py` in a
subprocess under the `method_probe` plugin, which resolves each call to
the class that defines the method; the acceptance suite's runtime limits
are asserted by its own run, not here.  The one rule by name: an attribute
read in `perfbench/tracer.py` counts as reached.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import drinfeld

HERE = os.path.dirname(__file__)
PACKAGE = os.path.dirname(drinfeld.__file__)
MODULES = [
    os.path.join(PACKAGE, name)
    for name in sorted(os.listdir(PACKAGE))
    if name.endswith(".py") and name != "__init__.py"
]
CALLERS = MODULES + [os.path.join(HERE, "test_acceptance.py")]
TRACER = os.path.join(HERE, os.pardir, "perfbench", "tracer.py")


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


def test_every_public_method_has_a_caller(tmp_path):
    out = tmp_path / "unreached.json"
    path = [os.path.dirname(PACKAGE), HERE, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-p", "method_probe", "--unreached-out", str(out)]
        + [os.path.join(HERE, "test_acceptance.py")]
        + [os.path.join(HERE, "test_golden_replay.py")],
        cwd=os.path.dirname(HERE),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
    )
    assert out.exists(), proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads(out.read_text())
    assert record["collected"] > 0
    read_by_tracer = _attribute_reads(TRACER)
    unreached = [
        key
        for key in record["unreached"]
        if not key.rpartition(".")[2].startswith("_")
        and key.rpartition(".")[2] not in read_by_tracer
    ]
    assert unreached == []
