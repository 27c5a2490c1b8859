"""List the statements of `src/drinfeld/` that neither the golden requests
nor the acceptance suite executes.

Every request recorded in `perfbench/golden/*.json` is replayed through
`drinfeld.cli.main`, its output discarded, and `tests/test_acceptance.py`
is run in process through `pytest.main`, its report discarded; both run
under one `sys.settrace`, which collects the lines executed in the
library's files.  The probe reports lines, not test results: the trace
slows the acceptance suite, so a runtime limit there may fail without
changing what was executed.  The statements are those of the `ast` inside
function bodies: module and class bodies, which run at import, and
function docstrings are left out.  A simple statement counts as executed
when any of its lines is, a compound one when a line of its header is.
The first lines of the statements never executed are printed, one line
per module.  The golden files and the tests are only read.  Run by hand
from the repository root:

    PYTHONPATH=src python tests/line_probe.py
"""

from __future__ import annotations

import ast
import contextlib
import glob
import json
import os
import shlex
import sys

import pytest

import drinfeld
from drinfeld.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(drinfeld.__file__))
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")


def _spans(path):
    """(first line, range of lines) of each statement inside a function body."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    spans = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, in_function)
                continue
            if in_function and not _is_docstring(node, child):
                body = [s for s in ast.iter_child_nodes(child) if isinstance(s, ast.stmt)]
                end = body[0].lineno - 1 if body else child.end_lineno
                spans.append((child.lineno, range(child.lineno, max(end, child.lineno) + 1)))
            if isinstance(child, ast.ClassDef):
                visit(child, False)
            else:
                visit(child, in_function or isinstance(child, ast.FunctionDef))

    visit(tree, False)
    return spans


def _is_docstring(parent, stmt):
    return (
        isinstance(parent, ast.FunctionDef)
        and stmt is parent.body[0]
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _collect():
    """{file: executed lines} over every golden request and the acceptance suite."""
    executed = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sys.settrace(trace)
        try:
            for golden in sorted(glob.glob(os.path.join(ROOT, "perfbench", "golden", "*.json"))):
                with open(golden) as fh:
                    requests = json.load(fh)["requests"]
                for key in requests:
                    main(shlex.split(key))
            pytest.main(["-q", "-p", "no:cacheprovider", ACCEPTANCE])
        finally:
            sys.settrace(None)
    return executed


def main_probe():
    executed = _collect()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        lines = executed.get(path, set())
        missed = [first for first, span in _spans(path) if lines.isdisjoint(span)]
        if missed:
            print("%s: %s" % (os.path.basename(path), " ".join(map(str, missed))))


if __name__ == "__main__":
    main_probe()
