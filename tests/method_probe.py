"""A pytest plugin that lists the library methods a test run never calls.

Every function, classmethod, staticmethod and property defined in the body
of a class of a `drinfeld` module is replaced by a wrapper that, on its
first call, records the function and puts the original back, so a reached
method costs one extra call.  Methods are keyed on `<module>.<__qualname__>`
of the function, so `Mat2.sort_key` and `PolyA.sort_key` are told apart,
and an alias such as `__radd__ = __add__` counts with its target.

At the end of the session the keys never called are printed (dunder and
private methods included) and, with `--unreached-out PATH`, written to
PATH as JSON: {"collected": <tests collected>, "unreached": [keys]}.
Run by hand from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p method_probe \\
        tests/test_acceptance.py tests/test_golden_replay.py
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import types

import drinfeld

# key -> [(class, attribute name, original class attribute)], until called
_PENDING = {}


def _function(value):
    """The function behind a class attribute, or None."""
    if isinstance(value, (classmethod, staticmethod)):
        return value.__func__
    if isinstance(value, property):
        return value.fget
    if isinstance(value, types.FunctionType):
        return value
    return None


def _wrapper(value, fn, key):
    def first_call(*args, **kwargs):
        for cls, name, original in _PENDING.pop(key, ()):
            setattr(cls, name, original)
        return fn(*args, **kwargs)

    if isinstance(value, property):
        return property(first_call, value.fset, value.fdel, value.__doc__)
    if isinstance(value, (classmethod, staticmethod)):
        return type(value)(first_call)
    return first_call


def pytest_addoption(parser):
    parser.addoption(
        "--unreached-out",
        metavar="PATH",
        help="write the never-called library methods to PATH as JSON",
    )


def pytest_configure(config):
    slots = []
    for info in pkgutil.iter_modules(drinfeld.__path__):
        module = importlib.import_module("drinfeld." + info.name)
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, value in list(vars(cls).items()):
                fn = _function(value)
                if fn is None or fn.__module__ != module.__name__:
                    continue
                key = "%s.%s" % (info.name, fn.__qualname__)
                _PENDING.setdefault(key, []).append((cls, name, value))
                slots.append((cls, name, _wrapper(value, fn, key)))
    for cls, name, wrapped in slots:
        setattr(cls, name, wrapped)


def pytest_sessionfinish(session):
    path = session.config.getoption("unreached_out")
    if path:
        with open(path, "w") as fh:
            json.dump({"collected": session.testscollected, "unreached": sorted(_PENDING)}, fh)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("library methods never called")
    for key in sorted(_PENDING):
        terminalreporter.write_line(key)
