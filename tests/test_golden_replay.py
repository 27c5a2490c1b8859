"""Byte-for-byte replay of the recorded extension-field CLI outputs.

The benchmark's golden records (perfbench/golden/*.json) hold the exit code
and stdout sha256 of every request it can send.  This test replays the ones
over F_9, F_25 and F_27, where the element coding differs from the value,
except the slowest few (the gamma1 witness searches over F_9 and the gammaN
cusp orbits over F_25 and F_27).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex

from drinfeld.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")
EXTENSION_Q = ("9", "25", "27")


def _requests():
    out = []
    for workload in ("search", "cusps", "forms"):
        with open(os.path.join(GOLDEN, "%s.json" % workload)) as fh:
            records = json.load(fh)["requests"]
        for key, expected in records.items():
            argv = shlex.split(key)
            if "--q" not in argv or argv[argv.index("--q") + 1] not in EXTENSION_Q:
                continue
            q = argv[argv.index("--q") + 1]
            group = argv[argv.index("--group") + 1] if "--group" in argv else ""
            if argv[0] == "ellsearch" and q == "9" and group.startswith("gamma1"):
                continue
            if argv[0] == "cusps" and q != "9" and group.startswith("gammaN"):
                continue
            out.append((key, argv, expected))
    return out


def test_extension_field_outputs_match_the_golden_record():
    requests = _requests()
    assert len(requests) == 124
    mismatched = []
    for key, argv, expected in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, sha) != (expected["code"], expected["sha256"]):
            mismatched.append(key)
    assert mismatched == []
