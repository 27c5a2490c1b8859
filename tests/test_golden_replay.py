"""Byte-for-byte replay of recorded CLI outputs.

The benchmark's golden records (perfbench/golden/*.json) hold the exit code
and stdout sha256 of every request it can send.  One test replays all of
the ones over F_9, F_25 and F_27, where the element coding differs from the
value.  Another replays the prime-field `sectionring` requests, where the
presentation engine's exact row reduction decides every generator and
relation: all of them at q = 5 and 7, and at q = 3 all but the slow tail of
Gamma0T_2 budget exits.
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


def _records(workloads):
    """(key, argv, option dict, expected) for every golden request."""
    for workload in workloads:
        with open(os.path.join(GOLDEN, "%s.json" % workload)) as fh:
            records = json.load(fh)["requests"]
        for key, expected in records.items():
            argv = shlex.split(key)
            opts = dict(zip(argv[1::2], argv[2::2]))
            yield key, argv, opts, expected


def _mismatches(requests):
    mismatched = []
    for key, argv, _, expected in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, sha) != (expected["code"], expected["sha256"]):
            mismatched.append(key)
    return mismatched


def _extension_field_requests():
    out = []
    for key, argv, opts, expected in _records(("search", "cusps", "forms")):
        q = opts.get("--q")
        if q in EXTENSION_Q:
            out.append((key, argv, opts, expected))
    return out


def _prime_field_sectionring_requests():
    """All at q = 5 and 7; at q = 3 Gamma0T_2 up to weight 34, its first
    budget exit in each format, and all GL2A_2."""
    out = []
    for key, argv, opts, expected in _records(("forms",)):
        if argv[0] != "sectionring" or opts.get("--q") not in ("3", "5", "7"):
            continue
        preset, weight = opts["--preset"], int(opts["--max-weight"])
        if (
            opts["--q"] != "3"
            or preset == "GL2A_2"
            or (preset == "Gamma0T_2" and (weight <= 34 or weight == 38))
        ):
            out.append((key, argv, opts, expected))
    return out


def test_extension_field_outputs_match_the_golden_record():
    requests = _extension_field_requests()
    assert len(requests) == 134
    assert _mismatches(requests) == []


def test_prime_field_sectionring_outputs_match_the_golden_record():
    requests = _prime_field_sectionring_requests()
    assert len(requests) == 200
    exits = [r for r in requests if r[3]["code"] == 3]
    assert sorted(r[2]["--format"] for r in exits) == ["json", "table"]
    assert _mismatches(requests) == []
