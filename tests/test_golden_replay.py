"""Byte-for-byte replay of recorded CLI outputs.

The benchmark's golden records (perfbench/golden/*.json) hold the exit code
and stdout sha256 of every request it can send.  One test per workload
replays all of its requests: every field (prime and extension), every
subcommand, and every recorded budget exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex

import pytest

from drinfeld.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden")


def _records(workload):
    """(key, argv, expected) for every golden request of one workload."""
    with open(os.path.join(GOLDEN, "%s.json" % workload)) as fh:
        records = json.load(fh)["requests"]
    return [(key, shlex.split(key), expected) for key, expected in records.items()]


def _mismatches(requests):
    mismatched = []
    for key, argv, expected in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, sha) != (expected["code"], expected["sha256"]):
            mismatched.append(key)
    return mismatched


@pytest.mark.parametrize(
    "workload, count", [("search", 300), ("cusps", 594), ("forms", 608)]
)
def test_every_recorded_output_matches_the_golden_record(workload, count):
    requests = _records(workload)
    assert len(requests) == count
    assert _mismatches(requests) == []
