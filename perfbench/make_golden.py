"""Record the golden exit code and stdout digest of every pooled request.

    python3 perfbench/make_golden.py --workload search [--out PATH]

Runs every argv that any seed can draw for the workload (workloads.pools)
through `drinfeld.cli.main` of this checkout and writes
perfbench/golden/<workload>.json.  A request that raises out of `main` is
an error: the record only holds requests with a defined outcome.  Writing to
--out instead lets two records, for example under two PYTHONHASHSEED values,
be compared.  The record names the commit it was taken from, as git
reports it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from baseline import commit
from run import HERE, load_program, run_pass
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    out = args.out or os.path.join(HERE, "golden", "%s.json" % args.workload)
    main_fn = load_program()
    pool = workloads.pools(args.workload)
    record = {}
    start = time.perf_counter()
    for i, argv in enumerate(pool):
        outcomes, _, _ = run_pass(main_fn, [argv], {})
        o = outcomes[0]
        if o.raised is not None:
            raise SystemExit("error: %s raised %s" % (workloads.key(argv), o.raised))
        record[workloads.key(argv)] = {"code": o.code, "sha256": o.sha256}
        if (i + 1) % 50 == 0:
            print("%d/%d requests, %.0f s" % (i + 1, len(pool), time.perf_counter() - start),
                  file=sys.stderr)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "commit": commit(), "requests": record},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
