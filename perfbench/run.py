"""The drinfeld benchmark: one seeded pass of CLI requests, checked and timed.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A pass sends a seeded list of argv lists (see workloads.py) to
`drinfeld.cli.main` in one process, one after another (a closed loop with
one client, no threads).  Each request's exit code and the sha256 of its
stdout are checked against the golden record in perfbench/golden/.  A
request that differs, or that raises out of `main`, is a failed request.

The list is the same whatever --seconds is; --seconds only sets how many
passes a run makes (one per 10 s, at least three).  With --trace 0 each
pass runs in a fresh process started after the previous one ended, so no
cache inside the program serves a later pass, and the run reports medians
over the passes, which keeps a brief slowdown of a shared host out.  The
last line of stdout is a JSON object with the end-to-end metrics.  With
--trace 1 one process makes a plain pass and a traced pass (see tracer.py),
the object holds the per-layer metrics, and the span tree is written to
.perfbench/.  The human-readable lines before the object name every metric
with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 7


def load_program():
    """Import drinfeld from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import drinfeld.cli
    except ImportError as exc:
        raise SystemExit("error: cannot import drinfeld from %s: %s" % (SRC, exc))
    where = os.path.dirname(os.path.abspath(drinfeld.__file__))
    if where != os.path.join(SRC, "drinfeld"):
        raise SystemExit("error: drinfeld was imported from %s, not %s" % (where, SRC))
    return drinfeld.cli.main


def load_golden(workload):
    path = os.path.join(HERE, "golden", "%s.json" % workload)
    with open(path) as fh:
        return json.load(fh)["requests"]


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- runner


class Outcome:
    __slots__ = ("seconds", "code", "stdout_bytes", "sha256", "ok", "raised")

    def __init__(self, seconds, code, stdout_bytes, sha256, ok, raised):
        self.seconds = seconds
        self.code = code
        self.stdout_bytes = stdout_bytes
        self.sha256 = sha256
        self.ok = ok
        self.raised = raised


def run_pass(main, requests, golden, tracer=None):
    """Send every request to `main`; returns (outcomes, wall_s, cpu_s).

    The pass times exclude the garbage collections between requests.  An
    exception that escapes `main` fails that request and the pass goes
    on.  Requests missing from the golden record fail too.
    """
    outcomes = []
    gc_wall = gc_cpu = 0.0
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for index, argv in enumerate(requests):
        # A CLI user starts each request with a fresh heap; collecting the
        # garbage of earlier requests, outside the timed span, keeps their
        # collections from landing on later requests.
        gc_start, gc_cpu_start = time.perf_counter(), time.process_time()
        gc.collect()
        gc_wall += time.perf_counter() - gc_start
        gc_cpu += time.process_time() - gc_cpu_start
        out = io.StringIO()
        raised = None
        if tracer is not None:
            tracer.begin_request(index)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        except (Exception, SystemExit):  # a failed request, never fatal to the pass
            code = None
            raised = traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        data = out.getvalue().encode("utf-8")
        sha = hashlib.sha256(data).hexdigest()
        expected = golden.get(workloads.key(argv))
        ok = (
            raised is None
            and expected is not None
            and expected["code"] == code
            and expected["sha256"] == sha
        )
        outcomes.append(Outcome(seconds, code, len(data), sha, ok, raised))
    cpu_s = time.process_time() - cpu0 - gc_cpu
    wall_s = time.perf_counter() - wall0 - gc_wall
    return outcomes, wall_s, cpu_s


def self_check():
    """The runner counts a wrong digest, a wrong exit code and an escaped
    exception as failures, and a matching request as a success."""

    def fake_main(argv):
        if argv[0] == "raise":
            raise AssertionError("escaped")
        print("output of %s" % argv[0])
        return 3 if argv[0] == "code" else 0

    requests = [["good"], ["digest"], ["code"], ["raise"]]
    golden = {
        "good": {"code": 0, "sha256": digest("output of good\n")},
        "digest": {"code": 0, "sha256": digest("something else\n")},
        "code": {"code": 0, "sha256": digest("output of code\n")},
        "raise": {"code": 0, "sha256": digest("")},
    }
    outcomes, _, _ = run_pass(fake_main, requests, golden)
    if [o.ok for o in outcomes] != [True, False, False, False]:
        raise SystemExit("error: runner self-check failed")
    if outcomes[3].raised is None or outcomes[2].code != 3:
        raise SystemExit("error: runner self-check failed")


# ------------------------------------------------------------------ metrics


def tail(latencies):
    """The highest percentile with at least ten requests beyond it.

    Returns (value, percentile, request count); needs at least 11 requests.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        raise SystemExit("error: a pass needs at least 11 requests for the tail")
    return xs[n - 11], 100.0 * (n - 10) / n, n


def child(args, role):
    """Run this script as a child process in `role`; returns its last line."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("error: %s child exited with %d" % (role, proc.returncode))
    return proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


def measure_setup(args):
    """Median wall time of fresh interpreters that import drinfeld and build
    the request list, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child(args, "setup")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def one_pass(main, requests, golden):
    """The child side of a plain pass: its timings as one JSON line."""
    outcomes, wall_s, cpu_s = run_pass(main, requests, golden)
    list_failures(requests, outcomes)
    print(json.dumps({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_s": [o.seconds for o in outcomes],
        "ok": [o.ok for o in outcomes],
    }))


def summary(outcomes):
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    return attempted, failed


def report(workload, seed, metrics, notes):
    print("workload %s  seed %d" % (workload, seed))
    for name, (value, unit) in metrics.items():
        line = "  %-30s %14.6g %s" % (name, value, unit)
        if name in notes:
            line += "  (%s)" % notes[name]
        print(line)


def result_line(attempted, failed, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def list_failures(requests, outcomes):
    for argv, o in zip(requests, outcomes):
        if not o.ok:
            why = o.raised or "exit code %s or stdout differs from the golden record" % o.code
            print("failed: %s: %s" % (workloads.key(argv), why), file=sys.stderr)


def end_to_end(args):
    """Medians over fresh-process passes; a request's latency is its median
    over the passes, and it fails if it fails in any pass."""
    setup_s = measure_setup(args)
    passes = [json.loads(child(args, "pass")) for _ in range(workloads.passes(args.seconds))]
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(1 for p in passes for ok in p["ok"] if not ok)
    lat_ms = [1000.0 * statistics.median(ts) for ts in zip(*(p["latency_s"] for p in passes))]
    tail_ms, pct, n = tail(lat_ms)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "req_p50_ms": (statistics.median(lat_ms), "ms"),
        "req_tail_ms": (tail_ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    notes = {
        "wall_s": "median of %d passes" % len(passes),
        "req_tail_ms": "p%.1f of %d requests, 10 beyond it" % (pct, n),
    }
    report(args.workload, args.seed, metrics, notes)
    print("  %-30s %14.6g %s  (%d of %d requests)" % (
        "failed_frac", failed / attempted, "frac", failed, attempted))
    result_line(attempted, failed, metrics)


def traced(args, main, requests, golden):
    from tracer import Tracer, layer_metrics

    plain, plain_wall, _ = run_pass(main, requests, golden)
    tracer = Tracer("drinfeld")
    tracer.install()
    try:
        # cli.main as wrapped by install(), so argparse and the error output
        # count as cli time.
        traced_main = sys.modules["drinfeld.cli"].main
        outcomes, traced_wall, _ = run_pass(traced_main, requests, golden, tracer)
    finally:
        tracer.uninstall()
    both = [a if not a.ok else b for a, b in zip(plain, outcomes)]
    list_failures(requests, both)
    attempted, failed = summary(both)
    metrics = layer_metrics(
        tracer,
        output_bytes=sum(o.stdout_bytes for o in outcomes),
        nonzero_exit=sum(1 for o in outcomes if o.code != 0),
        overhead_frac=traced_wall / plain_wall - 1.0,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "requests": [workloads.key(a) for a in requests],
            "spans": tracer.span_records(),
            "calls": {k: v[0] for k, v in sorted(tracer.counts.items()) if v[0]},
        }, fh)
    report(args.workload, args.seed, dict(sorted(metrics.items())), {})
    print("  span tree written to %s" % os.path.relpath(path, ROOT))
    result_line(attempted, failed, metrics)


def run_all(args):
    """Every workload in turn, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    main_fn = load_program()
    requests = workloads.requests(args.workload, args.seed)
    if args.child == "setup":
        return 0
    golden = load_golden(args.workload)
    if args.child == "pass":
        one_pass(main_fn, requests, golden)
        return 0
    self_check()
    if args.trace:
        traced(args, main_fn, requests, golden)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
