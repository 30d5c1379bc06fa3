"""Benchmark runner: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-2d --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around every call into the program and
reports the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``; the last line of standard output is the JSON result.
A per-layer metric of a layer the workload never calls reads 0.
See ``perfbench/README.md`` for the workloads and what each metric means.

``setup_s`` is cold: an untraced run first starts ``SETUP_REPEATS`` fresh
interpreters with ``--setup-only``, each of which imports the program,
builds the workload and completes its first operation, and reports the
median of the times from spawning each to its report.

The command itself only supervises: it runs the workload in a child
process, becomes the subreaper of everything that child starts, and exits
once every one of those processes has ended.  Helpers that outlive the
process that started them -- ``multiprocessing``'s resource tracker
outlives the serving pool's owner -- are re-parented to it and waited
for; a workload that overruns its time limit is killed, with all it
started.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-2d", "fit-3d", "tune-2d", "serve-drift")
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Prefix of the line a ``--setup-only`` process prints when its first
#: operation completed, followed by a digest of that operation's output.
SETUP_DONE = "setup-done"
#: A workload that has not ended ``--seconds`` plus this many seconds after
#: it started is killed, and the command fails.
OVERRUN_S = 150.0
#: How long helpers may take to end after the workload did before they
#: are killed.
LINGER_S = 10.0
#: ``prctl`` option making a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="points per fit (default 100000); smaller for smoke tests; "
                             "serve-drift ignores it")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, complete the first operation, print its digest "
                             "and exit (used to time cold set-up)")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _children() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # ended meanwhile
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def supervise(argv, seconds: float) -> int:
    """Run the workload in a child; return its exit code once every process
    it started, directly or not, has ended.

    As subreaper, this process inherits the workload's orphans and reaps
    them.  On overrun or SIGTERM/SIGINT, and for helpers still alive
    ``LINGER_S`` after the workload ended, every remaining descendant is
    killed: the kill reaches this process's children, whose own children
    it inherits and kills on the next pass.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: orphans go to init instead
        pass
    stop = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.append(True))
    child = subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv, "--supervised"],
                             cwd=ROOT)
    kill_at = time.monotonic() + seconds + OVERRUN_S
    code = None
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # nothing left to wait for
            break
        if pid == child.pid:
            code = child.returncode = os.waitstatus_to_exitcode(status)
            kill_at = min(kill_at, time.monotonic() + LINGER_S)
        elif pid == 0:
            if stop or time.monotonic() > kill_at:
                for other in _children():
                    try:
                        os.kill(other, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)
    if code is None or stop:
        print(f"{' '.join(argv)}: killed (overran or interrupted)", file=sys.stderr)
        return 1
    return code


def cold_setups(args) -> list:
    """``(seconds, digest)`` of ``SETUP_REPEATS`` fresh ``--setup-only`` runs.

    Each is timed from just before its interpreter is spawned to the line
    reporting its first completed operation, so interpreter start, imports,
    lazily built pools and first-call compilation all count.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only", "--supervised"]
    if args.points:
        argv += ["--points", str(args.points)]
    results = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or not line.startswith(SETUP_DONE):
            raise RuntimeError(f"cold set-up of {args.workload} failed (exit {code})")
        results.append((elapsed, line.split()[1]))
    return results


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if not args.supervised:
        return supervise(argv, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    from bench_common import OUT_DIR

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # Temp files of the program and its worker processes stay in the checkout.
    os.environ["TMPDIR"] = str(OUT_DIR)
    import tempfile

    tempfile.tempdir = str(OUT_DIR)

    if args.workload == "serve-drift":
        import bench_serve as bench

        options = {}
    else:
        import bench_fits as bench

        options = {"workload": args.workload, "n": args.points or bench.N_POINTS}
    if args.setup_only:
        bench.setup_once(seed=args.seed,
                         report=lambda digest: print(SETUP_DONE, digest, flush=True),
                         **options)
        return 0
    setups = [] if args.trace else cold_setups(args)
    from bench_common import emit, provenance

    outcome = bench.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                        **options)
    correct, attempted, failed, measured, info = outcome
    if setups:
        # A cold set-up must produce what the measured run's first operation did.
        wrong = sum(digest != info["first_digest"] for _, digest in setups)
        measured["setup_s"] = (statistics.median(s for s, _ in setups), "s")
        attempted += len(setups)
        failed += wrong
        correct = correct and wrong == 0
        info["setup_s_each"] = [s for s, _ in setups]
    metrics = {}
    for entry in expected:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name}: measured in {measured_unit}, listed as {unit}")
            metrics[name] = (value, unit)
        elif args.trace:
            metrics[name] = (0.0, unit)  # the workload never calls this layer
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")
    info = dict(provenance(args.seed), workload=args.workload, **info)
    extra = {name: value for name, value in measured.items() if name not in metrics}
    if extra:
        info["unlisted_metrics"] = {name: [v, u] for name, (v, u) in extra.items()}
    info["failed_frac"] = failed / max(attempted, 1)
    emit(correct, attempted, failed, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
