"""The repository's benchmark: one command, the workloads of ``BENCHMARK.json``.

One run (from the root of a checkout)::

    python3 perfbench/run.py --workload engine_fwab --seed 1 --seconds 24 --trace 0

prints progress lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

Steadiness mode repeats each workload with seeds ``seed .. seed+N-1``
and prints every metric's median, quartiles and spread next to its
bound::

    python3 perfbench/run.py --steady 10 [--workload NAME ...] [--seed 1]

See ``perfbench/README.md`` for the workloads and metrics.
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
import traceback
from pathlib import Path

from common import children

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants may take to end on their own once the run has
#: ended (the shm resource tracker exits when its pipe closes).
GRACE_S = 5.0


def _reap_all(grace: float) -> int:
    """Reap every child; once ``grace`` seconds have passed, SIGKILL
    whatever still runs below this process.  Returns, with the number
    of processes it had to kill, when no child is left."""
    deadline = time.monotonic() + grace
    killed = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for kid in children(os.getpid()):
                try:
                    os.kill(kid, signal.SIGKILL)
                    killed.add(kid)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def _supervised(argv) -> int:
    """Run one measurement in a child process of its own session and
    wait until it and every process it started have ended.

    This process becomes a child subreaper, so the program's workers,
    its resource tracker or a server that outlives its parent are
    re-parented here rather than to init; they are reaped as they exit,
    and killed if they are still running :data:`GRACE_S` after the
    measurement ends, however it ends.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init; the session still gets SIGTERM
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--measure", *argv],
        cwd=ROOT, start_new_session=True,
    )

    def stop(signum, _frame):
        raise KeyboardInterrupt(signum)

    previous = signal.signal(signal.SIGTERM, stop)
    code = 1
    try:
        while True:
            pid, status = os.waitpid(-1, 0)
            if pid == child.pid:
                code = os.waitstatus_to_exitcode(status)
                child.returncode = code
                break
    except KeyboardInterrupt:
        code = 1
    finally:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        killed = _reap_all(GRACE_S)
        signal.signal(signal.SIGTERM, previous)
    if killed:
        print(f"killed {killed} processes still running after the run",
              file=sys.stderr)
    # a child ended by a signal reads as a negative code
    return code if code >= 0 else 1


def _single(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if not args.measure:
        return _supervised(sys.argv[1:])
    sys.path.insert(0, str(ROOT / "src"))
    import workload_engine
    import workload_http

    runners = {name: workload_engine.run for name in workload_engine.WORKLOADS}
    runners["http_fwab"] = workload_http.run
    if args.workload[0] not in runners:
        print(f"unknown workload {args.workload[0]!r}; choose from "
              f"{sorted(runners)}", file=sys.stderr)
        return 2
    try:
        line = runners[args.workload[0]](
            args.workload[0], args.seed, args.seconds, bool(args.trace))
    except Exception:  # a failed run prints no result line
        traceback.print_exc()
        return 1
    print(line, flush=True)
    return 0


def _steady(args) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.steady):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            lines = proc.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            print("\n".join(lines[:-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()
            ), flush=True)
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{'steady' if len(shares) == 1 else 'VARIES'} {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric in declared:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(mid) if mid else float("inf")
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
            print(f"{metric['name']:32s} {mid:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{verdict}")
        print(flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable in --steady mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)  # the supervised child
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat each workload N times and print the "
                        "spread of every metric next to its bound")
    args = parser.parse_args(argv)
    if args.steady:
        return _steady(args)
    if len(args.workload) != 1:
        parser.error("a single run needs exactly one --workload")
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
