"""Shared pieces of the benchmark: paths, statistics, span recording and
readers of ``/proc`` for the program's processes.

Nothing here imports the program; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: The scenario every workload serves (the fastest one to build).
SCENARIO = "alexnet_imagenet"
#: Target false-positive rate of the calibrated threshold; the
#: ``repro serve`` default, so in-process and served stacks agree.
TARGET_FPR = 0.1
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


# -- statistics ---------------------------------------------------------------

def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def percentile(values: Iterable[float], q: float) -> float:
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


def roc_auc(truth: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC as the Mann-Whitney statistic (ties count one half)."""
    truth = np.asarray(truth, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    pos, neg = scores[truth], np.sort(scores[~truth])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both benign and adversarial frames")
    below = np.searchsorted(neg, pos, side="left")
    at_or_below = np.searchsorted(neg, pos, side="right")
    wins = below.sum() + 0.5 * (at_or_below - below).sum()
    return float(wins / (pos.size * neg.size))


def host_ref_ms() -> float:
    """Median time of a fixed single-threaded numpy computation: a
    diagnostic of host speed, never used to scale another metric."""
    data = np.random.default_rng(12345).random(400_000)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        np.sort(data, kind="quicksort")
        times.append(time.perf_counter() - start)
    return ms(median(times))


# -- the program's processes, read from /proc ---------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    # the command name may hold spaces; fields resume after its ")"
    return raw[raw.rindex(")") + 2:].split()


def children(pid: int) -> List[int]:
    """Every live descendant of ``pid``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, ValueError, IndexError):
                continue  # exited while we looked
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def process_tree(pid: int) -> List[int]:
    return [pid] + children(pid)


def identity(pid: int) -> tuple:
    """``(pid, start time)``: tells a process from a later one that
    reuses its pid."""
    return pid, int(_stat_fields(pid)[19])


def alive(ident: tuple) -> bool:
    """Whether the process ``ident`` names still runs (zombies do not)."""
    try:
        fields = _stat_fields(ident[0])
    except OSError:
        return False
    return int(fields[19]) == ident[1] and fields[0] != "Z"


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU time of the given processes."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def status_value(pid: int, key: str) -> int:
    """An integer field of ``/proc/<pid>/status`` (kB for sizes)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (VmHWM) of the processes, in MiB."""
    return sum(status_value(pid, "VmHWM") for pid in pids) / 1024.0


def thread_count(pids: Iterable[int]) -> int:
    return sum(status_value(pid, "Threads") for pid in pids)


# -- spans ----------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around calls into the program.

    A span holds its layer name, start and end (``perf_counter``
    seconds), its parent span and the id shared by every span of one
    request or batch.  Spans nest per thread; :meth:`write` dumps them
    as JSON when the run ends.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()

    def new_trace(self) -> int:
        """A fresh id for the spans of one request or batch."""
        return next(self._trace_ids)

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, trace_id: int):
        """Record the block as a span; yields the span's record, whose
        ``end`` is set when the block exits."""
        stack = self._stack()
        record = {"id": next(self._ids),
                  "parent": stack[-1] if stack else None,
                  "trace": trace_id, "name": name}
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def add_child(self, name: str, parent: dict, duration: float) -> None:
        """Record a child span whose duration (seconds) the program
        itself reported, such as the server's ``wall_ms``; it is placed
        to end where its closed parent ends."""
        self.spans.append({
            "id": next(self._ids), "parent": parent["id"],
            "trace": parent["trace"], "name": name,
            "start": parent["end"] - duration, "end": parent["end"],
        })

    def self_ms(self, name: str) -> Dict[int, float]:
        """Self time (duration minus the time its children cover) of
        every span called ``name``, in ms, keyed by span id."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        return {
            span["id"]: ms(span["end"] - span["start"]
                           - covered.get(span["id"], 0.0))
            for span in self.spans if span["name"] == name
        }

    def per_trace_ms(self, name: str) -> Dict[int, float]:
        """Total duration of the spans called ``name`` per trace id."""
        out: Dict[int, float] = {}
        for span in self.spans:
            if span["name"] == name:
                out[span["trace"]] = out.get(span["trace"], 0.0) + ms(
                    span["end"] - span["start"]
                )
        return out

    @contextmanager
    def wrapping(self, targets, trace_id: int):
        """Record a span around every call of ``owner.attr`` for each
        ``(owner, attr, span name)`` target while the block runs; the
        owners' attributes are restored afterwards."""
        saved = []
        for owner, attr, name in targets:
            original = owner.__dict__[attr]

            def wrapper(*args, _original=original, _name=name, **kwargs):
                with self.span(_name, trace_id):
                    return _original(*args, **kwargs)

            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# -- the result line ----------------------------------------------------------

class Metrics:
    """Metric values keyed by the names ``BENCHMARK.json`` declares,
    with the units it declares; :meth:`line` refuses an incomplete set."""

    def __init__(self, declared: Iterable[dict]):
        self.units = {m["name"]: m["unit"] for m in declared}
        self.values: Dict[str, dict] = {}

    def put(self, name: str, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.values[name] = {"value": value, "unit": self.units[name]}

    def line(self, correct: bool, attempted: int, failed: int) -> str:
        missing = sorted(set(self.units) - set(self.values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return json.dumps({
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": self.values,
        })


def declared_metrics(trace: bool) -> List[dict]:
    """The end-to-end (``trace=False``) or per-layer metrics declared
    in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]
