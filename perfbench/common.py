"""Measurement helpers shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (pct in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def _status_kb(pid: int, field_name: str) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children") as handle:
                kids.extend(int(x) for x in handle.read().split())
        except OSError:
            continue
    return kids


def process_tree() -> List[int]:
    """This process and every live descendant."""
    pending = [os.getpid()]
    seen: List[int] = []
    while pending:
        pid = pending.pop()
        seen.append(pid)
        try:
            pending.extend(_children(pid))
        except OSError:
            continue
    return seen


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    Fleet workers and the ingest daemon are joined by their own close
    paths; this catches what those miss.  Live children get SIGTERM,
    then SIGKILL after ``grace_s``.  The shared-memory resource tracker
    that ``multiprocessing`` starts on the side is stopped last, once no
    worker holds its pipe, and waited for, so it cannot outlive the run
    as an unreaped process.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = tracker._pid
    others = [pid for pid in _live_children() if pid != tracker_pid]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in others:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while others and time.monotonic() < deadline:
            others = [pid for pid in others if not _reap(pid)]
            if others:
                time.sleep(0.01)
        if not others:
            break
    tracker._stop()
    while True:  # reap any child that already ended
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            break


def _live_children() -> List[int]:
    try:
        return _children(os.getpid())
    except OSError:
        return []


def _reap(pid: int) -> bool:
    """True once ``pid`` has ended and been waited for."""
    try:
        done, _status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True  # not ours to wait for, or already reaped
    return done == pid


def tree_peak_rss_mb() -> float:
    """Sum of each live process's peak resident set (VmHWM), in MiB."""
    total_kb = 0
    for pid in process_tree():
        try:
            total_kb += _status_kb(pid, "VmHWM")
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_seconds() -> float:
    """CPU seconds consumed so far by this process tree, ns-resolution.

    This process's own CPU clock (threads that have exited included)
    plus every live thread's ``schedstat`` run time in each descendant;
    fine for single-threaded fleet workers, which is what it is used on.
    """
    total_ns = 0
    for pid in process_tree()[1:]:
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total_ns += int(handle.read().split()[0])
        except OSError:
            continue  # exited between listing and reading
    return time.process_time() + total_ns / 1e9


#: Chunks a measured phase is cut into for throughput and CPU per op.
CHUNKS = 10


def chunk_rates(steps: Sequence[Tuple[int, float, float]]) -> Tuple[float, float]:
    """Median ops/s and CPU seconds/op over ``CHUNKS`` consecutive chunks.

    ``steps`` are ``(ops, wall_s, cpu_s)`` records in run order.  A burst
    of load from other tenants of the host slows one chunk, not the
    median chunk, so the medians hold steadier than whole-run totals.
    """
    per_chunk = max(1, len(steps) // CHUNKS)
    rates, costs = [], []
    for first in range(0, per_chunk * (len(steps) // per_chunk), per_chunk):
        chunk = steps[first:first + per_chunk]
        ops = sum(step[0] for step in chunk)
        rates.append(ops / sum(step[1] for step in chunk))
        costs.append(sum(step[2] for step in chunk) / ops)
    return statistics.median(rates), statistics.median(costs)


def environment() -> Dict[str, object]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    """What one workload pass measured, before formatting."""

    attempted: int = 0
    failed: int = 0
    #: one line per failed correctness check (printed, not in the JSON)
    errors: List[str] = field(default_factory=list)
    #: end-to-end metric name -> value (units come from run.METRICS)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: sample counts behind each percentile, and other context
    notes: Dict[str, object] = field(default_factory=dict)
    #: process-tree CPU seconds spent in the measured phase and the
    #: number of operations it covered (trace overhead compares these)
    cpu_s: float = 0.0
    ops: int = 0
    #: ``perf_counter_ns`` bounds of that phase (spans are clipped to it)
    window_ns: Optional[Tuple[int, int]] = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation; record it as failed if not ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok
