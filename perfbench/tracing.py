"""Span recording for the traced run: wrappers around public entry points.

The benchmark never edits the program.  A traced run installs wrappers
around the program's public functions and methods (``Runtime.run``,
``DeltaTracker.collect``, ``Connection.send``, ``LeakProf.daily_run``,
...).  Each call records one span ``(name, start_ns, end_ns, parent,
tag)`` into an in-memory list; nothing is written until the process
ends (``flush``).  Forked fleet workers inherit the wrappers: an
after-fork hook empties the inherited span list and a
``multiprocessing.util.Finalize`` hook flushes the worker's spans when
it exits.  The ingest daemon installs the same wrappers itself.

``summarize`` turns the flushed span files of every process into
per-layer totals: calls, busy (self) time — a span's duration minus the
time its child spans cover — and counts recorded at the same
boundaries.
"""

from __future__ import annotations

import json
import os
import threading
import time
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Optional

#: Spans whose self time is mostly waiting, not CPU work: left out of
#: the sum of self times that the unattributed-CPU share is measured
#: against.  ``ShardedFleet.poll`` blocks on worker replies; its self
#: time also holds the reply unpickle and commit bookkeeping that no
#: inner span covers.  A daemon request's self time includes reading
#: the request from the socket and waiting for the GIL.
WAIT_LAYERS = frozenset({"fleet.shard.reply_wait", "ingest.request"})


class Tracer:
    """In-memory span recorder for one process (thread-aware)."""

    def __init__(self, out_dir: str, role: str):
        self.out_dir = out_dir
        self.role = role
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tag = 0  # current window / target / upload id

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_result: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(tracer, args, result, start)`` records layer counts
        from the call's arguments and return value; ``start`` is
        ``before(args)`` taken as the call began (or None).
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                span = [layer, time.perf_counter_ns(), 0, parent, tracer.tag]
                tracer.spans.append(span)
            stack.append(index)
            start = before(args) if before is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()
            if on_result is not None:
                on_result(tracer, args, result, start)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)

    # -- process lifetime ----------------------------------------------

    def after_fork(self, role: str) -> None:
        """Start a forked child empty and flush it when it exits."""
        self.role = role
        self.spans = []
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> str:
        """Write this process's spans and counts; returns the path."""
        path = os.path.join(
            self.out_dir, f"spans-{self.role}-{os.getpid()}.json"
        )
        with open(path, "w") as handle:
            json.dump(
                {
                    "role": self.role,
                    "pid": os.getpid(),
                    "counts": self.counts,
                    "spans": self.spans,
                },
                handle,
            )
        return path


def install_worker_hook(tracer: Tracer) -> None:
    """Make every forked multiprocessing child record into a fresh list."""
    mp_util.register_after_fork(
        tracer, lambda t: t.after_fork(role="worker")
    )


# -- wrappers over the program's public entry points ----------------------


def install_runtime(tracer: Tracer) -> None:
    """``runtime.run``/``runtime.advance`` spans plus ``runtime.steps``."""
    from repro.runtime import Runtime

    def steps(tracer, args, _result, start):
        tracer.count("runtime.steps", args[0].steps - start)

    for attr in ("run", "advance"):
        tracer.wrap(
            Runtime, attr, f"runtime.{attr}",
            on_result=steps, before=lambda args: args[0].steps,
        )


def install_gc(tracer: Tracer) -> None:
    """``gc.sweep`` spans (periodic and on-demand) plus verdict counts."""
    from repro.gc import sweep as gc_sweep

    def tally(tracer, _args, report, _start):
        tracer.count("gc.proven", report.proven_leaked)
        tracer.count(
            "gc.parked",
            report.live + report.possibly_leaked + report.proven_leaked,
        )

    tracer.wrap(gc_sweep, "run_sweep", "gc.sweep", on_result=tally)


def install_fleet(tracer: Tracer) -> None:
    """Worker serving path, delta plane, IPC, parent apply and scoring."""
    from multiprocessing.connection import Connection

    from repro.fleet import ServiceInstance, ShardedFleet, StatPlane
    from repro.fleet import shard as fleet_shard
    from repro.leakprof.streaming import OnlineSuspectScorer
    from repro.snapshot.delta import DeltaTracker, InstanceView

    def shipped(tracer, _args, result, _start):
        tracer.count("snapshot.delta.records_shipped", len(result[1]))

    tracer.wrap(ServiceInstance, "advance_window", "fleet.advance_window")
    tracer.wrap(StatPlane, "write_instance", "fleet.shm.write_instance")
    tracer.wrap(fleet_shard, "sweep_plane", "fleet.shm.sweep")
    tracer.wrap(DeltaTracker, "collect", "snapshot.delta.collect", on_result=shipped)
    tracer.wrap(Connection, "send", "ipc.send")
    tracer.wrap(Connection, "recv_bytes", "ipc.recv")
    tracer.wrap(ShardedFleet, "poll", "fleet.shard.reply_wait")
    tracer.wrap(InstanceView, "apply", "snapshot.delta.apply")
    tracer.wrap(InstanceView, "snapshot", "snapshot.view.snapshot")
    tracer.wrap(OnlineSuspectScorer, "on_record", "leakprof.streaming.on_record")
    tracer.wrap(OnlineSuspectScorer, "suspects", "leakprof.streaming.suspects")


def install_leakprof(tracer: Tracer) -> None:
    """Daily run: collection sweep (text round-trip) and the fleet scan."""
    from repro.leakprof import LeakProf
    from repro.leakprof import pipeline

    def swept(tracer, _args, result, _start):
        tracer.count("leakprof.goroutines_swept", result[1].goroutines_seen)

    tracer.wrap(LeakProf, "daily_run", "leakprof.daily_run")
    tracer.wrap(LeakProf, "analyze_profiles", "leakprof.analyze_profiles")
    tracer.wrap(pipeline, "sweep", "leakprof.sweep", on_result=swept)
    tracer.wrap(pipeline, "scan_fleet", "leakprof.scan_fleet")


def install_goleak(tracer: Tracer) -> None:
    """Test-time detection: the retry loop and its runtime snapshots."""
    from repro.goleak import api

    tracer.wrap(api, "verify_test_main", "goleak.verify_test_main")
    tracer.wrap(api, "find", "goleak.find")
    tracer.wrap(api, "snapshot_runtime", "goleak.snapshot_runtime")


def install_ingest(tracer: Tracer) -> None:
    """Daemon side: request handling, parse, archive, and the scan."""
    from http.server import BaseHTTPRequestHandler

    import repro.remedy
    from repro.ingest import IngestStore, MultiTenantScheduler
    from repro.ingest import daemon
    from repro.ingest.store import StoredProfile

    tracer.wrap(BaseHTTPRequestHandler, "handle_one_request", "ingest.request")
    tracer.wrap(daemon, "parse_profile", "ingest.parse")
    tracer.wrap(IngestStore, "store_profile", "ingest.store")
    tracer.wrap(MultiTenantScheduler, "run_once", "ingest.scan")
    tracer.wrap(StoredProfile, "parse", "ingest.scan.archive_parse")
    tracer.wrap(repro.remedy, "diagnose", "ingest.scan.diagnose")


# -- aggregation ----------------------------------------------------------


def load(out_dir: str) -> List[dict]:
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


def summarize(dumps: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-layer calls, busy (self) microseconds, and child-time totals.

    Self time is computed within each process (and each thread's stack,
    since parents are recorded per thread): a span's duration minus the
    durations of its direct children.
    """
    layers: Dict[str, Dict[str, float]] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_ns = [0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_ns[parent] += span[2] - span[1]
        for index, span in enumerate(spans):
            name, start, end, parent = span[0], span[1], span[2], span[3]
            entry = layers.setdefault(
                name, {"calls": 0, "busy_us": 0.0, "total_us": 0.0}
            )
            duration = end - start
            entry["calls"] += 1
            entry["total_us"] += duration / 1000.0
            entry["busy_us"] += (duration - child_ns[index]) / 1000.0
            if parent >= 0 and spans[parent][0] == "goleak.find" and name == "runtime.advance":
                entry["retries"] = entry.get("retries", 0) + 1
    return layers


def counts(dumps: List[dict]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for dump in dumps:
        for name, value in dump["counts"].items():
            total[name] = total.get(name, 0) + value
    return total


def attributed_us(layers: Dict[str, Dict[str, float]]) -> float:
    """Sum of self time over every CPU (non-wait) layer."""
    return sum(
        entry["busy_us"]
        for name, entry in layers.items()
        if name not in WAIT_LAYERS
    )
