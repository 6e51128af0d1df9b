"""``fleet_quiet`` and ``fleet_leaky``: a streaming ShardedFleet over windows.

Both drive a 1-worker :class:`repro.fleet.ShardedFleet` (streaming
mode, the default) through lockstep 12-hour windows.  Each window is
``advance_window()`` followed by one ``suspects()`` query.

* ``fleet_quiet`` — 1000 instances in 5 services, one request per
  instance-window; one service leaks one goroutine per request
  (``timeout_leak``).  Per-request fixed cost in ``runtime`` and
  ``fleet`` dominates; deltas, IPC and parent work stay sparse.
* ``fleet_leaky`` — 160 instances in 4 services, 8 requests per
  instance-window, each service mixing one leak pattern with healthy
  traffic, plus a ``LeakProf.daily_run`` over ``fleet.snapshots()``
  once per simulated day.  Tens of thousands of
  parked goroutines make the delta plane, IPC, parent apply, scoring
  and the daily sweep dominate.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List, Optional, Tuple

from calibrate import Calibration
from common import (
    Outcome,
    chunk_rates,
    median,
    percentile,
    tree_cpu_seconds,
    tree_peak_rss_mb,
)

from repro.fleet import RequestMix, ServiceConfig, ShardedFleet, TrafficShape
from repro.leakprof import LeakProf
from repro.patterns import (
    healthy,
    ncast,
    premature_return,
    timeout_leak,
    timer_loop,
)

WINDOW = 43_200.0  # 12-hour windows: two per simulated day
#: One worker shard: parent and worker take turns on the one CPU the run
#: is pinned to, and a second shard's scheduling noise swamped the
#: window tail in trial runs.
SHARDS = 1
#: A 160-instance build takes ~8 ms, and one host hiccup can double a
#: single build, so the median needs many builds to hold still.
SETUP_REPEATS = 15
#: Calibration kernel runs before each window.
PROBES = 3


class FleetShape:
    """Sizes and services of one fleet workload."""

    def __init__(self, windows_per_second: float, tail_pct: float,
                 threshold: int):
        self.windows_per_second = windows_per_second
        #: the window-time percentile reported as ``op_ms_tail``: ten or
        #: more windows lie beyond it at ``--seconds 15``
        self.tail_pct = tail_pct
        self.threshold = threshold

    def services(self, seed: int) -> List[Tuple[ServiceConfig, int]]:
        raise NotImplementedError

    #: basenames of the pattern files whose blocking op LeakProf must
    #: report (the planted leaky handlers); any other suspect fails
    planted: frozenset = frozenset()
    daily_run = False


class QuietFleet(FleetShape):
    planted = frozenset({"timeout_leak.py"})

    def __init__(self):
        super().__init__(windows_per_second=8.0, tail_pct=90.0, threshold=4)

    def services(self, seed):
        configs = []
        for n in range(5):
            if n == 0:
                mix = RequestMix().add(
                    "checkout", timeout_leak.leaky, weight=1.0,
                    payload_bytes=16 * 1024,
                )
            else:
                mix = RequestMix().add("ping", healthy.request_response)
            configs.append((
                ServiceConfig(
                    name=f"svc-{n:02d}", mix=mix, instances=200,
                    traffic=TrafficShape(requests_per_window=1),
                    base_rss=64 * 1024 * 1024,
                ),
                seed * 1000 + n,
            ))
        return configs


class LeakyFleet(FleetShape):
    planted = frozenset(
        {"timeout_leak.py", "ncast.py", "premature_return.py"}
    )
    # timer_loop's parked receive is a planted leak LeakProf's transient
    # filter drops by design, so it must never surface as a suspect
    daily_run = True

    def __init__(self):
        super().__init__(windows_per_second=8 / 3, tail_pct=75.0, threshold=4)

    def services(self, seed):
        leaks = (
            ("timeout", timeout_leak.leaky, {}, None),
            ("ncast", ncast.leaky, {}, None),
            # gc sweeps once per window prove these leaks
            ("premature", premature_return.leaky, {}, WINDOW),
            # a 6-hour reporter period: two wakeups per window each
            ("timer", timer_loop.leaky, {"period": 21_600.0}, None),
        )
        configs = []
        for n, (name, handler, params, gc_interval) in enumerate(leaks):
            mix = (
                RequestMix()
                .add(name, handler, weight=1.0, **params)
                .add("ok", healthy.request_response, weight=3.0)
            )
            configs.append((
                ServiceConfig(
                    name=f"svc-{name}", mix=mix, instances=40,
                    traffic=TrafficShape(requests_per_window=8),
                    base_rss=64 * 1024 * 1024, gc_interval=gc_interval,
                ),
                seed * 1000 + n,
            ))
        return configs


SHAPES = {"fleet_quiet": QuietFleet(), "fleet_leaky": LeakyFleet()}


def _signature(suspect) -> tuple:
    return (
        suspect.service, suspect.instance, suspect.state, suspect.location,
        suspect.count, suspect.proof,
    )


def _files(suspects) -> frozenset:
    return frozenset(
        os.path.basename(s.location.rsplit(":", 1)[0]) for s in suspects
    )


def _build(shape: FleetShape, seed: int) -> ShardedFleet:
    fleet = ShardedFleet(shards=SHARDS)
    for config, service_seed in shape.services(seed):
        fleet.add_service(config, seed=service_seed)
    fleet.start()
    return fleet


def setup(shape: FleetShape, seed: int, cal: Calibration
          ) -> Tuple[ShardedFleet, float]:
    """Build and start the fleet several times; keep the last one.

    Returns the fleet and the median start-up time (construction,
    worker fork and remote instance build) at reference speed.
    """
    times = []
    fleet: Optional[ShardedFleet] = None
    for _ in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        gc.collect()
        cal.probe()
        started = time.perf_counter()
        fleet = _build(shape, seed)
        times.append((started, time.perf_counter() - started))
    cal.probe()
    return fleet, median([t * cal.wall_factor(at) for at, t in times])


def run(shape: FleetShape, seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    cal = Calibration()
    windows = max(2, round(shape.windows_per_second * seconds))
    fleet, setup_s = setup(shape, seed, cal)
    instances = sum(len(svc.instances) for svc in fleet.services.values())
    #: raw per-window samples, each with its start time:
    #: (start, window s, query s, wall s incl. daily run, tree CPU s)
    raw = []
    try:
        gc.collect()
        start_ns = time.perf_counter_ns()
        suspects = []
        for window in range(windows):
            if tracer is not None:
                tracer.tag = window
            for _ in range(PROBES):
                cal.probe()
            cpu_before = tree_cpu_seconds()
            started = time.perf_counter()
            fleet.advance_window(WINDOW)
            advanced = time.perf_counter()
            suspects = fleet.suspects(threshold=shape.threshold)
            done = time.perf_counter()
            window_s, query_s = done - started, done - advanced
            files = _files(suspects)
            out.check(
                files <= shape.planted,
                f"window {window}: unplanted suspects {sorted(files - shape.planted)}",
            )
            if shape.daily_run:
                query_s = None
                if window % 2 == 1:
                    day = (window + 1) // 2
                    daily_started = time.perf_counter()
                    result = LeakProf(threshold=shape.threshold).daily_run(
                        fleet.snapshots(), now=float(day)
                    )
                    done = time.perf_counter()
                    query_s = done - daily_started
                    out.check(
                        [_signature(s) for s in result.suspects]
                        == [_signature(s) for s in suspects],
                        f"day {day}: streaming suspects differ from daily_run",
                    )
                    if day >= 2:
                        out.check(
                            _files(result.suspects) == shape.planted,
                            f"day {day}: daily_run found "
                            f"{sorted(_files(result.suspects))}",
                        )
            raw.append((
                started, window_s, query_s, done - started,
                tree_cpu_seconds() - cpu_before,
            ))
        cal.probe()
        out.check(
            _files(suspects) == shape.planted,
            f"final window: suspects at {sorted(_files(suspects))}, "
            f"planted {sorted(shape.planted)}",
        )
        out.window_ns = (start_ns, time.perf_counter_ns())
        peak_rss = tree_peak_rss_mb()
        wire_bytes = fleet.wire_bytes_total
    finally:
        fleet.close()
    out.ops = instances * windows
    out.cpu_s = sum(sample[4] for sample in raw)
    window_ms = [s[1] * cal.wall_factor(s[0]) * 1e3 for s in raw]
    query_ms = [
        s[2] * cal.wall_factor(s[0]) * 1e3 for s in raw if s[2] is not None
    ]
    ops_per_s, cpu_per_op = chunk_rates([
        (instances, s[3] * cal.wall_factor(s[0]), s[4] * cal.cpu_factor(s[0]))
        for s in raw
    ])
    tail = shape.tail_pct
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "ops_per_s": ops_per_s,
        "cpu_us_per_op": cpu_per_op * 1e6,
        "op_ms_p50": median(window_ms),
        "op_ms_tail": percentile(window_ms, tail),
        "query_ms_p50": median(query_ms),
    }
    out.notes = {
        "op": "instance-window; latency per window (advance_window + suspects)",
        "query": "daily_run" if shape.daily_run else "suspects()",
        "instances": instances,
        "windows": windows,
        "op_samples": len(window_ms),
        "op_tail_pct": tail,
        "query_samples": len(query_ms),
        "wire_bytes": wire_bytes,
        "host_speed": round(cal.speed(), 3),
        "raw_op_ms_p50": round(median([s[1] * 1e3 for s in raw]), 3),
    }
    return out
