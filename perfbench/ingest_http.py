"""``ingest_http``: Go ``debug=2`` profile uploads to a separate daemon.

The daemon runs in its own process (``ingest_daemon.py``) with the
server's default admission limits and an in-memory sqlite archive.  A
file archive adds disk sync latency, which on a shared host swung
upload capacity by 2x from run to run and is not the program's cost.
Four tenants upload profile bodies made by ``dump_go_debug2`` from
seeded simulated instances.  Each tenant's service runs one planted
leak pattern, so the scan's answer is known.

Phases:

1. open loop: uploads sent on a fixed schedule (``OPEN_RATE``/s) over
   one connection, each timed from its due time, client retries off.
   Its latency and the sender's lateness are per-layer figures.  The
   CPU idles between these uploads, so each also pays the host's
   wake-up delay; two sets of ten runs of the same code gave open-loop
   p90 medians of 4.0 and 11.1 ms;
2. closed loop: one connection uploads back to back, in chunks with
   calibration probes between them.  The CPU never idles, so these
   uploads give the end-to-end latency, rate and CPU.  The whole run
   shares one CPU, so a second connection would add no throughput,
   only contention between two request threads in the daemon;
3. ``SCANS`` runs of ``POST /v1/scan`` over the whole archive; after
   the first, each tenant's filed reports are read back and compared
   to its planted leak.

``setup_s`` is the median time from launching the daemon process to its
first served port, over ``SETUP_REPEATS`` launches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from calibrate import Calibration
from common import (
    CHUNKS,
    Outcome,
    chunk_rates,
    median,
    percentile,
    tree_peak_rss_mb,
)

from repro.fleet import RequestMix, Service, ServiceConfig, TrafficShape
from repro.ingest import IngestClient, IngestError
from repro.patterns import (
    contract_violation,
    double_send,
    healthy,
    ncast,
    timeout_leak,
)
from repro.profiling import dump_go_debug2
from repro.snapshot import snapshot_instance

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SCANS = 3
#: Calibration kernel runs at each phase and closed-loop chunk boundary.
PROBES = 10
#: Fixed open-loop arrival rate: about a third of the daemon's
#: closed-loop capacity for these bodies on the 2-CPU reference host.
OPEN_RATE = 80.0
OPEN_UPLOADS_PER_SECOND = 30.0
CLOSED_UPLOADS_PER_SECOND = 30.0
#: ``op_ms_tail`` percentile of closed-loop upload latency (45 uploads
#: beyond it at 15 s).
TAIL_PCT = 90.0
INSTANCES_PER_TENANT = 8
THRESHOLD = 10
ADMIN = "perfbench-admin"
#: tenant -> (leaky handler, requests per window, pattern file LeakProf
#: must report); request rates give bodies of about 100 goroutines
TENANTS = {
    "alpha": (timeout_leak.leaky, 100, "timeout_leak.py"),
    "bravo": (ncast.leaky, 25, "ncast.py"),
    "charlie": (double_send.leaky, 100, "double_send.py"),
    "delta": (contract_violation.leaky, 100, "contract_violation.py"),
}


class Body:
    __slots__ = ("tenant", "service", "instance", "text", "goroutines")

    def __init__(self, tenant, service, instance, text, goroutines):
        self.tenant = tenant
        self.service = service
        self.instance = instance
        self.text = text
        self.goroutines = goroutines


def make_bodies(seed: int) -> List[Body]:
    """Per tenant: profiles of seeded instances carrying a planted leak."""
    bodies: List[Body] = []
    for n, (tenant, (handler, rate, _)) in enumerate(sorted(TENANTS.items())):
        mix = (
            RequestMix()
            .add("leaky", handler, weight=1.0)
            .add("ok", healthy.request_response, weight=1.0)
        )
        service = Service(
            ServiceConfig(
                name=f"{tenant}-api", mix=mix,
                instances=INSTANCES_PER_TENANT,
                traffic=TrafficShape(requests_per_window=rate),
            ),
            seed=seed * 100 + n,
        )
        for _ in range(2):
            service.advance_window()
        for instance in service.instances:
            profile = snapshot_instance(instance).profile()
            bodies.append(Body(
                tenant, service.config.name, instance.name,
                dump_go_debug2(profile), len(profile),
            ))
    return bodies


class Daemon:
    """One ingest daemon process, started and stopped by the benchmark."""

    def __init__(self, trace_dir: Optional[str] = None):
        command = [
            sys.executable, os.path.join(HERE, "ingest_daemon.py"),
            "--db", ":memory:", "--admin", ADMIN,
        ]
        for tenant in sorted(TENANTS):
            command += ["--tenant", f"{tenant}:{tenant}-token:{THRESHOLD}"]
        if trace_dir is not None:
            command += ["--trace", trace_dir]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("ingest daemon exited before serving")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def client(self, tenant: str, timeout: float = 30.0) -> IngestClient:
        token = ADMIN if tenant == "admin" else f"{tenant}-token"
        return IngestClient(
            self.url, tenant, token, timeout=timeout, retry_budget=0,
        )

    def cpu_seconds(self) -> float:
        """The daemon process's CPU clock, asked over its stdin."""
        self.proc.stdin.write("cpu\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["cpu_s"]

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def setup(trace_dir: Optional[str], cal: Calibration
          ) -> Tuple[Daemon, float]:
    """Launch the daemon several times; keep the last one running.

    Returns it and the median launch-to-serving time at reference speed.
    """
    times = []
    daemon: Optional[Daemon] = None
    for _ in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        _probe(cal)
        started = time.perf_counter()
        daemon = Daemon(trace_dir)
        times.append((started, time.perf_counter() - started))
    return daemon, median([t * cal.wall_factor(at) for at, t in times])


def _probe(cal: Calibration) -> None:
    """Calibration samples between phases (never while uploads run)."""
    for _ in range(PROBES):
        cal.probe()


def _upload(out: Outcome, client: IngestClient, body: Body) -> bool:
    try:
        receipt = client.upload(
            body.text, service=body.service, instance=body.instance
        )
    except IngestError as err:
        return out.check(False, f"upload {body.instance}: {err}")
    return out.check(
        receipt.get("goroutines") == body.goroutines,
        f"upload {body.instance}: receipt says {receipt.get('goroutines')} "
        f"goroutines, body has {body.goroutines}",
    )


def open_loop(out, daemon, bodies, count) -> Tuple[List[float], List[float]]:
    """Fixed-schedule uploads over one connection.

    Each upload is timed from its due time, so a stall also delays the
    uploads queued behind it.  Returns the latency of each accepted
    upload and the sender's lateness per upload, both in milliseconds.
    """
    latency_ms: List[float] = []
    lag_ms: List[float] = []
    clients = {t: daemon.client(t) for t in TENANTS}
    start = time.perf_counter() + 0.05
    for index in range(count):
        due = start + index / OPEN_RATE
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        body = bodies[index % len(bodies)]
        ok = _upload(out, clients[body.tenant], body)
        done = time.perf_counter()
        lag_ms.append((sent - due) * 1e3)
        if ok:
            latency_ms.append((done - due) * 1e3)
    return latency_ms, lag_ms


def closed_loop(out, daemon, bodies, count, offset, cal: Calibration
                ) -> Tuple[List[tuple], List[Tuple[float, float]]]:
    """Back-to-back uploads over one connection, in ``CHUNKS`` chunks.

    Between chunks, while the daemon is idle, the calibration kernel
    runs.  Returns ``(start, uploads, wall s, benchmark + daemon CPU s)``
    per chunk, probes excluded, and ``(start, latency s)`` per accepted
    upload.
    """
    clients = {t: daemon.client(t) for t in TENANTS}
    per_chunk = max(1, count // CHUNKS)
    chunks: List[tuple] = []
    latency: List[Tuple[float, float]] = []
    for first in range(0, count, per_chunk):
        _probe(cal)
        cpu_before = time.process_time() + daemon.cpu_seconds()
        chunk_start = time.perf_counter()
        last = min(count, first + per_chunk)
        for index in range(first, last):
            body = bodies[(offset + index) % len(bodies)]
            started = time.perf_counter()
            if _upload(out, clients[body.tenant], body):
                latency.append((started, time.perf_counter() - started))
        chunks.append((
            chunk_start, last - first, time.perf_counter() - chunk_start,
            time.process_time() + daemon.cpu_seconds() - cpu_before,
        ))
    return chunks, latency


def check_scan(out: Outcome, daemon: Daemon, scan: Dict, archived: int,
               first: bool) -> None:
    """Every tenant's archive scanned; the first scan files exactly the
    planted leak per tenant, later scans only re-find it."""
    tenants = scan.get("tenants", {})
    scanned = sum(t.get("profiles_scanned", 0) for t in tenants.values())
    out.check(
        scanned == archived,
        f"scan covered {scanned} profiles, {archived} were accepted",
    )
    for tenant, (_handler, _rate, planted) in sorted(TENANTS.items()):
        summary = tenants.get(tenant, {})
        if "error" in summary:
            out.check(False, f"tenant {tenant}: {summary['error']}")
            continue
        if not first:
            out.check(
                summary.get("new_reports") == 0
                and summary.get("duplicates", 0) > 0,
                f"tenant {tenant}: repeat scan filed "
                f"{summary.get('new_reports')} new reports",
            )
            continue
        reports = daemon.client(tenant).reports()["reports"]
        found = {
            os.path.basename(r["location"].rsplit(":", 1)[0]) for r in reports
        }
        out.check(
            found == {planted},
            f"tenant {tenant}: scan found {sorted(found)}, planted {planted}",
        )


def run(seed: int, seconds: float, trace_dir=None) -> Outcome:
    out = Outcome()
    cal = Calibration()
    bodies = make_bodies(seed)
    open_count = max(100, round(OPEN_UPLOADS_PER_SECOND * seconds))
    closed_count = max(40, round(CLOSED_UPLOADS_PER_SECOND * seconds))
    daemon, setup_s = setup(trace_dir, cal)
    try:
        open_ms, lag_ms = open_loop(out, daemon, bodies, open_count)
        start_ns = time.perf_counter_ns()
        chunks, uploads = closed_loop(
            out, daemon, bodies, closed_count, open_count, cal
        )
        out.window_ns = (start_ns, time.perf_counter_ns())
        admin = daemon.client("admin", timeout=170.0)
        archived = admin.stats()["profiles_archived"]
        scans = []
        for repeat in range(SCANS):
            _probe(cal)
            started = time.perf_counter()
            scan = admin.scan()
            scans.append((started, time.perf_counter()))
            check_scan(out, daemon, scan, archived, first=repeat == 0)
        _probe(cal)  # each scan is bracketed by probes before and after
        rejected = admin.stats()["uploads_rejected"]
        peak_rss = tree_peak_rss_mb()
    finally:
        daemon.stop()
    out.ops = sum(chunk[1] for chunk in chunks)
    out.cpu_s = sum(chunk[3] for chunk in chunks)
    ops_per_s, cpu_per_op = chunk_rates([
        (ops, wall * cal.wall_factor(at), cpu * cal.cpu_factor(at))
        for at, ops, wall, cpu in chunks
    ])
    latency_ms = [t * cal.wall_factor(at) * 1e3 for at, t in uploads]
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "ops_per_s": ops_per_s,
        "cpu_us_per_op": cpu_per_op * 1e6,
        "op_ms_p50": median(latency_ms),
        "op_ms_tail": percentile(latency_ms, TAIL_PCT),
        "query_ms_p50": median([
            (end - at) * cal.wall_factor(at, end) * 1e3 for at, end in scans
        ]),
    }
    out.notes = {
        "op": "upload in the closed loop",
        "query": "POST /v1/scan over the whole archive",
        "open_uploads": open_count,
        "closed_uploads": closed_count,
        "op_samples": len(latency_ms),
        "op_tail_pct": TAIL_PCT,
        "query_samples": len(scans),
        "host_speed": round(cal.speed(), 3),
        "raw_op_ms_p50": round(median([t * 1e3 for _at, t in uploads]), 3),
        "archived": archived,
        "rejected": rejected,
        "open_loop_rate": OPEN_RATE,
        "open_loop_upload_ms_p50": median(open_ms),
        "open_loop_upload_ms_p99": percentile(open_ms, 99.0),
        "generator_lag_ms_p99": percentile(lag_ms, 99.0),
        "body_goroutines_p50": median([b.goroutines for b in bodies]),
    }
    return out
