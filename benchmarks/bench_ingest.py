"""Ingestion-path throughput: debug=2 parsing and HTTP uploads.

The paper's pipeline collects ~200K profile files per daily run; the
ingestion surface must therefore parse the Go ``debug=2`` dialect at
bulk rates and absorb concurrent uploads without becoming the
bottleneck ahead of LeakProf analysis.  Two headline numbers:

* **goroutines/sec** through :func:`repro.profiling.parse_go_debug2`
  on a realistic many-stanza dump (runtime sub-stacks, created-by
  trailers, minute ages — everything the real format carries), and
  again on a dump where every frame line is distinct — the worst case
  for the parser's per-parse frame table, which then shares nothing;
* **uploads/sec** through a live :class:`repro.ingest.IngestServer`
  over loopback HTTP, sqlite archival included.

It also times a first and a repeat :class:`MultiTenantScheduler` scan of
one in-memory archive, in profiles/sec.  The scheduler memoizes each
archived profile's suspects, so a repeat scan parses and scans nothing
and must run at least ``MIN_RESCAN_SPEEDUP`` times the first scan's
rate.  That gate is a ratio of two rates on one host, so it needs no
per-host setting.

Floors are set low enough for shared CI runners; the emitted
``BENCH_ingest.json`` (uploaded as a CI artifact) records the measured
rates per run.
"""

import os
import time

from repro.ingest import (
    IngestClient,
    IngestServer,
    IngestStore,
    MultiTenantScheduler,
)
from repro.profiling import parse_go_debug2

from _emit import emit
from conftest import print_table

#: One leaking stanza, instantiated per goroutine id.
_STANZA = """\
goroutine {gid} [chan send, {minutes} minutes]:
runtime.gopark(0xc000076058?, 0xc00003e770?, 0x40?, 0xbc?, 0xc00003e7a8?)
\t/usr/local/go/src/runtime/proc.go:364 +0xd6
runtime.chansend(0xc000076000, 0xc00003e7e8, 0x1, 0x1)
\t/usr/local/go/src/runtime/chan.go:259 +0x42c
svc.worker.func{variant}()
\t/srv/svc/worker.go:{line} +0x3c
created by svc.worker in goroutine 1
\t/srv/svc/worker.go:12 +0x9a
"""

#: The same shape with every frame line distinct: each goroutine gets
#: its own functions, files and lines.
_DISTINCT_STANZA = """\
goroutine {gid} [chan send, {minutes} minutes]:
runtime.gopark{gid}(0xc000076058?, 0xc00003e770?)
\t/usr/local/go/src/runtime/proc{gid}.go:{gid} +0xd6
runtime.chansend{gid}(0xc000076000, 0xc00003e7e8, 0x1, 0x1)
\t/usr/local/go/src/runtime/chan{gid}.go:{gid} +0x42c
svc.worker.func{gid}()
\t/srv/svc/worker{gid}.go:{gid} +0x3c
created by svc.worker{gid} in goroutine 1
\t/srv/svc/start{gid}.go:{gid} +0x9a
"""

PARSE_GOROUTINES = int(os.environ.get("INGEST_PARSE_GOROUTINES", "4000"))
UPLOADS = int(os.environ.get("INGEST_UPLOADS", "150"))
MIN_PARSE_RATE = float(os.environ.get("INGEST_MIN_PARSE_RATE", "2000"))
MIN_UPLOAD_RATE = float(os.environ.get("INGEST_MIN_UPLOAD_RATE", "20"))

#: The scan archive: this many profiles of ``SCAN_GOROUTINES`` each.
SCAN_PROFILES = 60
SCAN_GOROUTINES = 200
MIN_RESCAN_SPEEDUP = 5.0


def build_dump(goroutines: int) -> str:
    chunks = ["goroutine 1 [running]:\nmain.main()\n\t/srv/svc/main.go:10 +0x1\n"]
    for gid in range(2, goroutines + 1):
        chunks.append(
            _STANZA.format(
                gid=gid,
                minutes=gid % 240,
                variant=gid % 7,
                line=20 + gid % 40,
            )
        )
    return "\n".join(chunks)


def build_distinct_dump(goroutines: int) -> str:
    chunks = ["goroutine 1 [running]:\nmain.main()\n\t/srv/svc/main.go:10 +0x1\n"]
    for gid in range(2, goroutines + 1):
        chunks.append(_DISTINCT_STANZA.format(gid=gid, minutes=gid % 240))
    return "\n".join(chunks)


def build_leak_dump(goroutines: int) -> str:
    """``build_dump``'s stanzas with every worker parked at one line: one
    leak, so one suspect per profile."""
    chunks = ["goroutine 1 [running]:\nmain.main()\n\t/srv/svc/main.go:10 +0x1\n"]
    for gid in range(2, goroutines + 1):
        chunks.append(
            _STANZA.format(gid=gid, minutes=gid % 240, variant=0, line=33)
        )
    return "\n".join(chunks)


def measure_parse_rate(text: str) -> float:
    parse_go_debug2(text)  # warm caches/regexes outside the timed run
    start = time.perf_counter()
    profile = parse_go_debug2(text)
    elapsed = time.perf_counter() - start
    assert len(profile) == PARSE_GOROUTINES
    return PARSE_GOROUTINES / elapsed


def measure_upload_rate() -> float:
    body = build_dump(60)
    store = IngestStore(":memory:")
    store.register_tenant("bench", "tok", threshold=10_000)
    with IngestServer(store, rate=1e9, burst=1e9) as server:
        client = IngestClient(server.url, "bench", "tok")
        client.upload(body)  # warm the connection path
        start = time.perf_counter()
        for _ in range(UPLOADS):
            client.upload(body)
        elapsed = time.perf_counter() - start
    store.close()
    return UPLOADS / elapsed


def measure_scan_rates():
    """Best-of-three first-scan and repeat-scan rates, profiles/s.

    Each round is a fresh scheduler (an empty memo, as after a daemon
    restart) scanning the archive twice.  A warm-up scan first pays the
    one-off pattern-probe import, so it lands in neither timing.
    """
    store = IngestStore(":memory:")
    store.register_tenant("bench", "tok", threshold=100)
    body = build_leak_dump(SCAN_GOROUTINES)
    for index in range(SCAN_PROFILES):
        store.store_profile(
            "bench", body, dialect="go", goroutines=SCAN_GOROUTINES,
            service="svc", instance=f"i-{index}",
        )
    MultiTenantScheduler(store).run_once()
    first, repeat = [], []
    for _ in range(3):
        scheduler = MultiTenantScheduler(store)
        for rates in (first, repeat):
            start = time.perf_counter()
            result = scheduler.run_once()["bench"]
            elapsed = time.perf_counter() - start
            assert result.profiles_scanned == SCAN_PROFILES
            assert len(result.suspects) == SCAN_PROFILES
            rates.append(SCAN_PROFILES / elapsed)
    store.close()
    return max(first), max(repeat)


def test_ingest_throughput():
    parse_rate = measure_parse_rate(build_dump(PARSE_GOROUTINES))
    distinct_rate = measure_parse_rate(build_distinct_dump(PARSE_GOROUTINES))
    upload_rate = measure_upload_rate()
    scan_rate, rescan_rate = measure_scan_rates()

    print_table(
        "Ingestion throughput",
        ["path", "work", "rate"],
        [
            (
                "parse_go_debug2",
                f"{PARSE_GOROUTINES} goroutines",
                f"{parse_rate:,.0f} goroutines/s",
            ),
            (
                "parse_go_debug2, every frame distinct",
                f"{PARSE_GOROUTINES} goroutines",
                f"{distinct_rate:,.0f} goroutines/s",
            ),
            (
                "HTTP upload+archive",
                f"{UPLOADS} uploads x 60 goroutines",
                f"{upload_rate:,.0f} uploads/s",
            ),
            (
                "scheduler scan, first",
                f"{SCAN_PROFILES} profiles x {SCAN_GOROUTINES} goroutines",
                f"{scan_rate:,.0f} profiles/s",
            ),
            (
                "scheduler scan, repeat",
                f"{SCAN_PROFILES} profiles x {SCAN_GOROUTINES} goroutines",
                f"{rescan_rate:,.0f} profiles/s",
            ),
        ],
    )
    emit(
        "ingest",
        metric="parse_goroutines_per_sec",
        value=round(parse_rate),
        unit="goroutines/s",
        distinct_frames_parse_goroutines_per_sec=round(distinct_rate),
        uploads_per_sec=round(upload_rate, 1),
        scan_profiles_per_sec=round(scan_rate, 1),
        rescan_profiles_per_sec=round(rescan_rate, 1),
        parse_goroutines=PARSE_GOROUTINES,
        uploads=UPLOADS,
        scan_profiles=SCAN_PROFILES,
    )
    assert parse_rate >= MIN_PARSE_RATE
    assert distinct_rate >= MIN_PARSE_RATE
    assert upload_rate >= MIN_UPLOAD_RATE
    assert rescan_rate >= MIN_RESCAN_SPEEDUP * scan_rate
