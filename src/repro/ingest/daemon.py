"""The HTTP ingestion daemon: per-tenant profile uploads over the wire.

Stdlib only (``http.server.ThreadingHTTPServer``): one thread per
connection, which is plenty for the profile-file traffic shape — the
paper's collection plane moves ~200K small text files per *day*.

Endpoints (JSON responses unless noted)::

    GET  /healthz                          liveness probe (uptime included)
    GET  /metrics                          Prometheus text exposition
    GET  /v1/stats                         archive totals
    POST /v1/tenants/<t>/profiles          upload one profile (Bearer auth)
    GET  /v1/tenants/<t>/profiles          archived upload metadata
    GET  /v1/tenants/<t>/suspects          threshold scan, nothing filed
    GET  /v1/tenants/<t>/reports           persistent bug funnel
    POST /v1/scan                          multi-tenant daily run (admin)

Uploads negotiate content: ``Content-Type:
application/x-goroutine-profile+go`` / ``...+simulator`` pin a dialect,
anything else is sniffed (:func:`repro.profiling.sniff_dialect`).
Optional ``X-Service`` / ``X-Instance`` headers label the profile for
fleet-wide RMS aggregation.  Admission control: ``Authorization: Bearer
<tenant token>`` (401), per-tenant token-bucket rate limiting (429), a
body-size ceiling (413), and parse validation (400) — a rejected upload
never reaches the archive.

Observability: every server owns a *private*
:class:`~repro.obs.MetricsRegistry` (so two servers in one process never
mix counters) whose series back both ``/v1/stats`` and ``/metrics``;
``/metrics`` merges in the process-wide :mod:`repro.obs` registry so
scheduler, gc, and LeakProf series ride the same scrape.  Request logs
go through ``logging.getLogger("repro.ingest")`` — one structured line
per request (method, endpoint, status, tenant, latency) when
``quiet=False``; auth and rate-limit rejections (401/429) are logged
even when quiet.
"""

from __future__ import annotations

import hmac
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.registry import (
    MetricsRegistry,
    monotonic as _monotonic,
    render_prometheus,
)
from repro.profiling import parse_profile

from .limits import RateLimiter
from .scheduler import MultiTenantScheduler
from .store import IngestStore, Tenant

logger = logging.getLogger("repro.ingest")

#: Default ceiling on one upload body.  The paper's profile files are
#: hundreds of KB; 8 MiB accommodates a badly leaking instance's stack
#: dump while bounding what one request can make the daemon hold.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_CONTENT_DIALECTS = {
    "application/x-goroutine-profile+go": "go",
    "application/x-goroutine-profile+simulator": "simulator",
}

#: Upload body sizes, in bytes (256 B through the 8 MiB ceiling).
_BYTE_BUCKETS = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 8388608.0,
)

#: Content type for the Prometheus text exposition format 0.0.4.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TextResponse:
    """A non-JSON response body (the ``/metrics`` exposition)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str):
        self.body = body
        self.content_type = content_type


class _ApiError(Exception):
    """An error response: (status, machine-readable reason)."""

    def __init__(self, status: int, reason: str):
        super().__init__(reason)
        self.status = status
        self.reason = reason


class IngestServer:
    """The ingestion service: a threaded HTTP front over an IngestStore.

    ``clock`` stamps uploads and feeds the rate limiter — injectable so
    tests drive admission control deterministically.  ``admin_token``
    guards the mutating fleet-wide endpoints (``/v1/scan``); tenant
    endpoints authenticate with the tenant's own token.  ``registry``
    defaults to a fresh private :class:`MetricsRegistry` per server —
    pass one explicitly to aggregate several servers.
    """

    def __init__(
        self,
        store: IngestStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        rate: float = 50.0,
        burst: float = 100.0,
        admin_token: Optional[str] = None,
        scheduler: Optional[MultiTenantScheduler] = None,
        clock: Callable[[], float] = time.time,
        quiet: bool = True,
        registry: Optional[MetricsRegistry] = None,
        fault_injector: Optional[object] = None,
        drain_timeout: float = 5.0,
    ):
        self.store = store
        self.max_body_bytes = max_body_bytes
        self.admin_token = admin_token
        self.scheduler = scheduler or MultiTenantScheduler(store)
        self.clock = clock
        self.quiet = quiet
        #: Chaos hook: an object with ``on_request(method, endpoint)``
        #: returning None / ("stall", seconds) / ("error", status) —
        #: see :class:`repro.chaos.DaemonChaos`.  Never set in product.
        self.fault_injector = fault_injector
        self.drain_timeout = drain_timeout
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.limiter = RateLimiter(rate=rate, burst=burst, clock=clock)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._started = _monotonic()
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_ingest_requests_total",
            "HTTP requests served, by method/endpoint/status",
            ("method", "endpoint", "status"),
        )
        self._m_request_seconds = reg.histogram(
            "repro_ingest_request_seconds",
            "HTTP request handling latency",
            ("endpoint",),
        )
        self._m_uploads = reg.counter(
            "repro_ingest_uploads_total",
            "Profile uploads, by admission result",
            ("result",),
        )
        self._m_rejections = reg.counter(
            "repro_ingest_rejections_total",
            "Requests rejected by admission control, by HTTP status",
            ("status",),
        )
        self._m_scans = reg.counter(
            "repro_ingest_scans_total", "Multi-tenant daily scans run"
        )
        self._m_parse_seconds = reg.histogram(
            "repro_ingest_parse_seconds",
            "Profile parse latency on the upload path",
        )
        self._m_upload_bytes = reg.histogram(
            "repro_ingest_upload_bytes",
            "Accepted upload body sizes in bytes",
            buckets=_BYTE_BUCKETS,
        )
        app = self

        class _Handler(BaseHTTPRequestHandler):
            # Serving threads outlive slow clients; keep-alive off keeps
            # the shutdown path prompt.
            protocol_version = "HTTP/1.0"

            def log_message(self, fmt, *args):  # noqa: N802
                # The daemon writes one structured line per request from
                # _dispatch; the default stderr access log would double
                # every entry.
                pass

            def do_GET(self):  # noqa: N802
                app._dispatch(self, "GET")

            def do_POST(self):  # noqa: N802
                app._dispatch(self, "POST")

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def stats(self) -> Dict[str, int]:
        """Admission counters, read straight from the metrics registry —
        ``/v1/stats`` and ``/metrics`` report from one source of truth."""
        return {
            "uploads_accepted": int(self._m_uploads.labels("accepted").value),
            "uploads_rejected": int(self._m_rejections.total),
            "scans_run": int(self._m_scans.value),
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "IngestServer":
        """Serve in a background thread (tests, examples, embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-ingest",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:  # pragma: no cover - CLI path
        self._httpd.serve_forever()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests.

        ``shutdown()`` only stops the accept loop; handler threads may
        still be mid-request (a slow scan, a large upload).  Waiting for
        the in-flight count to reach zero — bounded by
        ``drain_timeout`` — means a client whose request was already
        admitted gets its response instead of a reset socket.
        """
        self._httpd.shutdown()
        deadline = _monotonic() + self.drain_timeout
        while _monotonic() < deadline:
            with self._inflight_lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def abort(self) -> None:
        """Crash-shaped shutdown: no drain, no goodbye.

        What a SIGKILL'd daemon looks like to its clients and its sqlite
        file — the restart-persistence tests use this to prove the
        archive, counters, and funnel survive an *ungraceful* death,
        not just a polite one.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "IngestServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------------

    @staticmethod
    def _endpoint_label(path: str) -> Tuple[str, Optional[str]]:
        """``(endpoint, tenant)`` with endpoint normalized to a bounded
        vocabulary — tenant names never become metric label values."""
        parts = [part for part in path.split("?")[0].split("/") if part]
        if parts == ["healthz"]:
            return "healthz", None
        if parts == ["metrics"]:
            return "metrics", None
        if parts == ["v1", "stats"]:
            return "stats", None
        if parts == ["v1", "scan"]:
            return "scan", None
        if len(parts) == 4 and parts[:2] == ["v1", "tenants"] and parts[
            3
        ] in ("profiles", "suspects", "reports"):
            return f"tenant_{parts[3]}", parts[2]
        return "unknown", None

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        with self._inflight_lock:
            self._inflight += 1
        try:
            self._dispatch_inner(handler, method)
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def _dispatch_inner(
        self, handler: BaseHTTPRequestHandler, method: str
    ) -> None:
        started = _monotonic()
        endpoint, tenant = self._endpoint_label(handler.path)
        try:
            self._maybe_inject_fault(method, endpoint)
            status, payload = self._route(handler, method)
        except _ApiError as err:
            if err.status in (400, 401, 413, 429):
                self._m_rejections.labels(str(err.status)).inc()
                if endpoint == "tenant_profiles" and method == "POST":
                    self._m_uploads.labels("rejected").inc()
            status, payload = err.status, {"error": err.reason}
        except Exception as err:  # pragma: no cover - last-resort guard
            status, payload = 500, {"error": f"internal: {err}"}
        if isinstance(payload, _TextResponse):
            body = payload.body.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload, default=str).encode()
            content_type = "application/json"
        elapsed = _monotonic() - started
        self._m_requests.labels(method, endpoint, str(status)).inc()
        self._m_request_seconds.labels(endpoint).observe(elapsed)
        self._log_request(method, endpoint, status, tenant, elapsed)
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _log_request(
        self,
        method: str,
        endpoint: str,
        status: int,
        tenant: Optional[str],
        elapsed: float,
    ) -> None:
        """One structured line per request.  Verbose servers log
        everything (4xx/5xx at WARNING); quiet servers still surface
        auth failures and rate-limit hits (401/429)."""
        if self.quiet and status not in (401, 429):
            return
        level = logging.WARNING if status >= 400 else logging.INFO
        logger.log(
            level,
            "%s %s status=%d tenant=%s latency_ms=%.2f",
            method,
            endpoint,
            status,
            tenant or "-",
            elapsed * 1000.0,
        )

    def _maybe_inject_fault(self, method: str, endpoint: str) -> None:
        """Consult the chaos hook (no-op without one installed)."""
        if self.fault_injector is None:
            return
        directive = self.fault_injector.on_request(method, endpoint)
        if directive is None:
            return
        kind, param = directive
        if kind == "stall":
            time.sleep(float(param))
        elif kind == "error":
            raise _ApiError(int(param), "injected fault (chaos)")

    def _route(
        self, handler: BaseHTTPRequestHandler, method: str
    ) -> Tuple[int, Dict]:
        parts = [part for part in handler.path.split("?")[0].split("/") if part]
        if parts == ["healthz"] and method == "GET":
            return 200, {
                "status": "ok",
                "uptime_seconds": round(_monotonic() - self._started, 3),
            }
        if parts == ["metrics"] and method == "GET":
            return 200, self._handle_metrics()
        if parts == ["v1", "stats"] and method == "GET":
            return 200, self._handle_stats()
        if parts == ["v1", "scan"] and method == "POST":
            self._check_admin(handler)
            return 200, self._handle_scan()
        if len(parts) == 4 and parts[:2] == ["v1", "tenants"]:
            tenant = self._authenticate(handler, parts[2])
            action = parts[3]
            if action == "profiles" and method == "POST":
                return 201, self._handle_upload(handler, tenant)
            if action == "profiles" and method == "GET":
                return 200, self._handle_list(tenant)
            if action == "suspects" and method == "GET":
                return 200, self._handle_suspects(tenant)
            if action == "reports" and method == "GET":
                return 200, self._handle_reports(tenant)
        raise _ApiError(404, f"no such endpoint: {method} {handler.path}")

    def _bearer_token(self, handler: BaseHTTPRequestHandler) -> str:
        auth = handler.headers.get("Authorization", "")
        if not auth.startswith("Bearer "):
            raise _ApiError(401, "missing bearer token")
        return auth[len("Bearer "):].strip()

    def _authenticate(
        self, handler: BaseHTTPRequestHandler, name: str
    ) -> Tenant:
        tenant = self.store.tenant(name)
        if tenant is None:
            raise _ApiError(404, f"unknown tenant {name!r}")
        token = self._bearer_token(handler)
        if not hmac.compare_digest(token, tenant.token):
            raise _ApiError(401, "bad token")
        return tenant

    def _check_admin(self, handler: BaseHTTPRequestHandler) -> None:
        if self.admin_token is None:
            return
        token = self._bearer_token(handler)
        if not hmac.compare_digest(token, self.admin_token):
            raise _ApiError(401, "bad admin token")

    # -- endpoint handlers ---------------------------------------------------

    def _handle_upload(
        self, handler: BaseHTTPRequestHandler, tenant: Tenant
    ) -> Dict:
        if not self.limiter.allow(tenant.name):
            raise _ApiError(429, "rate limit exceeded")
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise _ApiError(400, "bad Content-Length")
        if length <= 0:
            raise _ApiError(400, "empty body")
        if length > self.max_body_bytes:
            raise _ApiError(
                413, f"body exceeds {self.max_body_bytes} bytes"
            )
        raw = handler.rfile.read(length)
        if len(raw) < length:
            raise _ApiError(400, "truncated body")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _ApiError(400, "body is not UTF-8 text")
        content_type = (
            handler.headers.get("Content-Type", "").split(";")[0].strip()
        )
        dialect = _CONTENT_DIALECTS.get(content_type, "auto")
        now = self.clock()
        service = handler.headers.get("X-Service") or tenant.name
        instance = handler.headers.get("X-Instance")
        parse_started = _monotonic()
        try:
            profile, dialect = parse_profile(
                text,
                dialect=dialect,
                process=instance or tenant.name,
                taken_at=now,
                service=service,
                instance=instance,
            )
        except ValueError as err:
            raise _ApiError(400, f"unparseable profile: {err}")
        finally:
            self._m_parse_seconds.observe(_monotonic() - parse_started)
        profile_id = self.store.store_profile(
            tenant.name,
            body=text,
            dialect=dialect,
            goroutines=len(profile),
            service=profile.service,
            instance=profile.instance,
            received_at=now,
        )
        self._m_uploads.labels("accepted").inc()
        self._m_upload_bytes.observe(float(len(raw)))
        return {
            "profile_id": profile_id,
            "dialect": dialect,
            "goroutines": len(profile),
            "service": profile.service,
            "instance": profile.instance,
        }

    def _handle_list(self, tenant: Tenant) -> Dict:
        stored = self.store.profiles_for(tenant.name)
        return {
            "tenant": tenant.name,
            "profiles": [
                {
                    "profile_id": item.profile_id,
                    "received_at": item.received_at,
                    "dialect": item.dialect,
                    "service": item.service,
                    "instance": item.instance,
                    "goroutines": item.goroutines,
                }
                for item in stored
            ],
        }

    def _handle_suspects(self, tenant: Tenant) -> Dict:
        """Threshold scan over the tenant's archive — read-only (nothing
        is filed or quarantined; the scheduler owns both).  It shares the
        scheduler's scan memo; rows that no longer parse are left out
        and counted as ``unparseable``."""
        scanned, suspects, unparseable = self.scheduler.suspects(tenant)
        return {
            "tenant": tenant.name,
            "profiles_scanned": scanned,
            "unparseable": unparseable,
            "suspects": [
                {
                    "service": s.service,
                    "instance": s.instance,
                    "state": s.state,
                    "location": s.location,
                    "count": s.count,
                    "proof": s.proof,
                }
                for s in suspects
            ],
        }

    def _handle_reports(self, tenant: Tenant) -> Dict:
        bug_db = self.scheduler.bug_db(tenant.name)
        return {
            "tenant": tenant.name,
            "funnel": bug_db.funnel(),
            "reports": [
                {
                    "report_id": r.report_id,
                    "status": r.status.value,
                    "owner": r.owner,
                    "filed_at": r.filed_at,
                    "service": r.candidate.service,
                    "state": r.candidate.state,
                    "location": r.candidate.location,
                    "total_blocked": r.candidate.total_blocked,
                    "summary": r.summary,
                }
                for r in bug_db.all_reports()
            ],
        }

    def _handle_scan(self) -> Dict:
        results = self.scheduler.run_once(now=self.clock())
        self._m_scans.inc()
        return {
            "tenants": {
                name: result.summary() for name, result in results.items()
            }
        }

    def _handle_stats(self) -> Dict:
        stats = dict(self.stats)
        stats.update(
            tenants=len(self.store.tenants()),
            profiles_archived=self.store.profile_count(),
            reports_filed=self.store.report_count(),
        )
        return stats

    def _handle_metrics(self) -> _TextResponse:
        """The Prometheus scrape: this server's private registry merged
        with the process-wide pipeline registry (private wins on name
        collisions).  Archive gauges are refreshed at scrape time."""
        census = self.registry.gauge(
            "repro_ingest_archive",
            "Archive census at scrape time, by kind",
            ("kind",),
        )
        census.labels("tenants").set(len(self.store.tenants()))
        census.labels("profiles_archived").set(self.store.profile_count())
        census.labels("reports_filed").set(self.store.report_count())
        text = render_prometheus(self.registry, obs.default_registry())
        return _TextResponse(text, _PROM_CONTENT_TYPE)


def _diagnoses_summary(diagnoses: Dict[str, object]) -> List[Dict]:
    """JSON shape for remedy diagnoses (used by the CLI's scan output)."""
    return [
        {
            "suspect": key,
            "pattern": diagnosis.pattern.name,
            "confidence": diagnosis.confidence,
        }
        for key, diagnosis in diagnoses.items()
    ]
