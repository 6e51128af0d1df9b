"""The end-to-end LeakProf pipeline (Fig 3, right half).

One daily run: sweep fleet profiles → per-profile threshold scan
(Criterion 1) → transient-operation filter (Criterion 2) → fleet-wide RMS
impact ranking → top-N selection → Bug-DB deduplication → ownership
routing → filed reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro import obs
from repro.obs.registry import monotonic as _monotonic
from repro.profiling import GoroutineProfile

from .collector import Profilable, SweepStats, sweep
from .detector import DEFAULT_THRESHOLD, Suspect, scan_fleet
from .impact import LeakCandidate, rank_by_impact
from .ownership import OwnershipRouter
from .reports import BugDatabase, LeakReport, ReportStatus


@dataclass
class DailyRunResult:
    """Everything one LeakProf run produced."""

    suspects: List[Suspect]
    candidates: List[LeakCandidate]
    new_reports: List[LeakReport]
    duplicates: List[LeakCandidate]
    sweep_stats: Optional[SweepStats] = None
    #: Whatever the configured remediator returned per new report (e.g.
    #: :class:`repro.remedy.tickets.RemediationTicket` instances).
    remediations: List[object] = field(default_factory=list)


class LeakProf:
    """The paper's production monitor, parameterized like the deployment.

    ``threshold`` is the 10K blocked-goroutine bar of Criterion 1;
    ``top_n`` bounds how many owners get alerted per run.  ``remediator``
    is an optional callable invoked with each newly filed
    :class:`LeakReport` — this is where the automated triage engine
    (:class:`repro.remedy.RemedyEngine`) plugs into the daily run; its
    non-None return values are collected on the result.
    """

    def __init__(
        self,
        threshold: int = DEFAULT_THRESHOLD,
        top_n: int = 10,
        apply_transient_filter: bool = True,
        router: Optional[OwnershipRouter] = None,
        bug_db: Optional[BugDatabase] = None,
        remediator: Optional[Callable[[LeakReport], object]] = None,
    ):
        self.threshold = threshold
        self.top_n = top_n
        self.apply_transient_filter = apply_transient_filter
        self.router = router if router is not None else OwnershipRouter()
        # NOT ``bug_db or BugDatabase()``: BugDatabase defines __len__,
        # so an *empty* database (e.g. a fresh persistent store) is falsy
        # and would be silently swapped for a throwaway in-memory one.
        self.bug_db = bug_db if bug_db is not None else BugDatabase()
        self.remediator = remediator

    def analyze_profiles(
        self,
        profiles: Sequence[GoroutineProfile],
        now: float = 0.0,
        memory_footprints=None,
        scan: Optional[Callable[[object], Sequence[Suspect]]] = None,
    ) -> DailyRunResult:
        """Run detection over already-collected profiles.

        Instrumented per phase (scan → rank → file) into the shared
        :mod:`repro.obs` registry, and traced as a ``leakprof.detect``
        span whose children are those phases.

        ``scan``, when given, replaces :func:`scan_fleet` as the scan
        phase: it is called once per item of ``profiles``, in order, and
        returns that item's suspects at this run's threshold and
        transient filter.  The ingest scheduler passes one that answers
        from its per-profile memo, so items need not be parsed profiles.
        """
        reg = obs.default_registry()
        tracer = obs.default_tracer()
        with tracer.span("leakprof.detect", profiles=len(profiles)) as det:
            phase_started = _monotonic()
            with tracer.span("leakprof.scan"):
                if scan is None:
                    suspects = scan_fleet(
                        profiles,
                        threshold=self.threshold,
                        apply_transient_filter=self.apply_transient_filter,
                    )
                else:
                    suspects = [s for item in profiles for s in scan(item)]
            self._observe_phase(reg, "scan", phase_started)
            candidates, new_reports, duplicates = self._rank_and_file(
                reg, tracer, det, suspects, now, memory_footprints
            )
        remediations = self._remediate(new_reports, duplicates)
        return DailyRunResult(
            suspects=suspects,
            candidates=candidates,
            new_reports=new_reports,
            duplicates=duplicates,
            remediations=remediations,
        )

    def analyze_suspects(
        self,
        suspects: Sequence[Suspect],
        now: float = 0.0,
        memory_footprints=None,
    ) -> DailyRunResult:
        """Rank/file/remediate an already-computed suspect set.

        The streaming entry point: suspects come from the fleet's
        online scorer (:mod:`repro.leakprof.streaming`), so there is no
        scan phase to run — everything downstream (impact ranking,
        Bug-DB dedup, ownership routing, remediation retry) is the same
        code path as :meth:`analyze_profiles`, with identical metrics
        and span structure minus ``leakprof.scan``.
        """
        reg = obs.default_registry()
        tracer = obs.default_tracer()
        suspects = list(suspects)
        with tracer.span("leakprof.detect", source="streaming") as det:
            candidates, new_reports, duplicates = self._rank_and_file(
                reg, tracer, det, suspects, now, memory_footprints
            )
        remediations = self._remediate(new_reports, duplicates)
        return DailyRunResult(
            suspects=suspects,
            candidates=candidates,
            new_reports=new_reports,
            duplicates=duplicates,
            remediations=remediations,
        )

    def _rank_and_file(
        self,
        reg,
        tracer,
        det,
        suspects: List[Suspect],
        now: float,
        memory_footprints,
    ):
        """The shared back half of every detection run (rank → file)."""
        phase_started = _monotonic()
        with tracer.span("leakprof.rank"):
            candidates = rank_by_impact(suspects, top_n=self.top_n)
        self._observe_phase(reg, "rank", phase_started)
        phase_started = _monotonic()
        new_reports: List[LeakReport] = []
        duplicates: List[LeakCandidate] = []
        with tracer.span("leakprof.file"):
            for candidate in candidates:
                footprint = None
                if memory_footprints is not None:
                    footprint = memory_footprints.get(candidate.service)
                report = self.bug_db.file(
                    candidate,
                    owner=self.router.route(candidate.location),
                    filed_at=now,
                    memory_footprint=footprint,
                )
                if report is None:
                    duplicates.append(candidate)
                else:
                    new_reports.append(report)
        self._observe_phase(reg, "file", phase_started)
        det.attributes.update(
            suspects=len(suspects), new_reports=len(new_reports)
        )
        if reg.enabled:
            reg.counter(
                "repro_leakprof_runs_total", "LeakProf detection runs"
            ).inc()
            results = reg.counter(
                "repro_leakprof_results_total",
                "Detection outcomes per run, by kind",
                ("kind",),
            )
            results.labels("suspect").inc(len(suspects))
            results.labels("new_report").inc(len(new_reports))
            results.labels("duplicate").inc(len(duplicates))
        return candidates, new_reports, duplicates

    def _remediate(
        self,
        new_reports: List[LeakReport],
        duplicates: List[LeakCandidate],
    ) -> List[object]:
        remediations: List[object] = []
        if self.remediator is not None:
            pending = list(new_reports)
            # A leak whose automated remediation stalled mid-lifecycle
            # (gate rejection, aborted canary) dedups as a duplicate on
            # later runs — but it is still leaking, so hand it back to
            # the remediator for another attempt.  Reports in human
            # hands (OPEN/ACKNOWLEDGED) or settled states are left alone.
            retryable = (ReportStatus.FIX_PROPOSED, ReportStatus.FIX_VERIFIED)
            for candidate in duplicates:
                report = self.bug_db.get(candidate)
                if report is not None and report.status in retryable:
                    pending.append(report)
            for report in pending:
                outcome = self.remediator(report)
                if outcome is not None:
                    remediations.append(outcome)
        return remediations

    def streaming_run(
        self,
        fleet,
        now: float = 0.0,
        memory_footprints=None,
    ) -> DailyRunResult:
        """One detection run against a streaming :class:`ShardedFleet`.

        Takes the online scorer's current suspect set — zero wire
        traffic, O(signatures) parent-side work — and runs the shared
        rank/file/remediate back half.  Results are batch-identical to
        ``daily_run`` over the same fleet's snapshots (minus
        ``sweep_stats``, since nothing was swept).
        """
        reg = obs.default_registry()
        with obs.default_tracer().span("leakprof.streaming_run") as root:
            phase_started = _monotonic()
            suspects = fleet.suspects(
                threshold=self.threshold,
                apply_transient_filter=self.apply_transient_filter,
            )
            self._observe_phase(reg, "score", phase_started)
            result = self.analyze_suspects(
                suspects, now=now, memory_footprints=memory_footprints
            )
            root.attributes.update(
                suspects=len(suspects),
                new_reports=len(result.new_reports),
            )
        return result

    @staticmethod
    def _observe_phase(reg, phase: str, started: float) -> None:
        if not reg.enabled:
            return
        reg.histogram(
            "repro_leakprof_phase_seconds",
            "Wall-clock duration of one LeakProf pipeline phase",
            ("phase",),
        ).labels(phase).observe(_monotonic() - started)

    def daily_run(
        self,
        instances: Iterable[Profilable],
        now: float = 0.0,
        via_text: bool = True,
        memory_footprints=None,
    ) -> DailyRunResult:
        """Sweep the fleet then analyze (the full Fig 3 loop).

        Traced as a ``leakprof.daily_run`` root span: the collection
        sweep and the nested detect phases land as its children.
        """
        reg = obs.default_registry()
        with obs.default_tracer().span("leakprof.daily_run") as root:
            phase_started = _monotonic()
            with obs.default_tracer().span("leakprof.sweep") as sw:
                profiles, stats = sweep(instances, via_text=via_text)
                sw.attributes.update(
                    instances=stats.instances_swept,
                    goroutines=stats.goroutines_seen,
                )
            self._observe_phase(reg, "sweep", phase_started)
            if reg.enabled:
                reg.counter(
                    "repro_leakprof_swept_instances_total",
                    "Instances profiled by collection sweeps",
                ).inc(stats.instances_swept)
                reg.counter(
                    "repro_leakprof_swept_bytes_total",
                    "Profile bytes transferred by collection sweeps",
                ).inc(stats.bytes_transferred)
            result = self.analyze_profiles(
                profiles, now=now, memory_footprints=memory_footprints
            )
            result.sweep_stats = stats
            root.attributes.update(
                instances=stats.instances_swept,
                new_reports=len(result.new_reports),
            )
        return result
