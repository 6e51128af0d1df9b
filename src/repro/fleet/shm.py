"""Shared-memory stat plane for the sharded fleet.

The O(1) per-instance counters (clock, RSS, blocked/goroutine counts,
state census, request tallies) stop transiting pipes entirely: workers
write them in-place into a fixed-layout ``multiprocessing.shared_memory``
segment and the parent reads them lock-free.  A command reply is the
memory barrier — a worker always finishes its in-place writes before
sending the (tiny) delta reply the parent blocks on, so the parent never
observes a torn row.

Layout: one fixed-size row per fleet instance (slot order is assigned by
the parent at ``start()`` and shipped to workers in the init metadata).
Each row is ``_ROW`` — a ``(shard, window)`` watermark stamped by the
writing worker, two doubles (clock, cpu%), the integer counters, and the
full :class:`~repro.runtime.GoroutineState` census array.  The watermark
is what lets the parent *validate* a row instead of trusting it: a row
whose window is not the one the sweep expects (a replaying respawned
worker, an ``only=`` advance that skipped the instance) is skipped, and
the parent keeps its previous copy.

Reads come in two speeds.  :meth:`StatPlane.read_row` copies one row
out.  :func:`sweep_plane` is the vectorized whole-plane sweep the parent
runs every window: one ``bytes()`` grab of the region, watermark
validation as two C-level ``array`` column compares (every row is a
flat sequence of 8-byte fields, so a strided slice of the plane *is* a
column), and publication into a :class:`RowCache` that consumers read
through lazily — materialized views, instance mirrors, and the
per-service sample aggregation (via :meth:`RowCache.sample_columns`,
five ``memoryview``-cast column extractions memoized per sweep) pull
exactly the fields they need, when they need them, instead of the sweep
eagerly unpacking ~20 fields × 10k rows into tuples.  Gated ≥2x over
the per-key loop at 10k instances in ``bench_fleet_scale.py``.

Creation and attachment degrade gracefully: on hosts where POSIX shared
memory is unavailable (or attachment fails in a worker), callers fall
back to shipping :class:`~repro.snapshot.delta.InstanceStats` inline in
the delta reply — same bytes-on-wire as a stat row, still far smaller
than a pickled snapshot.  The :class:`RowCache` is plane-agnostic:
wire-fed rows land in its override map and everything downstream reads
them identically.
"""

from __future__ import annotations

import struct
from array import array
from multiprocessing import shared_memory
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.runtime import GoroutineState
from repro.snapshot.delta import InstanceStats

_STATES = tuple(GoroutineState)
_STATE_VALUES = tuple(state.value for state in _STATES)
#: shard, window (the watermark), then t, cpu_percent (doubles), then
#: rss, blocked, goroutines, requests_window, requests_total, steps,
#: windows, census[...]
_ROW = struct.Struct("=qqdd" + "q" * (7 + len(_STATES)))

ROW_BYTES = _ROW.size

#: Every field is 8 bytes wide, so a stat row is also a flat sequence of
#: ``NUM_FIELDS`` machine words — which is what lets the sweep treat a
#: strided slice of the whole plane as a *column* (``array``/
#: ``memoryview`` batch ops) instead of unpacking rows one by one.
NUM_FIELDS = ROW_BYTES // 8

#: The leading fields (watermark + the sample-relevant gauges) as their
#: own struct, for cheap partial unpacks of a raw row.
_HEAD = struct.Struct("=qqddqqq")

#: Field indices into one unpacked row tuple.
F_SHARD = 0
F_WINDOW = 1
F_T = 2
F_CPU = 3
F_RSS = 4
F_BLOCKED = 5
F_GOROUTINES = 6
F_REQ_WINDOW = 7
F_REQ_TOTAL = 8
F_STEPS = 9
F_WINDOWS = 10
F_CENSUS = 11


def stats_from_row(row: Tuple) -> InstanceStats:
    """Materialize one unpacked stat row into an :class:`InstanceStats`."""
    (t, cpu_percent, rss_bytes, blocked, goroutines,
     requests_window, requests_total, steps, windows) = row[F_T:F_CENSUS]
    return InstanceStats(
        t=t, rss_bytes=rss_bytes, blocked=blocked,
        cpu_percent=cpu_percent, goroutines=goroutines,
        requests_window=requests_window, requests_total=requests_total,
        steps=steps, windows=windows,
        census=tuple(
            (value, count)
            for value, count in zip(_STATE_VALUES, row[F_CENSUS:])
            if count
        ),
    )


def row_from_stats(stats: InstanceStats, shard: int, window: int) -> Tuple:
    """The inverse of :func:`stats_from_row`, watermark included.

    Used by the parent to keep its latest-row cache uniform when an
    instance's stats arrived inline on the wire (async windows, the
    no-shm fallback) instead of through the plane.
    """
    lookup = dict(stats.census)
    return (
        shard, window, stats.t, stats.cpu_percent, stats.rss_bytes,
        stats.blocked, stats.goroutines, stats.requests_window,
        stats.requests_total, stats.steps, stats.windows,
        *(lookup.get(value, 0) for value in _STATE_VALUES),
    )


class StatPlane:
    """A fixed grid of per-instance counter rows in shared memory."""

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(cls, slots: int) -> Optional["StatPlane"]:
        """Allocate a plane for ``slots`` instances (None on failure)."""
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, slots) * ROW_BYTES
            )
        except (OSError, ValueError):
            return None
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> Optional["StatPlane"]:
        """Attach to the parent's plane from a worker (None on failure)."""
        try:
            try:
                shm = shared_memory.SharedMemory(name=name, track=False)
            except TypeError:
                # Python < 3.13: no track kwarg.  The attach registers
                # the name a second time with the resource tracker the
                # worker shares with the parent — a set add, collapsed
                # with the parent's own registration, which the parent's
                # unlink() at close cleanly retires.
                shm = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError, FileNotFoundError):
            return None
        return cls(shm, owner=False)

    def write(
        self, slot: int, stats: InstanceStats,
        shard: int = 0, window: int = 0,
    ) -> None:
        _ROW.pack_into(
            self._shm.buf, slot * ROW_BYTES,
            *row_from_stats(stats, shard, window),
        )

    def write_instance(
        self, slot: int, instance, shard: int = 0, window: int = 0
    ) -> None:
        """Pack one live instance's counters straight into its row.

        The worker hot path: byte-identical to
        ``write(slot, instance_stats(instance), shard, window)`` without
        building the intermediate :class:`InstanceStats`.  The census
        comes straight from ``runtime.census_counts`` (already in
        ``_STATES`` order, zeros included), and the window's own sample
        supplies ``cpu_percent`` when it was taken at this clock and
        blocked count — the inputs of ``cpu_utilization()`` — so it is
        computed once per window.
        """
        runtime = instance.runtime
        metrics = instance.metrics
        now = runtime.now
        blocked = runtime.blocked_goroutines_count
        if metrics:
            last = metrics[-1]
            requests_window = last.requests_served
            if last.t == now and last.blocked_goroutines == blocked:
                cpu_percent = last.cpu_percent
            else:
                cpu_percent = instance.cpu_utilization()
        else:
            requests_window = 0
            cpu_percent = instance.cpu_utilization()
        _ROW.pack_into(
            self._shm.buf, slot * ROW_BYTES,
            shard, window,
            now, cpu_percent, instance.rss(),
            blocked, runtime.num_goroutines,
            requests_window,
            instance.requests_served, runtime.steps, len(metrics),
            *runtime.census_counts,
        )

    def read(self, slot: int) -> InstanceStats:
        return stats_from_row(self.read_row(slot))

    def read_row(self, slot: int) -> Tuple:
        """One raw unpacked row — the per-row read.

        Copies the row out of shared memory *now*; turning it into an
        :class:`InstanceStats` (``stats_from_row``) can happen lazily,
        after the worker has moved on, without racing it.
        """
        return _ROW.unpack_from(self._shm.buf, slot * ROW_BYTES)

    def read_bytes(self, count: int) -> bytes:
        """All ``count`` rows in one grab — the vectorized sweep read.

        A single ``bytes()`` copy of the whole region, so late (lazy)
        consumption can never race a worker's next write.  Deliberately
        *not* unpacked: tuple construction for ~20 fields × 10k rows is
        what made per-row reads slow in the first place.  Consumers
        slice rows or cast columns out of the copy on demand.
        """
        return bytes(self._shm.buf[: count * ROW_BYTES])

    def close(self) -> None:
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):
                pass


def raw_from_stats(stats: InstanceStats, shard: int, window: int) -> bytes:
    """Pack inline wire stats into raw row bytes.

    Keeps the parent's :class:`RowCache` uniform — a row is raw bytes
    whether it came off the plane or rode the wire (async windows, the
    no-shm fallback).
    """
    return _ROW.pack(*row_from_stats(stats, shard, window))


def stats_from_raw(raw: bytes) -> InstanceStats:
    """Materialize raw row bytes into an :class:`InstanceStats`."""
    return stats_from_row(_ROW.unpack(raw))


def row_window(raw: bytes) -> int:
    """The window watermark stamped in a raw row (field ``F_WINDOW``)."""
    return _HEAD.unpack_from(raw)[F_WINDOW]


def row_head(raw: bytes) -> Tuple:
    """The leading fields of a raw row: indices ``F_SHARD..F_GOROUTINES``."""
    return _HEAD.unpack_from(raw)


class RowCache:
    """The parent's latest-row store, published wholesale per sweep.

    Instead of fanning a sweep out into per-slot tuple writes, the sweep
    publishes *one* validated buffer (plus a sparse override map for
    rows whose truth did not come off the plane this window: wire-fed
    stats, and stale slots that keep their previous copy).  Consumers —
    materialized :class:`~repro.snapshot.delta.InstanceView`\\ s, the
    instance mirrors, per-service sampling — read through lazily, keyed
    by the ``epoch`` counter that bumps once per publication.

    ``overrides`` maps slot → raw row bytes; an empty-bytes value means
    "no data for this slot" (shadows a stale plane row that has nothing
    older to fall back to).  ``view_skip`` lists slots whose view was
    already fed *newer* truth inline during ingest (wire stats), so the
    lazy view refresh must not clobber it with this epoch's row.
    """

    __slots__ = (
        "buf", "window", "epoch", "overrides", "view_skip",
        "_prev_buf", "_prev_over", "_cols", "_cols_epoch",
    )

    def __init__(self) -> None:
        self.buf = b""
        self.window = -1
        self.epoch = 0
        self.overrides: Dict[int, bytes] = {}
        self.view_skip: set = set()
        self._prev_buf = b""
        self._prev_over: Dict[int, bytes] = {}
        self._cols: Optional[Tuple[list, ...]] = None
        self._cols_epoch = -1

    def begin(self) -> None:
        """Open a sweep: current state becomes the stale-keep fallback."""
        self._prev_buf = self.buf
        self._prev_over = self.overrides
        self.overrides = {}
        self.view_skip = set()

    def prev_raw(self, slot: int) -> Optional[bytes]:
        """The slot's row as of the previous epoch (during a sweep)."""
        raw = self._prev_over.get(slot)
        if raw is not None:
            return raw or None
        off = slot * ROW_BYTES
        end = off + ROW_BYTES
        if end <= len(self._prev_buf):
            return self._prev_buf[off:end]
        return None

    def finalize(self, buf: bytes, window: int, invalid: Iterable[int]) -> None:
        """Publish a sweep: ``buf`` becomes truth except ``invalid`` slots.

        Invalid slots (stale watermark, wrong shard, unattached worker,
        no plane at all) inherit their previous row unless ingest
        already overrode them with wire truth this sweep.
        """
        overrides = self.overrides
        for slot in invalid:
            if slot not in overrides:
                overrides[slot] = self.prev_raw(slot) or b""
        self.buf = buf
        self.window = window
        self.epoch += 1
        self._prev_buf = b""
        self._prev_over = {}

    def raw(self, slot: int) -> Optional[bytes]:
        """The slot's current raw row (None when nothing is known yet)."""
        raw = self.overrides.get(slot)
        if raw is not None:
            return raw or None
        off = slot * ROW_BYTES
        end = off + ROW_BYTES
        if end <= len(self.buf):
            return self.buf[off:end]
        return None

    def view_raw(self, slot: int) -> Optional[bytes]:
        """Like :meth:`raw`, but None for slots whose view holds newer
        wire truth than this epoch's row."""
        if slot in self.view_skip:
            return None
        return self.raw(slot)

    def sample_columns(self, count: int) -> Tuple[list, ...]:
        """``(t, cpu, rss, blocked, goroutines)`` columns, one value per
        slot — the per-service sample aggregation reads slices of these.

        Built once per epoch with zero-copy ``memoryview`` casts and
        C-level strided ``tolist`` extraction, then patched with the
        (typically sparse) overrides.
        """
        if self._cols_epoch == self.epoch and self._cols is not None:
            return self._cols
        buf = self.buf
        if len(buf) >= count * ROW_BYTES:
            region = memoryview(buf)[: count * ROW_BYTES]
            as_q = region.cast("q")
            as_d = region.cast("d")
            cols = (
                as_d[F_T::NUM_FIELDS].tolist(),
                as_d[F_CPU::NUM_FIELDS].tolist(),
                as_q[F_RSS::NUM_FIELDS].tolist(),
                as_q[F_BLOCKED::NUM_FIELDS].tolist(),
                as_q[F_GOROUTINES::NUM_FIELDS].tolist(),
            )
        else:
            cols = ([0.0] * count, [0.0] * count,
                    [0] * count, [0] * count, [0] * count)
        for slot, raw in self.overrides.items():
            if not raw or slot >= count:
                continue
            head = _HEAD.unpack_from(raw)
            for col, field in zip(cols, _SAMPLE_FIELDS):
                col[slot] = head[field]
        self._cols = cols
        self._cols_epoch = self.epoch
        return cols


_SAMPLE_FIELDS = (F_T, F_CPU, F_RSS, F_BLOCKED, F_GOROUTINES)


def sweep_plane(
    plane: StatPlane,
    count: int,
    cache: RowCache,
    window: int,
    shard_col: array,
    attached: Sequence[bool],
) -> int:
    """One vectorized stat sweep: validate the plane, publish to cache.

    Grabs the whole region in one copy, then checks every row's
    ``(shard, window)`` watermark with two C-level column compares — an
    ``array('q')`` overlay of the buffer sliced with stride
    ``NUM_FIELDS`` *is* the shard (resp. window) column.  On the fast
    path (every row stamped by the right worker at the expected window,
    all workers attached) no per-slot Python work happens at all; only
    when a compare fails does a scalar pass mark the stale slots, which
    then keep their previous rows.  Call :meth:`RowCache.begin` first.
    Returns the number of invalid slots.
    """
    buf = plane.read_bytes(count)
    overlay = array("q")
    overlay.frombytes(buf)
    windows = overlay[F_WINDOW::NUM_FIELDS]
    shards = overlay[F_SHARD::NUM_FIELDS]
    invalid: Sequence[int] = ()
    if not (
        all(attached)
        and windows == array("q", [window]) * count
        and shards == shard_col
    ):
        wins = windows.tolist()
        rows_shard = shards.tolist()
        expect = shard_col.tolist()
        invalid = [
            slot for slot in range(count)
            if wins[slot] != window
            or rows_shard[slot] != expect[slot]
            or not attached[expect[slot]]
        ]
    cache.finalize(buf, window, invalid)
    return len(invalid)
