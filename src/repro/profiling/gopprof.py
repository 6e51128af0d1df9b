"""Real Go ``pprof -goroutine debug=2`` parsing (the ingestion dialect).

Everything else in :mod:`repro.profiling` speaks the *simulator* dialect:
a headered, name/proof-annotated format this repo invented for its own
round-trips.  LeakProf in the paper consumes what production Go actually
emits — the output of ``curl host/debug/pprof/goroutine?debug=2`` or
``go tool pprof``'s raw view — which looks like::

    goroutine 21 [chan receive, 6 minutes]:
    runtime.gopark(0xc000102000?, 0x0?, 0x20?, 0x8?, 0x28?)
    \t/usr/local/go/src/runtime/proc.go:398 +0xce
    runtime.chanrecv(0xc00007a0e0, 0x0, 0x1)
    \t/usr/local/go/src/runtime/chan.go:583 +0x3cd
    runtime.chanrecv1(0x0?, 0x0?)
    \t/usr/local/go/src/runtime/chan.go:442 +0x12
    main.worker(0xc00007a0e0)
    \t/app/worker.go:42 +0x45
    created by main.start in goroutine 1
    \t/app/worker.go:30 +0x9e

No header line, hex argument lists, tab-indented ``file:line +0xoff``
locations, wait durations in whole *minutes* (only shown past one
minute), ``[sync.WaitGroup.Wait]``-style wait reasons, optional
``in goroutine N`` creator trailers (Go >= 1.21), and
``...additional frames elided...`` markers on deep stacks.

This module maps that onto :class:`~repro.profiling.GoroutineProfile` /
:class:`~repro.profiling.GoroutineRecord` so ``LeakProf.scan_profile``
works unchanged: leading runtime-internal frames are stripped into the
implicit runtime sub-stack (the parser's inverse of the simulator's
synthetic-frame convention) and the first user frame becomes the
blocking location the detector groups on.

:func:`sniff_dialect` / :func:`parse_profile` are the content-negotiation
entry points the ingestion daemon uses: one upload endpoint accepts both
dialects and both land in the same in-memory model.  ``parse_profile``
splits a body into lines once and hands them to both.

Each parse keeps a *frame table*: a dict from ``(function, location
line)`` to the :class:`~repro.runtime.stack.Frame` built for it, with
the function's printed argument list stripped first, so distinct pointer
arguments do not split a key.  A leak is many goroutines parked at the
same frames, so each distinct frame's location regex and ``Frame`` are
built once and the records share the frozen ``Frame`` objects: equal
frames within one parsed profile are one object.  The wait-reason
brackets are memoized the same way.  Both tables are local to the parse
and dropped when it returns; nothing is cached across parses.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.runtime.goroutine import GoroutineState
from repro.runtime.stack import Frame

from .pprof import dump_text as _dump_simulator
from .pprof import parse_lines as _parse_simulator_lines
from .profile import GoroutineProfile, GoroutineRecord

#: Wait reasons Go's runtime prints, mapped to the simulator's states.
#: (``runtime/traceback.go``'s waitReasonStrings, the rows of the paper's
#: Table IV.)  Nil-channel variants keep their state but mark the
#: ``wait_detail`` as ``"nil"`` — the signal §VI-D's guaranteed-deadlock
#: patterns key on.
GO_STATE_MAP = {
    "running": GoroutineState.RUNNING,
    "runnable": GoroutineState.RUNNABLE,
    "chan send": GoroutineState.BLOCKED_SEND,
    "chan send (nil chan)": GoroutineState.BLOCKED_SEND,
    "chan receive": GoroutineState.BLOCKED_RECV,
    "chan receive (nil chan)": GoroutineState.BLOCKED_RECV,
    "select": GoroutineState.BLOCKED_SELECT,
    "select (no cases)": GoroutineState.BLOCKED_SELECT,
    "sleep": GoroutineState.SLEEPING,
    "IO wait": GoroutineState.IO_WAIT,
    "syscall": GoroutineState.SYSCALL,
    "semacquire": GoroutineState.SEMACQUIRE,
    "sync.Mutex.Lock": GoroutineState.SEMACQUIRE,
    "sync.RWMutex.RLock": GoroutineState.SEMACQUIRE,
    "sync.RWMutex.Lock": GoroutineState.SEMACQUIRE,
    "sync.WaitGroup.Wait": GoroutineState.SEMACQUIRE,
    "sync.Cond.Wait": GoroutineState.COND_WAIT,
}

#: Park reasons with no analog state (GC workers, finalizers, ...) are
#: mapped here: externally wakeable, never channel-blocked, so they can
#: neither trigger nor distort leak detection.
FALLBACK_STATE = GoroutineState.IO_WAIT

#: Wait reasons whose brackets mark the operand as a nil channel.
_NIL_CHAN_REASONS = frozenset(
    {"chan send (nil chan)", "chan receive (nil chan)"}
)

#: Leading frames belonging to the Go runtime / standard-library blocking
#: machinery.  They are stripped from the front of each stack; the first
#: frame that survives is the *blocking user frame* LeakProf groups on
#: (Fig 4's "sender function" row).
RUNTIME_FRAME_PREFIXES = (
    "runtime.",
    "sync.runtime_",
    "sync.(*",
    "internal/poll.",
    "internal/runtime/",
    "time.Sleep",
)

_GO_STANZA_RE = re.compile(
    r"^goroutine (?P<gid>\d+)"
    r"(?: gp=0x[0-9a-fA-F]+)?(?: m=(?:nil|\d+))?(?: mp=0x[0-9a-fA-F]+)?"
    r" \[(?P<reason>[^\]]*)\]:\s*$"
)
_GO_LOCATION_RE = re.compile(
    r"^\t(?P<file>.+):(?P<line>\d+)(?: \+0x[0-9a-fA-F]+)?$"
)
_GO_MINUTES_RE = re.compile(r"^(?P<minutes>\d+) minutes?$")
_GO_ELIDED_RE = re.compile(r"^\.\.\..*frames elided\.\.\.$")
_GO_CREATED_RE = re.compile(
    r"^created by (?P<fn>.+?)(?: in goroutine (?P<creator>\d+))?$"
)


class GoPprofParseError(ValueError):
    """Malformed ``debug=2`` input (truncated stanza, bad location line)."""


def _split_reason(reason: str) -> Tuple[str, float, Optional[str]]:
    """``"chan receive, 6 minutes, locked to thread"`` → state parts.

    Returns ``(wait_reason, wait_seconds, detail)``; annotations the
    detector has no use for (``locked to thread`` and friends) are
    dropped, the minute-granular age becomes seconds.
    """
    parts = [part.strip() for part in reason.split(",")]
    state_reason = parts[0]
    wait_seconds = 0.0
    for extra in parts[1:]:
        match = _GO_MINUTES_RE.match(extra)
        if match:
            wait_seconds = float(match.group("minutes")) * 60.0
    detail: Optional[str] = None
    if state_reason in _NIL_CHAN_REASONS:
        detail = "nil"
    elif state_reason in ("chan send", "chan receive"):
        detail = "chan"
    return state_reason, wait_seconds, detail


def _function_of(line: str) -> str:
    """Strip the printed argument list: ``main.(*S).run(0xc0000b2000)``
    → ``main.(*S).run``.  The args open at the *last* ``(`` — method
    receivers put parentheses inside the name itself."""
    if line.endswith(")"):
        idx = line.rfind("(")
        if idx > 0:
            return line[:idx]
    return line


def _is_runtime_frame(function: str) -> bool:
    return function.startswith(RUNTIME_FRAME_PREFIXES)


def parse_go_debug2(
    text: str,
    process: str = "go",
    taken_at: float = 0.0,
    service: Optional[str] = None,
    instance: Optional[str] = None,
) -> GoroutineProfile:
    """Parse real ``debug=2`` output into a :class:`GoroutineProfile`.

    ``process``/``taken_at``/``service``/``instance`` are supplied by the
    caller (upload metadata): unlike the simulator dialect, a real Go
    profile file carries no header identifying its origin.
    """
    return _parse_go_lines(
        text.splitlines(), process, taken_at, service, instance
    )


def _parse_go_lines(
    lines: List[str],
    process: str,
    taken_at: float,
    service: Optional[str],
    instance: Optional[str],
) -> GoroutineProfile:
    profile = GoroutineProfile(
        taken_at=taken_at,
        process=process,
        service=service,
        instance=instance,
    )
    records = profile.records
    # This parse's frame table and wait-reason memo (module docstring).
    frame_table: Dict[object, Frame] = {}
    reasons: Dict[str, Tuple[str, float, Optional[str]]] = {}
    end = len(lines)
    i = 0
    while i < end:
        line = lines[i]
        # Blank means ``not line.strip()``, tested without copying the line.
        if not line or line.isspace():
            i += 1
            continue
        stanza = _GO_STANZA_RE.match(line)
        if stanza is None:
            raise GoPprofParseError(f"bad goroutine stanza: {line!r}")
        i += 1
        start = i
        while i < end and lines[i] and not lines[i].isspace():
            i += 1
        records.append(
            _parse_stanza_body(stanza, lines[start:i], frame_table, reasons)
        )
    if not records:
        raise GoPprofParseError("empty goroutine profile")
    return profile


def _parse_stanza_body(
    stanza,
    body: List[str],
    frame_table: Dict[object, Frame],
    reasons: Dict[str, Tuple[str, float, Optional[str]]],
) -> GoroutineRecord:
    gid = int(stanza.group("gid"))
    bracket = stanza.group("reason")
    split = reasons.get(bracket)
    if split is None:
        split = reasons[bracket] = _split_reason(bracket)
    reason, wait_seconds, detail = split
    state = GO_STATE_MAP.get(reason, FALLBACK_STATE)
    frames: List[Frame] = []
    creation: Optional[Frame] = None
    end = len(body)
    j = 0
    while j < end:
        line = body[j]
        # Both regexes are anchored on a prefix (``...`` / ``created by``):
        # testing its first character skips them on ordinary frame lines
        # without changing a verdict.  Stanza lines are never empty.
        head = line[0]
        if head == "." and _GO_ELIDED_RE.match(line):
            j += 1
            continue
        created = _GO_CREATED_RE.match(line) if head == "c" else None
        if j + 1 >= end:
            if created is not None:
                raise GoPprofParseError(
                    f"goroutine {gid}: created-by line without a location"
                )
            raise GoPprofParseError(
                f"goroutine {gid}: frame {line!r} without a location line"
            )
        # The key holds the function with its argument list stripped, so
        # goroutines parked at one site share one frame even when their
        # pointer arguments differ.
        key = (
            _function_of(line) if created is None else created.group("fn"),
            body[j + 1],
        )
        frame = frame_table.get(key)
        if frame is None:
            frame = _new_frame(key, gid, frame_table)
        if created is None:
            frames.append(frame)
        else:
            creation = frame
        j += 2
    # Leading runtime/stdlib frames become the implicit runtime sub-stack;
    # what survives is the user stack, leaf (blocking site) first.
    first_user = 0
    while first_user < len(frames) and _is_runtime_frame(
        frames[first_user].function
    ):
        first_user += 1
    return GoroutineRecord(
        gid=gid,
        name=f"g{gid}",
        state=state,
        user_frames=tuple(frames[first_user:]),
        creation_ctx=creation,
        wait_seconds=wait_seconds,
        wait_detail=detail,
        proof=None,
    )


def _new_frame(
    key: Tuple[str, str], gid: int, frame_table: Dict[object, Frame]
) -> Frame:
    """Parse the location line of a ``(function, location line)`` key the
    frame table does not hold yet, and enter the frame under it.

    Only well-formed locations are entered, so a bad line raises on every
    goroutine that carries it.
    """
    function, location_line = key
    location = _GO_LOCATION_RE.match(location_line)
    if location is None:
        raise GoPprofParseError(
            f"goroutine {gid}: bad location line {location_line!r}"
        )
    file, line = location.group("file", "line")
    # Lines that differ only in their ``+0x`` offset name one frame: a
    # second key, by parsed fields, keeps it one object.
    fields = (function, file, int(line))
    frame = frame_table[key] = frame_table.setdefault(fields, Frame(*fields))
    return frame


# -- writer (fixture generation and round-trip testing) ----------------------

#: Canonical Go wait reason per simulator state (reverse of GO_STATE_MAP).
_GO_REASON_FOR = {
    GoroutineState.RUNNING: "running",
    GoroutineState.RUNNABLE: "runnable",
    GoroutineState.BLOCKED_SEND: "chan send",
    GoroutineState.BLOCKED_RECV: "chan receive",
    GoroutineState.BLOCKED_SELECT: "select",
    GoroutineState.SLEEPING: "sleep",
    GoroutineState.IO_WAIT: "IO wait",
    GoroutineState.SYSCALL: "syscall",
    GoroutineState.SEMACQUIRE: "semacquire",
    GoroutineState.COND_WAIT: "sync.Cond.Wait",
}


def dump_go_debug2(profile: GoroutineProfile) -> str:
    """Serialize a profile as Go's ``debug=2`` text.

    The emitted stanzas are what a real Go binary would print for the
    same goroutines: full stacks (runtime sub-stack included, so parsing
    strips it back off), minute-granular wait ages, ``(nil chan)``
    operand markers, creator trailers.  Simulator-only metadata (record
    names, gc proofs, the profile header) does not survive — exactly as
    it would not survive a trip through a production pprof endpoint.
    """
    lines: List[str] = []
    for record in profile.records:
        reason = _GO_REASON_FOR.get(record.state, "semacquire")
        if record.wait_detail == "nil" and reason in (
            "chan send",
            "chan receive",
        ):
            reason += " (nil chan)"
        if record.wait_seconds >= 60.0:
            reason += f", {int(record.wait_seconds // 60)} minutes"
        lines.append(f"goroutine {record.gid} [{reason}]:")
        for frame in record.frames:
            lines.append(f"{frame.function}(0x0?)")
            lines.append(f"\t{frame.file}:{frame.line} +0x0")
        if record.creation_ctx is not None:
            ctx = record.creation_ctx
            lines.append(f"created by {ctx.function} in goroutine 1")
            lines.append(f"\t{ctx.file}:{ctx.line} +0x0")
        lines.append("")
    return "\n".join(lines)


# -- content negotiation -----------------------------------------------------

#: Dialect tags, as used in upload Content-Types and the profile archive.
DIALECT_SIMULATOR = "simulator"
DIALECT_GO = "go"


def sniff_dialect(text: str) -> str:
    """Which profile dialect is this text?  Raises ValueError if neither."""
    return _sniff_lines(text.splitlines())


def _sniff_lines(lines: List[str]) -> str:
    for line in lines:
        if not line.strip():
            continue
        if line.startswith("goroutine profile: total "):
            return DIALECT_SIMULATOR
        if _GO_STANZA_RE.match(line):
            return DIALECT_GO
        break
    raise ValueError("unrecognized goroutine-profile dialect")


def parse_profile(
    text: str,
    dialect: str = "auto",
    process: str = "ingest",
    taken_at: float = 0.0,
    service: Optional[str] = None,
    instance: Optional[str] = None,
) -> Tuple[GoroutineProfile, str]:
    """Parse either dialect; returns ``(profile, dialect_used)``.

    The single negotiation point the ingestion daemon calls: explicit
    dialects are honored, ``"auto"`` sniffs.  Simulator profiles carry
    their own header metadata; caller metadata fills the gaps for the
    header-less Go dialect (and overrides service/instance when given,
    so a tenant cannot spoof another's labels from a profile body).
    """
    lines = text.splitlines()
    if dialect == "auto":
        dialect = _sniff_lines(lines)
    if dialect == DIALECT_SIMULATOR:
        profile = _parse_simulator_lines(lines)
        if service is not None:
            profile.service = service
        if instance is not None:
            profile.instance = instance
        return profile, DIALECT_SIMULATOR
    if dialect == DIALECT_GO:
        return (
            _parse_go_lines(lines, process, taken_at, service, instance),
            DIALECT_GO,
        )
    raise ValueError(f"unknown profile dialect {dialect!r}")


def dump_profile(profile: GoroutineProfile, dialect: str) -> str:
    """Serialize in the named dialect (the archive's storage format)."""
    if dialect == DIALECT_SIMULATOR:
        return _dump_simulator(profile)
    if dialect == DIALECT_GO:
        return dump_go_debug2(profile)
    raise ValueError(f"unknown profile dialect {dialect!r}")
