"""Text serialization of goroutine profiles (``pprof -goroutine debug=2`` analog).

LeakProf in the paper fetches profile *files* over the network from every
instance; the fleet simulator does the same with this format, and tests
assert a lossless round-trip for the fields the detector consumes.

Format (one stanza per goroutine)::

    goroutine 7 [chan send, 121s]:
    runtime.gopark()
        runtime/proc.go:0
    runtime.chansend()
        runtime/proc.go:0
    server.ComputeCost$1()
        transactions/cost.go:8
    created by server.ComputeCost
        transactions/cost.go:6

with a header line ``goroutine profile: total N  process=P time=T``.

Like the Go parser (:mod:`.gopprof`), :func:`parse_text` keeps a frame
table for the length of one parse: each distinct ``(function, location
line)`` pair becomes one frozen ``Frame``, shared by every record that
holds it, and the table is dropped when the parse returns (there is no
cross-parse cache).  A stanza with a frame line lacking its location
line, or with an unknown state, raises ``ValueError`` naming its
goroutine.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.runtime.goroutine import GoroutineState
from repro.runtime.stack import Frame

from .profile import GoroutineProfile, GoroutineRecord, runtime_frames_for

_HEADER_RE = re.compile(
    r"^goroutine profile: total (?P<total>\d+)"
    r"\s+process=(?P<process>\S+)\s+time=(?P<time>[\d.eE+-]+)"
    r"(?:\s+service=(?P<service>\S+))?(?:\s+instance=(?P<instance>\S+))?$"
)
_STANZA_RE = re.compile(
    r"^goroutine (?P<gid>\d+) \[(?P<state>[^,\]]+)"
    r"(?:, (?P<wait>[\d.eE+-]+)s)?"
    r"(?:, (?P<detail>[^\]]+))?\]"
    r"(?: name=(?P<name>\S+))?"
    r"(?: proof=(?P<proof>\S+))?:$"
)

_STATE_BY_VALUE = {state.value: state for state in GoroutineState}


def dump_text(profile: GoroutineProfile) -> str:
    """Serialize ``profile`` to the text format above."""
    lines = [
        "goroutine profile: total "
        f"{len(profile.records)}  process={profile.process} "
        f"time={profile.taken_at!r}"
        + (f" service={profile.service}" if profile.service else "")
        + (f" instance={profile.instance}" if profile.instance else "")
    ]
    for record in profile.records:
        header = f"goroutine {record.gid} [{record.state.value}"
        if record.wait_seconds:
            header += f", {record.wait_seconds!r}s"
        if record.wait_detail is not None:
            header += f", {record.wait_detail}"
        header += f"] name={record.name}"
        if record.proof is not None:
            header += f" proof={record.proof}"
        header += ":"
        lines.append(header)
        for frame in record.frames:
            lines.append(f"{frame.function}()")
            lines.append(f"\t{frame.file}:{frame.line}")
        if record.creation_ctx is not None:
            ctx = record.creation_ctx
            lines.append(f"created by {ctx.function}")
            lines.append(f"\t{ctx.file}:{ctx.line}")
        lines.append("")
    return "\n".join(lines)


def _parse_frames(
    gid: str,
    body: List[str],
    frame_table: Dict[object, Frame],
) -> Tuple[Tuple[Frame, ...], Optional[Frame]]:
    frames: List[Frame] = []
    creation: Optional[Frame] = None
    end = len(body)
    i = 0
    while i < end:
        line = body[i]
        created = line.startswith("created by ")
        if i + 1 >= end:
            if created:
                raise ValueError(
                    f"goroutine {gid}: created-by line without a location"
                )
            raise ValueError(
                f"goroutine {gid}: frame {line!r} without a location line"
            )
        if created:
            function = line[len("created by "):]
        else:
            function = line[:-2] if line.endswith("()") else line
        key = (function, body[i + 1])
        frame = frame_table.get(key)
        if frame is None:
            frame = _new_frame(key, frame_table)
        if created:
            creation = frame
        else:
            frames.append(frame)
        i += 2
    return tuple(frames), creation


def _new_frame(
    key: Tuple[str, str], frame_table: Dict[object, Frame]
) -> Frame:
    """Parse the location line of a ``(function, location line)`` key the
    frame table does not hold yet, and enter the frame under it."""
    function, location_line = key
    file, _, lineno = location_line.strip().rpartition(":")
    # Lines that differ only in whitespace name one frame: a second key,
    # by parsed fields, keeps it one object.
    fields = (function, file, int(lineno))
    frame = frame_table[key] = frame_table.setdefault(fields, Frame(*fields))
    return frame


def parse_text(text: str) -> GoroutineProfile:
    """Parse text produced by :func:`dump_text` back into a profile."""
    return parse_lines(text.splitlines())


def parse_lines(lines: List[str]) -> GoroutineProfile:
    """:func:`parse_text` over a body already split into lines."""
    if not lines:
        raise ValueError("empty profile text")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(f"bad profile header: {lines[0]!r}")
    profile = GoroutineProfile(
        taken_at=float(header.group("time")),
        process=header.group("process"),
        service=header.group("service"),
        instance=header.group("instance"),
    )
    # This parse's frame table (module docstring).
    frame_table: Dict[object, Frame] = {}
    end = len(lines)
    i = 1
    while i < end:
        line = lines[i]
        # Blank means ``not line.strip()``, tested without copying the line.
        if not line or line.isspace():
            i += 1
            continue
        stanza = _STANZA_RE.match(line)
        if stanza is None:
            raise ValueError(f"bad goroutine stanza: {line!r}")
        i += 1
        start = i
        while i < end and lines[i] and not lines[i].isspace():
            i += 1
        gid = stanza.group("gid")
        frames, creation = _parse_frames(gid, lines[start:i], frame_table)
        state = _STATE_BY_VALUE.get(stanza.group("state"))
        if state is None:
            raise ValueError(
                f"goroutine {gid}: unknown state {stanza.group('state')!r}"
            )
        # Strip the synthetic runtime frames that dump_text prepended.
        synthetic = len(runtime_frames_for(state))
        profile.records.append(
            GoroutineRecord(
                gid=int(gid),
                name=stanza.group("name") or "?",
                state=state,
                user_frames=frames[synthetic:],
                creation_ctx=creation,
                wait_seconds=float(stanza.group("wait") or 0.0),
                wait_detail=stanza.group("detail"),
                proof=stanza.group("proof"),
            )
        )
    return profile
