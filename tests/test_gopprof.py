"""The real Go ``pprof -goroutine debug=2`` dialect (repro.profiling.gopprof).

Golden fixtures under ``tests/fixtures/gopprof/`` are hand-written but
*genuine-shaped* ``debug=2`` output spanning Go 1.19 (bare ``created
by``), 1.21 (``in goroutine N`` trailers, sync.* wait reasons, elided
frames), and 1.22 (modern select stacks, ``locked to thread``).  The
assertions pin every field ``LeakProf.scan_profile`` consumes: state,
blocking location (first user frame), counts per (state, location),
wait age, nil-channel detail, and creation context.
"""

import pathlib
import random

import pytest

from repro.leakprof import scan_profile
from repro.leakprof.detector import Suspect  # noqa: F401  (re-export check)
from repro.profiling import (
    DIALECT_GO,
    DIALECT_SIMULATOR,
    GoPprofParseError,
    GoroutineProfile,
    dump_go_debug2,
    dump_profile,
    dump_text,
    parse_go_debug2,
    parse_profile,
    parse_text,
    sniff_dialect,
)
from repro.patterns import timeout_leak
from repro.runtime import Runtime
from repro.runtime.goroutine import GoroutineState

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "gopprof"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def simulator_text() -> str:
    """A simulator-dialect dump of a runtime holding a timeout leak."""
    rt = Runtime(seed=7, name="i-0")
    for _ in range(4):
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
    return dump_text(GoroutineProfile.take(rt, service="s", instance="i"))


class TestGo119Fixture:
    def test_parses_all_stanzas(self):
        profile = parse_go_debug2(fixture("go1.19_chan_send_leak.txt"))
        assert len(profile) == 6
        assert [r.gid for r in profile.records] == [1, 18, 19, 20, 21, 35]

    def test_chan_send_group_is_the_leak_signal(self):
        profile = parse_go_debug2(fixture("go1.19_chan_send_leak.txt"))
        groups = profile.group_by_location()
        assert groups[("chan send", "/srv/transactions/cost.go:8")] == 4
        assert groups[("chan receive", "/srv/transactions/aggregate.go:57")] == 1

    def test_wait_minutes_become_seconds(self):
        profile = parse_go_debug2(fixture("go1.19_chan_send_leak.txt"))
        by_gid = {r.gid: r for r in profile.records}
        assert by_gid[18].wait_seconds == 121 * 60.0
        assert by_gid[21].wait_seconds == 98 * 60.0
        assert by_gid[1].wait_seconds == 0.0

    def test_runtime_frames_stripped_user_stack_kept(self):
        profile = parse_go_debug2(fixture("go1.19_chan_send_leak.txt"))
        record = next(r for r in profile.records if r.gid == 18)
        assert record.blocking_function == "server.ComputeCost.func1"
        assert all(
            not f.function.startswith("runtime.") for f in record.user_frames
        )
        # the receive stack keeps its two-deep user chain
        record = next(r for r in profile.records if r.gid == 35)
        assert [f.function for f in record.user_frames] == [
            "server.collectResults",
            "server.HandleBatch",
        ]

    def test_go119_bare_created_by(self):
        profile = parse_go_debug2(fixture("go1.19_chan_send_leak.txt"))
        record = next(r for r in profile.records if r.gid == 18)
        assert record.creation_ctx.function == "server.ComputeCost"
        assert record.creation_ctx.location == "/srv/transactions/cost.go:6"

    def test_scan_profile_works_unchanged(self):
        profile = parse_go_debug2(
            fixture("go1.19_chan_send_leak.txt"), service="transactions"
        )
        suspects = scan_profile(profile, threshold=3)
        assert len(suspects) == 1
        suspect = suspects[0]
        assert suspect.state == "chan send"
        assert suspect.location == "/srv/transactions/cost.go:8"
        assert suspect.count == 4
        assert suspect.service == "transactions"


class TestGo121Fixture:
    def test_wait_state_mapping(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        states = {r.gid: r.state for r in profile.records}
        assert states[1] == GoroutineState.SEMACQUIRE  # WaitGroup.Wait
        assert states[22] == GoroutineState.SEMACQUIRE  # Mutex.Lock
        assert states[23] == GoroutineState.IO_WAIT
        assert states[24] == GoroutineState.SLEEPING
        assert states[25] == GoroutineState.SEMACQUIRE
        assert states[26] == GoroutineState.BLOCKED_SEND  # nil chan
        assert states[4] == GoroutineState.IO_WAIT  # unknown reason fallback

    def test_nil_chan_detail(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        record = next(r for r in profile.records if r.gid == 26)
        assert record.wait_detail == "nil"
        assert record.blocking_location == "/opt/pipeline/publish.go:27"

    def test_in_goroutine_trailer_stripped(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        record = next(r for r in profile.records if r.gid == 22)
        assert record.creation_ctx.function == "main.(*Pipeline).Start"
        assert record.creation_ctx.line == 37

    def test_elided_frames_skipped(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        record = next(r for r in profile.records if r.gid == 25)
        assert [f.function for f in record.user_frames] == [
            "main.(*Pool).acquire",
            "main.(*Pool).Do",
        ]
        assert record.creation_ctx is not None

    def test_method_receiver_names_survive_arg_stripping(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        record = next(r for r in profile.records if r.gid == 22)
        assert record.blocking_function == "main.(*Registry).Get"

    def test_pure_runtime_stack_has_no_user_frames(self):
        profile = parse_go_debug2(fixture("go1.21_wait_states.txt"))
        record = next(r for r in profile.records if r.gid == 4)
        assert record.user_frames == ()
        assert record.blocking_location is None
        # and therefore can never become a suspect
        assert scan_profile(profile, threshold=1) == [
            s for s in scan_profile(profile, threshold=1)
            if s.location != ""
        ]


class TestGo122Fixture:
    def test_select_leak_grouping(self):
        profile = parse_go_debug2(
            fixture("go1.22_select_timeout_leak.txt"), service="checkout"
        )
        groups = profile.group_by_location()
        assert groups[("select", "/srv/checkout/quote.go:73")] == 4

    def test_locked_to_thread_annotation_ignored(self):
        profile = parse_go_debug2(fixture("go1.22_select_timeout_leak.txt"))
        record = next(r for r in profile.records if r.gid == 60)
        assert record.state == GoroutineState.BLOCKED_RECV
        assert record.wait_seconds == 120.0

    def test_scan_finds_the_select_leak(self):
        profile = parse_go_debug2(
            fixture("go1.22_select_timeout_leak.txt"), service="checkout"
        )
        suspects = scan_profile(profile, threshold=3)
        assert [(s.state, s.location, s.count) for s in suspects] == [
            ("select", "/srv/checkout/quote.go:73", 4)
        ]


class TestRoundTrip:
    """dump_go_debug2 → parse_go_debug2 preserves the detector fields."""

    @pytest.mark.parametrize(
        "name",
        [
            "go1.19_chan_send_leak.txt",
            "go1.21_wait_states.txt",
            "go1.22_select_timeout_leak.txt",
        ],
    )
    def test_fixture_round_trip(self, name):
        original = parse_go_debug2(fixture(name))
        reparsed = parse_go_debug2(dump_go_debug2(original))
        assert len(reparsed) == len(original)
        for a, b in zip(original.records, reparsed.records):
            assert a.gid == b.gid
            assert a.state == b.state
            assert a.user_frames == b.user_frames
            assert a.blocking_location == b.blocking_location
            # minute-granular ages survive exactly
            assert a.wait_seconds == b.wait_seconds
            assert a.wait_detail == b.wait_detail

    def test_simulated_runtime_exports_as_go_profile(self):
        """A simulated leak serialized as debug=2 scans identically."""
        rt = Runtime(seed=7, name="i-0")
        for _ in range(6):
            rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        native = GoroutineProfile.take(rt, service="payments", instance="i-0")
        go_profile = parse_go_debug2(
            dump_go_debug2(native), service="payments", instance="i-0"
        )
        native_suspects = scan_profile(native, threshold=3)
        go_suspects = scan_profile(go_profile, threshold=3)
        assert [(s.state, s.location, s.count) for s in go_suspects] == [
            (s.state, s.location, s.count) for s in native_suspects
        ]

    def test_simulator_dialect_round_trip_unchanged(self):
        """The pre-existing simulator dialect still round-trips exactly."""
        rt = Runtime(seed=7, name="i-0")
        for _ in range(4):
            rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        profile = GoroutineProfile.take(rt, service="s", instance="i")
        assert parse_text(dump_text(profile)).records == profile.records


class TestDialectNegotiation:
    def test_sniff_go(self):
        assert sniff_dialect(fixture("go1.19_chan_send_leak.txt")) == DIALECT_GO

    def test_sniff_simulator(self):
        rt = Runtime(seed=0, name="x")
        text = dump_text(GoroutineProfile.take(rt))
        assert sniff_dialect(text) == DIALECT_SIMULATOR

    def test_sniff_garbage_raises(self):
        with pytest.raises(ValueError):
            sniff_dialect("this is not a profile\n")

    def test_parse_profile_auto(self):
        profile, dialect = parse_profile(
            fixture("go1.22_select_timeout_leak.txt"),
            service="checkout",
            instance="i-3",
        )
        assert dialect == DIALECT_GO
        assert profile.service == "checkout"
        assert profile.instance == "i-3"

    def test_parse_profile_simulator_metadata_override(self):
        rt = Runtime(seed=0, name="x")
        text = dump_text(GoroutineProfile.take(rt, service="spoofed"))
        profile, dialect = parse_profile(text, service="actual")
        assert dialect == DIALECT_SIMULATOR
        assert profile.service == "actual"


class TestMalformedInput:
    def test_truncated_stanza_rejected(self):
        with pytest.raises(GoPprofParseError, match="without a location"):
            parse_go_debug2(fixture("malformed_truncated.txt"))

    def test_empty_input_rejected(self):
        with pytest.raises(GoPprofParseError, match="empty"):
            parse_go_debug2("\n\n")

    def test_bad_stanza_header_rejected(self):
        with pytest.raises(GoPprofParseError, match="bad goroutine stanza"):
            parse_go_debug2("goroutine forty-two [running]:\nmain.main()\n\tx.go:1\n")

    def test_bad_location_line_rejected(self):
        text = "goroutine 1 [running]:\nmain.main()\nno-tab-here\n"
        with pytest.raises(GoPprofParseError, match="bad location"):
            parse_go_debug2(text)


_SIMULATOR_HEADER = "goroutine profile: total 1  process=p time=0.0\n"

#: Simulator-dialect bodies that once escaped as IndexError / KeyError.
SIMULATOR_MALFORMED = {
    "frame without location": (
        "goroutine 2 [chan send] name=x:\nruntime.gopark()\n",
        "goroutine 2: frame 'runtime.gopark()' without a location line",
    ),
    "created-by without location": (
        "goroutine 2 [chan send] name=x:\ncreated by leaky\n",
        "goroutine 2: created-by line without a location",
    ),
    "unknown state": (
        "goroutine 2 [IO wait] name=x:\nmain.f()\n\tmain.go:3\n",
        "goroutine 2: unknown state 'IO wait'",
    ),
}


class TestSimulatorMalformedInput:
    @pytest.mark.parametrize("case", sorted(SIMULATOR_MALFORMED))
    def test_rejected_with_value_error_naming_the_goroutine(self, case):
        body, message = SIMULATOR_MALFORMED[case]
        with pytest.raises(ValueError) as err:
            parse_profile(_SIMULATOR_HEADER + body)
        assert type(err.value) is ValueError
        assert str(err.value) == message


# -- seeded line mutants (Addition / Deletion / Substitution) ----------------


def _addition(lines, rng, donors):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(donors))


def _deletion(lines, rng, donors):
    if lines:
        del lines[rng.randrange(len(lines))]


def _substitution(lines, rng, donors):
    if lines:
        lines[rng.randrange(len(lines))] = rng.choice(donors)


MUTATIONS = (_addition, _deletion, _substitution)


def mutants(text, donors, seed, count):
    """``count`` seeded mutants of ``text``, one to three line edits each.

    Donor lines come from every source, so Go lines land in simulator
    bodies and the reverse, and blank lines split stanzas.
    """
    rng = random.Random(seed)
    base = text.splitlines()
    for _ in range(count):
        lines = list(base)
        for _ in range(rng.randint(1, 3)):
            rng.choice(MUTATIONS)(lines, rng, donors)
        yield "\n".join(lines) + "\n"


GO_SOURCES = (
    "go1.19_chan_send_leak.txt",
    "go1.21_wait_states.txt",
    "go1.22_select_timeout_leak.txt",
    "malformed_truncated.txt",
)
MUTANTS_PER_SOURCE = 150


def _assert_frames_shared(profile):
    """Equal frames within one parsed profile are one object."""
    seen = {}
    for record in profile.records:
        frames = record.user_frames + (
            (record.creation_ctx,) if record.creation_ctx else ()
        )
        for frame in frames:
            assert seen.setdefault(frame, frame) is frame


def _parse_or_none(parse, error, text):
    """``parse(text)``, or None if it raised ``error``; any other
    exception type fails the test."""
    try:
        return parse(text)
    except error:
        return None


class TestParserMutants:
    """Any line-mutated body is parsed or rejected with a ValueError."""

    def _sources(self):
        sources = [(fixture(name), parse_go_debug2, GoPprofParseError)
                   for name in GO_SOURCES]
        sources.append((simulator_text(), parse_text, ValueError))
        return sources

    def test_parse_returns_or_raises_value_error(self):
        sources = self._sources()
        donors = sorted(
            {line for text, _, _ in sources for line in text.splitlines()}
        )
        accepted = rejected = 0
        for seed, (text, parse, error) in enumerate(sources):
            for body in mutants(text, donors, seed, MUTANTS_PER_SOURCE):
                profile = _parse_or_none(parse, error, body)
                if profile is None:
                    rejected += 1
                else:
                    accepted += 1
                    _assert_frames_shared(profile)
                self._check_negotiated(body)
        assert accepted > 50 and rejected > 50

    def _check_negotiated(self, body):
        """``parse_profile`` agrees with ``sniff_dialect`` on every body,
        and what it accepts round-trips through dump and parse."""
        try:
            sniffed = sniff_dialect(body)
        except ValueError as err:
            with pytest.raises(ValueError, match="unrecognized") as again:
                parse_profile(body)
            assert str(again.value) == str(err)
            return
        parsed = _parse_or_none(parse_profile, ValueError, body)
        if parsed is None:
            return
        profile, dialect = parsed
        assert dialect == sniffed
        again, _ = parse_profile(
            dump_profile(profile, dialect), dialect=dialect
        )
        assert again.records == profile.records
        _assert_frames_shared(again)

    def test_goroutines_parked_at_one_site_share_frame_objects(self):
        """Goroutines parked at one site hold the same frame objects, even
        when their printed pointer arguments differ."""
        stanza = (
            "goroutine {gid} [chan send, 3 minutes]:\n"
            "runtime.gopark(0x{gid:x}?)\n"
            "\t/usr/local/go/src/runtime/proc.go:398 +0xce\n"
            "main.worker(0xc{gid:06x})\n"
            "\t/app/worker.go:42 +0x45\n"
            "created by main.start in goroutine 1\n"
            "\t/app/worker.go:30 +0x9e\n"
        )
        text = "\n".join(stanza.format(gid=gid) for gid in range(2, 12))
        first, *rest = parse_go_debug2(text).records
        for record in rest:
            assert record.user_frames[0] is first.user_frames[0]
            assert record.creation_ctx is first.creation_ctx
