"""Reference-speed scaling against an interleaved calibration kernel.

Shared hosts change speed under the benchmark: other tenants' load on
the same cores slows every instruction.  On the 2-CPU host this
benchmark was built on, the same fixed work took anywhere from 25 to
45 ms from one minute to the next.  No statistic taken inside one run
removes a slowdown that lasts the whole run.

So the benchmark measures the host's current speed alongside the
program.  Next to each timed operation it runs a fixed pure-Python
kernel and records its wall and CPU time.  The kernel formats a Go-style
goroutine dump and parses it back: string formatting, splitting, int
parsing and dict counting, fresh objects on every run.  It slows with
the host as the program does: between slow and fast periods in trials
it moved the scaled times by 1-4%, where kernels of generator and deque
message passing or of a walk over a prebuilt heap moved them by 11-65%
(``STEADINESS.md``).  Each raw time is then scaled to *reference
speed*::

    reported = raw * REFERENCE_S / kernel_time_nearby

where ``kernel_time_nearby`` is the median of the kernel samples taken
within ``RADIUS_S`` of the operation, before or after it (at least the
``NEARBY`` closest).
One kernel sample is noisy on its own; the median of many is not.  On
an unloaded reference host the factor is about 1, so reported values
read as milliseconds there.  The kernel is benchmark code and never
changes with the program, so a change that makes the program faster or
slower moves the reported values by the same ratio as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Optional, Tuple

#: Kernel wall (and CPU) seconds on the unloaded 2-CPU reference host.
REFERENCE_S = 0.0023
#: Kernel samples within this many seconds of an operation set its
#: scale factor ...
RADIUS_S = 1.0
#: ... and never fewer than this many (the closest in time).
NEARBY = 7


#: Wait states cycled through the kernel's dump text.
_STATES = ("chan receive", "select", "semacquire", "IO wait", "sleep")
#: Goroutines in the kernel's dump text.
_LINES = 400
#: Passes over the dump per kernel run.
_PASSES = 3


def _dump_text() -> str:
    """A Go-style goroutine dump of ``_LINES`` goroutines."""
    return "\n".join(
        "goroutine %d [%s, %d minutes]:\nmain.worker%d(0x%x, 0x%x)\n"
        "\t/src/svc/pkg%d/handler.go:%d +0x%x\n"
        % (i, _STATES[i % len(_STATES)], i % 60, i % 13, i * 31, i * 7,
           i % 17, i % 300, i * 3)
        for i in range(_LINES)
    )


def _parse_text(body: str) -> int:
    """Split the dump into goroutines and count them by state and site."""
    sites = {}
    total = 0
    for block in body.split("\n\n"):
        head, _rest = block.split("\n", 1)
        total += int(head.split()[1])
        state = head[head.index("[") + 1:head.index(",")]
        site = block.rsplit(":", 1)[0].rsplit("/", 1)[-1]
        sites[state, site] = sites.get((state, site), 0) + 1
    return total + len(sites)


def kernel() -> int:
    """Fixed work: format a goroutine dump and parse it back, three times."""
    return sum(_parse_text(_dump_text()) for _ in range(_PASSES))


class Calibration:
    """Kernel samples over a run and the scale factors they imply."""

    def __init__(self) -> None:
        #: (perf_counter at the sample, wall s, CPU s), in time order
        self.samples: List[Tuple[float, float, float]] = []

    def probe(self) -> None:
        """Run the kernel once and record how long it took."""
        cpu = time.process_time()
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.samples.append(
            (ended, ended - started, time.process_time() - cpu)
        )

    def _nearby(self, at: float, until: float) -> List[tuple]:
        if not self.samples:
            raise RuntimeError("no calibration samples")
        stamps = [sample[0] for sample in self.samples]
        low = bisect.bisect_left(stamps, at - RADIUS_S)
        high = bisect.bisect_right(stamps, until + RADIUS_S)
        if high - low >= NEARBY:
            return self.samples[low:high]
        return sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEARBY]

    def wall_factor(self, at: float, until: Optional[float] = None) -> float:
        """Scale for a wall time measured from ``perf_counter`` = ``at``
        (to ``until``, for operations long enough to span probes)."""
        nearby = self._nearby(at, at if until is None else until)
        return REFERENCE_S / statistics.median(s[1] for s in nearby)

    def cpu_factor(self, at: float) -> float:
        """Scale for a CPU time measured at ``perf_counter`` = ``at``."""
        return REFERENCE_S / statistics.median(
            s[2] for s in self._nearby(at, at)
        )

    def speed(self) -> float:
        """Median host speed over the run (1.0 = reference speed)."""
        return REFERENCE_S / statistics.median(s[1] for s in self.samples)
