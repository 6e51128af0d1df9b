"""``ci_gate``: goleak at test time over generated test packages.

Each package is a :class:`repro.goleak.TestTarget` of 20 programs from
the ``repro.fuzz`` generator (a larger ``GenConfig`` than the fuzzer's
default, nesting to depth 3).  A package runs through
``goleak.verify_test_main`` on one runtime, then
``goleak.find(strategy="reachability")`` over the same runtime, all in
this one process.  Every program carries its leak verdict by
construction, so each package's residue is checked exactly.

Generating and compiling the programs is input generation, kept
outside the per-package timers.  ``setup_s`` is the median time to
generate and compile one equal share of the packages, so work moved
from the test run into program lowering still shows.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from typing import List, Tuple

from calibrate import Calibration
from common import (
    Outcome,
    chunk_rates,
    median,
    percentile,
    tree_peak_rss_mb,
)

from repro import fuzz
from repro.goleak import TestTarget, find, verify_test_main
from repro.runtime import Runtime

PROGRAMS_PER_PACKAGE = 20
#: Distinct packages per nominal second of run; each runs ``PASSES``
#: times (a fresh runtime each time), so generation stays a small
#: share of the run.
PACKAGES_PER_SECOND = 8.0
PASSES = 2
#: ``op_ms_tail`` percentile: 12 package runs lie beyond it at 15 s.
TAIL_PCT = 95.0
SETUP_CHUNKS = 10
#: Virtual-second budget per test: every healthy goroutine finishes
#: well inside it (the fuzz executor's own budget).
DEADLINE = fuzz.DEFAULT_DEADLINE
CONFIG = fuzz.GenConfig(
    min_scenarios=2, max_scenarios=6, max_depth=3, nest_probability=0.3,
)


class Package:
    def __init__(self, index: int, seed: int):
        self.target = TestTarget(package=f"pkg{index:04d}")
        #: per leak group: ((file, name) keys, expected count)
        self.groups: List[Tuple[Tuple[Tuple[str, str], ...], int]] = []
        for slot in range(PROGRAMS_PER_PACKAGE):
            program = fuzz.generate(
                seed=(seed * 100_000 + index) * PROGRAMS_PER_PACKAGE + slot,
                config=CONFIG,
            )
            compiled = fuzz.compile_program(program)
            self.target.add(program.name, compiled.main, deadline=DEADLINE)
            for group in program.truth():
                keys = tuple((compiled.filename, name) for name in group.names)
                self.groups.append((keys, group.count))


def _key(record) -> Tuple[str, str]:
    ctx = record.creation_ctx
    return (ctx.file if ctx is not None else "", record.name)


def _check(out: Outcome, package: Package, result, proven) -> None:
    """Residue must equal the oracle; proofs must be a subset of it."""
    residue = Counter(_key(record) for record in result.leaks)
    owned = set()
    exact = not result.test_failures
    for keys, count in package.groups:
        owned.update(keys)
        if sum(residue.get(key, 0) for key in keys) != count:
            exact = False
    if set(residue) - owned:
        exact = False
    out.check(
        exact,
        f"{package.target.package}: residue differs from the oracle "
        f"({len(result.leaks)} lingering, failures {result.test_failures[:1]})",
    )
    residue_ids = {record.gid for record in result.leaks}
    out.check(
        {record.gid for record in proven} <= residue_ids,
        f"{package.target.package}: proven goroutines outside the residue",
    )


def setup(seed: int, chunk: int, cal: Calibration
          ) -> Tuple[List[Package], float]:
    """Generate ``SETUP_CHUNKS`` equal shares of packages, timing each.

    Returns the packages and the median share's time at reference speed.
    """
    built: List[Package] = []
    times = []
    for _ in range(SETUP_CHUNKS):
        cal.probe()
        started = time.perf_counter()
        built.extend(
            Package(i, seed) for i in range(len(built), len(built) + chunk)
        )
        times.append((started, time.perf_counter() - started))
        cal.probe()
    return built, median([t * cal.wall_factor(at) for at, t in times])


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    cal = Calibration()
    chunk = max(2, round(PACKAGES_PER_SECOND * seconds / SETUP_CHUNKS))
    packages, setup_s = setup(seed, chunk, cal)
    #: per package: (start, package s, find s, CPU s)
    raw = []
    gc.collect()
    start_ns = time.perf_counter_ns()
    for index, package in list(enumerate(packages)) * PASSES:
        if tracer is not None:
            tracer.tag = index
        cal.probe()
        cpu_before = time.process_time()
        started = time.perf_counter()
        runtime = Runtime(seed=index, name=f"test:{package.target.package}")
        result = verify_test_main(package.target, runtime=runtime)
        checked = time.perf_counter()
        proven = find(runtime, strategy="reachability")
        done = time.perf_counter()
        raw.append((
            started, done - started, done - checked,
            time.process_time() - cpu_before,
        ))
        _check(out, package, result, proven)
    cal.probe()
    out.window_ns = (start_ns, time.perf_counter_ns())
    out.cpu_s = sum(sample[3] for sample in raw)
    out.ops = len(raw)
    target_ms = [s[1] * cal.wall_factor(s[0]) * 1e3 for s in raw]
    find_ms = [s[2] * cal.wall_factor(s[0]) * 1e3 for s in raw]
    ops_per_s, cpu_per_op = chunk_rates([
        (1, s[1] * cal.wall_factor(s[0]), s[3] * cal.cpu_factor(s[0]))
        for s in raw
    ])
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": tree_peak_rss_mb(),
        "ops_per_s": ops_per_s,
        "cpu_us_per_op": cpu_per_op * 1e6,
        "op_ms_p50": median(target_ms),
        "op_ms_tail": percentile(target_ms, TAIL_PCT),
        "query_ms_p50": median(find_ms),
    }
    out.notes = {
        "op": "package (verify_test_main + find reachability)",
        "query": "find(strategy='reachability')",
        "packages": len(packages),
        "passes": PASSES,
        "programs_per_package": PROGRAMS_PER_PACKAGE,
        "op_samples": len(target_ms),
        "op_tail_pct": TAIL_PCT,
        "query_samples": len(find_ms),
        "host_speed": round(cal.speed(), 3),
        "raw_op_ms_p50": round(median([s[1] * 1e3 for s in raw]), 3),
    }
    return out
