"""The repository benchmark: four workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_quiet --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``fleet_quiet``, ``fleet_leaky``, ``ci_gate``,
``ingest_http``.  ``--seed`` generates every input.  ``--seconds`` sets
the run length: each workload turns it into a fixed amount of work
(windows, packages, uploads) sized to take about that long on a 2-CPU
host, so two versions of the program always do identical work.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice at half length, untraced then traced, and reports the
per-layer metrics, the tracing overhead and the share of CPU that no
layer's self time covers.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fleet_quiet", "fleet_leaky", "ci_gate", "ingest_http")

#: End-to-end metrics (``--trace 0``): name -> unit.
METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "query_ms_p50": "ms",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
LAYER_METRICS = {
    "runtime.run.calls": "count",
    "runtime.run.busy_us": "us",
    "runtime.advance.calls": "count",
    "runtime.advance.busy_us": "us",
    "runtime.steps": "count",
    "fleet.advance_window.calls": "count",
    "fleet.advance_window.self_us": "us",
    "fleet.shm.write_instance.busy_us": "us",
    "fleet.shm.sweep.busy_us": "us",
    "snapshot.delta.collect.busy_us": "us",
    "snapshot.delta.records_shipped": "count",
    "ipc.send.busy_us": "us",
    "ipc.recv.busy_us": "us",
    "fleet.shard.wire_bytes": "bytes",
    "fleet.shard.reply_wait_us": "us",
    "snapshot.delta.apply.busy_us": "us",
    "leakprof.streaming.on_record.busy_us": "us",
    "leakprof.streaming.suspects.busy_us": "us",
    "snapshot.view.snapshot.busy_us": "us",
    "leakprof.daily_run.calls": "count",
    "leakprof.sweep.busy_us": "us",
    "leakprof.scan_fleet.busy_us": "us",
    "leakprof.goroutines_swept": "count",
    "gc.sweep.calls": "count",
    "gc.sweep.busy_us": "us",
    "gc.proven_ratio": "ratio",
    "goleak.find.busy_us": "us",
    "goleak.retries": "count",
    "goleak.snapshot_runtime.busy_us": "us",
    "ingest.request.calls": "count",
    "ingest.request.self_us": "us",
    "ingest.parse.busy_us": "us",
    "ingest.store.busy_us": "us",
    "ingest.rejected": "count",
    "ingest.scan.archive_parse_us": "us",
    "ingest.scan.leakprof_us": "us",
    "ingest.scan.diagnose_us": "us",
    "ingest.open_loop.upload_ms_p50": "ms",
    "ingest.open_loop.upload_ms_p99": "ms",
    "ingest.generator.lag_ms_p99": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_cpu_pct": "%",
    "trace.spans": "count",
}

#: Per-layer metric -> (span layer, field) read from ``tracing.summarize``.
_SPAN_FIELDS = {
    "runtime.run.calls": ("runtime.run", "calls"),
    "runtime.run.busy_us": ("runtime.run", "busy_us"),
    "runtime.advance.calls": ("runtime.advance", "calls"),
    "runtime.advance.busy_us": ("runtime.advance", "busy_us"),
    "fleet.advance_window.calls": ("fleet.advance_window", "calls"),
    "fleet.advance_window.self_us": ("fleet.advance_window", "busy_us"),
    "fleet.shm.write_instance.busy_us": ("fleet.shm.write_instance", "busy_us"),
    "fleet.shm.sweep.busy_us": ("fleet.shm.sweep", "busy_us"),
    "snapshot.delta.collect.busy_us": ("snapshot.delta.collect", "busy_us"),
    "ipc.send.busy_us": ("ipc.send", "busy_us"),
    "ipc.recv.busy_us": ("ipc.recv", "busy_us"),
    "fleet.shard.reply_wait_us": ("fleet.shard.reply_wait", "busy_us"),
    "snapshot.delta.apply.busy_us": ("snapshot.delta.apply", "busy_us"),
    "leakprof.streaming.on_record.busy_us": ("leakprof.streaming.on_record", "busy_us"),
    "leakprof.streaming.suspects.busy_us": ("leakprof.streaming.suspects", "busy_us"),
    "snapshot.view.snapshot.busy_us": ("snapshot.view.snapshot", "busy_us"),
    "leakprof.daily_run.calls": ("leakprof.daily_run", "calls"),
    "leakprof.sweep.busy_us": ("leakprof.sweep", "busy_us"),
    "leakprof.scan_fleet.busy_us": ("leakprof.scan_fleet", "busy_us"),
    "gc.sweep.calls": ("gc.sweep", "calls"),
    "gc.sweep.busy_us": ("gc.sweep", "busy_us"),
    "goleak.find.busy_us": ("goleak.find", "busy_us"),
    "goleak.retries": ("runtime.advance", "retries"),
    "goleak.snapshot_runtime.busy_us": ("goleak.snapshot_runtime", "busy_us"),
    "ingest.request.calls": ("ingest.request", "calls"),
    "ingest.request.self_us": ("ingest.request", "busy_us"),
    "ingest.parse.busy_us": ("ingest.parse", "busy_us"),
    "ingest.store.busy_us": ("ingest.store", "busy_us"),
    "ingest.scan.archive_parse_us": ("ingest.scan.archive_parse", "busy_us"),
    "ingest.scan.diagnose_us": ("ingest.scan.diagnose", "busy_us"),
}


def run_workload(name: str, seed: int, seconds: float, trace_dir=None):
    """One pass of ``name``; with ``trace_dir``, spans are recorded."""
    import tracing

    tracer = None
    if trace_dir is not None:
        tracer = tracing.Tracer(trace_dir, role="bench")
    if name == "ingest_http":
        import ingest_http

        return ingest_http.run(seed, seconds, trace_dir), tracer
    if tracer is not None:
        tracing.install_runtime(tracer)
        tracing.install_gc(tracer)
    if name == "ci_gate":
        import ci_gate

        if tracer is not None:
            tracing.install_goleak(tracer)
        return ci_gate.run(seed, seconds, tracer), tracer
    import fleet_workloads

    if tracer is not None:
        tracing.install_fleet(tracer)
        tracing.install_leakprof(tracer)
        tracing.install_worker_hook(tracer)
    return fleet_workloads.run(fleet_workloads.SHAPES[name], seed, seconds, tracer), tracer


def layer_metrics(base, traced, trace_dir: str) -> dict:
    """Per-layer metrics from the traced pass's span files."""
    import tracing

    dumps = tracing.load(trace_dir)
    layers = tracing.summarize(dumps)
    counts = tracing.counts(dumps)
    values = {}
    for metric, (layer, field) in _SPAN_FIELDS.items():
        values[metric] = float(layers.get(layer, {}).get(field, 0.0))
    # the daemon's LeakProf pass, inclusive of the scan it runs
    daemon = tracing.summarize([d for d in dumps if d["role"] == "daemon"])
    values["ingest.scan.leakprof_us"] = float(
        daemon.get("leakprof.analyze_profiles", {}).get("total_us", 0.0)
    )
    values["runtime.steps"] = float(counts.get("runtime.steps", 0))
    values["snapshot.delta.records_shipped"] = float(
        counts.get("snapshot.delta.records_shipped", 0)
    )
    values["leakprof.goroutines_swept"] = float(
        counts.get("leakprof.goroutines_swept", 0)
    )
    parked = counts.get("gc.parked", 0)
    values["gc.proven_ratio"] = counts.get("gc.proven", 0) / parked if parked else 0.0
    values["fleet.shard.wire_bytes"] = float(traced.notes.get("wire_bytes", 0))
    values["ingest.rejected"] = float(traced.notes.get("rejected", 0))
    for metric, note in (
        ("ingest.open_loop.upload_ms_p50", "open_loop_upload_ms_p50"),
        ("ingest.open_loop.upload_ms_p99", "open_loop_upload_ms_p99"),
        ("ingest.generator.lag_ms_p99", "generator_lag_ms_p99"),
    ):
        values[metric] = float(traced.notes.get(note, 0.0))
    base_cost = base.cpu_s / base.ops
    traced_cost = traced.cpu_s / traced.ops
    values["trace.overhead_pct"] = (traced_cost / base_cost - 1.0) * 100.0
    # CPU attribution covers the phase whose CPU was measured
    clipped = [dict(d, spans=_clip(d["spans"], traced.window_ns)) for d in dumps]
    attributed_s = tracing.attributed_us(tracing.summarize(clipped)) / 1e6
    values["trace.unattributed_cpu_pct"] = (
        (1.0 - attributed_s / traced.cpu_s) * 100.0 if traced.cpu_s else 0.0
    )
    values["trace.spans"] = float(sum(len(d["spans"]) for d in dumps))
    return values


def _clip(spans, window):
    """Keep the spans that started inside the measured phase.

    Parent indexes are remapped; a span whose parent was dropped
    becomes a root.
    """
    start, end = window
    keep = {}
    clipped = []
    for index, span in enumerate(spans):
        if start <= span[1] <= end:
            keep[index] = len(clipped)
            parent = keep.get(span[3], -1) if span[3] >= 0 else -1
            clipped.append([span[0], span[1], span[2], parent, span[4]])
    return clipped


def _report(name, seed, seconds, trace, env, outcomes, metrics, units) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} "
          f"trace={trace} env={json.dumps(env, sort_keys=True)}")
    for label, outcome in outcomes:
        print(f"  [{label}] notes: {json.dumps(outcome.notes, sort_keys=True)}")
        for error in outcome.errors:
            print(f"  [{label}] FAILED: {error}")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:16.4f} {units[metric]}")


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU.

    Fleet workers and the ingest daemon inherit the affinity, so the
    calibration kernel (``calibrate.py``) runs on the CPU that does the
    program's work and measures that CPU's current speed.  The fleet's
    lockstep windows and the GIL-bound daemon use one CPU at a time
    anyway.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]

    from common import environment

    env = environment()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    env["pinned_cpu"] = pin_to_one_cpu()
    if args.trace == 0:
        outcome, _ = run_workload(args.workload, args.seed, args.seconds)
        outcomes = [("run", outcome)]
        metrics, units = outcome.metrics, METRICS
    else:
        half = args.seconds / 2.0
        base, _ = run_workload(args.workload, args.seed, half)
        trace_dir = os.path.join(WORK, "spans")
        os.makedirs(trace_dir)
        traced, tracer = run_workload(args.workload, args.seed, half, trace_dir)
        tracer.flush()
        outcomes = [("untraced", base), ("traced", traced)]
        metrics, units = layer_metrics(base, traced, trace_dir), LAYER_METRICS
    attempted = sum(o.attempted for _label, o in outcomes)
    failed = sum(o.failed for _label, o in outcomes)
    _report(args.workload, args.seed, args.seconds, args.trace, env,
            outcomes, metrics, units)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    try:
        code = main()
    finally:
        if HERE in sys.path:
            from common import stop_children

            stop_children()
    print(f"perfbench: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
