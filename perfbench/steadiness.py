"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads fleet_quiet ci_gate \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 15 [--json OUT]

For every workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  The benchmark's bounds in ``BENCHMARK.json`` are checked
against these spreads.  For comparison it also prints the spread of the
unscaled median operation time and the range of host speeds seen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its result line, plus its notes under "notes"."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("  [run] notes: "):
            result["notes"] = json.loads(line.split("notes: ", 1)[1])
    return result


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        bad = [r for r in runs if not r["correct"]]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds.get(name),
                "values": values,
            }
        raw = [r["notes"]["raw_op_ms_p50"] for r in runs]
        speed = [r["notes"]["host_speed"] for r in runs]
        report[workload] = {
            "incorrect_runs": len(bad), "metrics": rows,
            "raw_op_ms_p50": {"values": raw, "spread": spread(raw)},
            "host_speed": speed,
        }
        print(f"{workload}: {len(runs)} runs, {len(bad)} incorrect; "
              f"unscaled op_ms_p50 spread {spread(raw):.4f}; host speed "
              f"{min(speed):.2f}..{max(speed):.2f}")
        for name, row in rows.items():
            flag = ""
            if row["bound"] is not None and name != "setup_s":
                if row["spread"] < row["bound"] / 3:
                    flag = " (under a third of the bound)"
                elif row["spread"] < row["bound"]:
                    flag = " (within the bound)"
                else:
                    flag = " (OVER the bound)"
            print(f"  {name:16s} median {row['median']:14.4f}  "
                  f"spread {row['spread']:7.4f}  bound {row['bound']}{flag}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
