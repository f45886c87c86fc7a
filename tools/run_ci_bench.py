#!/usr/bin/env python3
"""Run the CI perf-gate benchmarks and emit a BENCH_<PR>.json artifact.

Runs each given google-benchmark binary with repetitions, collects the
median-CPU-time aggregates from the JSON report, and writes one JSON line
per benchmark configuration:

    {"bench": "BM_TuningSessionShort", "n": 15, "threads": 4,
     "cpu_ms_median": 241.7, "iterations": 5}

* ``bench`` is the benchmark's base name; argument positions beyond the
  first two, and named components such as ``iterations:2`` or
  ``real_time``, are folded into the name as ``/arg`` so every line keys
  uniquely on (bench, n, threads).
* ``n`` and ``threads`` are the first two benchmark arguments (0 if the
  benchmark takes fewer).
* ``cpu_ms_median`` is the median CPU time across repetitions, in ms.
* ``iterations`` is the repetition count the median was computed over.
* Numeric user counters from the median aggregate (e.g. bench_fleet's
  ``recs_per_sec`` and ``p99_ms`` for the BENCH_9 wire-service rows) are
  folded into the record verbatim, so throughput/latency gates can key on
  them alongside CPU time.

The JSON report is taken via --benchmark_out (not stdout) because some
benchmarks print their own diagnostic lines.

Usage:
    run_ci_bench.py --out BENCH_<PR>.json [--repetitions N]
                    BINARY[:BENCHMARK_FILTER] ...

The output name is an argument, not baked in: CI passes BENCH_<PR>.json
where <PR> is the current PR number in the stacked sequence (the
numbering convention is documented in docs/OBSERVABILITY.md). Keeping
the name out of this script means a new PR only touches the workflow.

Stdlib only; the regression gate is tools/check_bench_regression.py.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def parse_run_name(run_name):
    """Splits 'BM_Name/50/1/0' into ('BM_Name/0', 50, 1).

    The first two numeric arguments become n and threads; any further
    arguments are appended back onto the bench name so configurations
    that differ only in later arguments stay distinct.
    """
    parts = run_name.split("/")
    base = parts[0]
    args = []
    extra = []
    for part in parts[1:]:
        try:
            value = int(part)
        except ValueError:
            # Named or non-numeric components (e.g. 'real_time') stay in
            # the bench name.
            extra.append(part)
            continue
        if len(args) < 2:
            args.append(value)
        else:
            extra.append(part)
    while len(args) < 2:
        args.append(0)
    bench = "/".join([base] + extra)
    return bench, args[0], args[1]


# Keys google-benchmark itself writes into every report entry; anything
# else numeric is a user counter and is folded into the bench record.
STANDARD_ENTRY_KEYS = frozenset([
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "aggregate_name", "aggregate_unit", "family_index",
    "per_family_instance_index", "label", "error_occurred", "error_message",
])


def collect_from_report(report):
    """Yields bench-record dicts from a google-benchmark JSON report."""
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") != "aggregate":
            continue
        if entry.get("aggregate_name") != "median":
            continue
        unit = entry.get("time_unit", "ns")
        if unit not in TIME_UNIT_TO_MS:
            raise ValueError("unknown time unit %r in %r" %
                             (unit, entry.get("name")))
        bench, n, threads = parse_run_name(entry["run_name"])
        record = {
            "bench": bench,
            "n": n,
            "threads": threads,
            "cpu_ms_median": round(
                float(entry["cpu_time"]) * TIME_UNIT_TO_MS[unit], 3),
            "iterations": int(entry.get("iterations", 0)),
        }
        for key, value in entry.items():
            if key in STANDARD_ENTRY_KEYS or key in record:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                record[key] = round(float(value), 3)
        yield record


def run_binary(binary, bench_filter, repetitions):
    """Runs one benchmark binary, returns its parsed JSON report."""
    fd, report_path = tempfile.mkstemp(suffix=".json", prefix="bench_")
    os.close(fd)
    cmd = [
        binary,
        "--benchmark_out=%s" % report_path,
        "--benchmark_out_format=json",
        "--benchmark_repetitions=%d" % repetitions,
        "--benchmark_report_aggregates_only=true",
    ]
    if bench_filter:
        cmd.append("--benchmark_filter=%s" % bench_filter)
    try:
        print("+ %s" % " ".join(cmd), flush=True)
        subprocess.run(cmd, check=True)
        with open(report_path) as f:
            return json.load(f)
    finally:
        os.unlink(report_path)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True,
                        help="output path for the bench artifact, e.g. "
                             "BENCH_8.json (JSON lines)")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("binaries", nargs="+", metavar="BINARY[:FILTER]")
    args = parser.parse_args(argv)

    lines = []
    for spec in args.binaries:
        binary, _, bench_filter = spec.partition(":")
        report = run_binary(binary, bench_filter, args.repetitions)
        lines.extend(collect_from_report(report))

    if not lines:
        print("error: no median aggregates collected", file=sys.stderr)
        return 1
    lines.sort(key=lambda r: (r["bench"], r["n"], r["threads"]))
    with open(args.out, "w") as f:
        for record in lines:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print("wrote %d benchmark records to %s" % (len(lines), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
