#!/usr/bin/env python3
"""CI perf gate: compare the current BENCH_<PR>.json against
bench/baseline.json.

Both files are JSON lines in the bench-record schema (see
tools/run_ci_bench.py):

    {"bench": ..., "n": ..., "threads": ..., "cpu_ms_median": ...,
     "iterations": ...}

Records are matched on (bench, n, threads). The gate fails when any
matched benchmark's median CPU time regressed by more than the threshold
(default 15%), or when a baseline benchmark is missing from the current
run (a silently dropped benchmark must not pass the gate). Current
benchmarks with no baseline entry are reported but do not fail — that is
the expected state of a PR that adds a benchmark; the follow-up baseline
refresh (docs/OBSERVABILITY.md) records them.

A baseline record may additionally carry ``cpu_ms_max``, an absolute
CPU-time ceiling in ms. The gate fails when the current median exceeds
it, regardless of the relative threshold — this pins hard latency
budgets (e.g. the BM_FleetRecommend n=1000 row's 2000 ms ceiling on one
sweep of 1000 tenants) that a slowly drifting baseline must never relax.

Usage:
    check_bench_regression.py --baseline bench/baseline.json \
                              --current BENCH_<PR>.json [--threshold 0.15]
    check_bench_regression.py --self-test

A missing or malformed input file is a usage/setup problem, not a perf
regression: the gate prints one actionable message and exits 2 (no
traceback), distinct from exit 1 (a real regression).

Stdlib only.
"""

import argparse
import json
import sys


class BenchInputError(Exception):
    """A missing or malformed bench file — setup problem, not a regression."""


def load_records(path):
    """Reads bench-record JSON lines (or a JSON array) into a keyed dict.

    Raises BenchInputError with an actionable message when the file is
    missing, not valid JSON, or its rows do not match the schema.
    """
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise BenchInputError(
            "%s: file not found.\n"
            "  - If this is the current run's artifact, the benchmark step "
            "did not produce it; check the run_ci_bench.py invocation "
            "(--out must match).\n"
            "  - If this is bench/baseline.json, refresh it as described "
            "in docs/OBSERVABILITY.md." % path)
    try:
        stripped = text.lstrip()
        if stripped.startswith("["):
            records = json.loads(stripped)
        else:
            records = [json.loads(line) for line in text.splitlines()
                       if line.strip()]
    except json.JSONDecodeError as err:
        raise BenchInputError(
            "%s: not valid JSON lines (%s).\n"
            "  Regenerate it with tools/run_ci_bench.py; do not hand-edit "
            "bench artifacts." % (path, err))
    if not isinstance(records, list) or not all(
            isinstance(r, dict) for r in records):
        raise BenchInputError(
            "%s: expected a JSON array or JSON lines of record objects "
            "in the tools/run_ci_bench.py schema." % path)
    keyed = {}
    for record in records:
        for field in ("bench", "n", "threads", "cpu_ms_median"):
            if field not in record:
                raise BenchInputError(
                    "%s: record missing the %r field: %r\n"
                    "  Rows must match the tools/run_ci_bench.py schema "
                    "(bench, n, threads, cpu_ms_median, iterations)." %
                    (path, field, record))
        key = (record["bench"], record["n"], record["threads"])
        if key in keyed:
            raise BenchInputError(
                "%s: duplicate benchmark key %r.\n"
                "  Each (bench, n, threads) row must appear once; "
                "regenerate the file with tools/run_ci_bench.py." %
                (path, key))
        keyed[key] = record
    return keyed


def compare(baseline, current, threshold):
    """Returns (report_lines, failures) for the two keyed record dicts."""
    lines = []
    failures = []
    header = "%-44s %10s %10s %8s  %s" % (
        "benchmark (n, threads)", "base ms", "cur ms", "delta", "verdict")
    lines.append(header)
    lines.append("-" * len(header))
    for key in sorted(set(baseline) | set(current)):
        label = "%s (%d, %d)" % key
        base = baseline.get(key)
        cur = current.get(key)
        if base is None:
            lines.append("%-44s %10s %10.2f %8s  NEW (no baseline)" %
                         (label, "-", cur["cpu_ms_median"], "-"))
            continue
        if cur is None:
            lines.append("%-44s %10.2f %10s %8s  MISSING from current run" %
                         (label, base["cpu_ms_median"], "-", "-"))
            failures.append("%s: present in baseline but not in current run"
                            % label)
            continue
        base_ms = float(base["cpu_ms_median"])
        cur_ms = float(cur["cpu_ms_median"])
        if base_ms <= 0.0:
            failures.append("%s: non-positive baseline %.3f ms" %
                            (label, base_ms))
            continue
        delta = cur_ms / base_ms - 1.0
        regressed = delta > threshold
        over_ceiling = False
        if "cpu_ms_max" in base:
            ceiling = float(base["cpu_ms_max"])
            over_ceiling = cur_ms > ceiling
        verdict = "ok"
        if over_ceiling:
            verdict = "OVER CEILING"
        elif regressed:
            verdict = "REGRESSED"
        lines.append("%-44s %10.2f %10.2f %+7.1f%%  %s" %
                     (label, base_ms, cur_ms, 100.0 * delta, verdict))
        if regressed:
            failures.append(
                "%s: %.2f ms -> %.2f ms (%+.1f%%, threshold +%.0f%%)" %
                (label, base_ms, cur_ms, 100.0 * delta, 100.0 * threshold))
        if over_ceiling:
            failures.append(
                "%s: %.2f ms exceeds absolute ceiling cpu_ms_max=%.2f ms" %
                (label, cur_ms, float(base["cpu_ms_max"])))
    return lines, failures


def self_test():
    """Exercises the gate logic on synthetic records."""
    def rec(bench, n, threads, ms):
        return {"bench": bench, "n": n, "threads": threads,
                "cpu_ms_median": ms, "iterations": 5}

    def keyed(records):
        return {(r["bench"], r["n"], r["threads"]): r for r in records}

    base = keyed([rec("BM_A", 50, 1, 100.0), rec("BM_B", 15, 4, 200.0)])

    # Within threshold (+10%) passes.
    _, failures = compare(
        base, keyed([rec("BM_A", 50, 1, 110.0), rec("BM_B", 15, 4, 199.0)]),
        threshold=0.15)
    assert not failures, failures

    # Beyond threshold (+20%) fails, and names the offender.
    _, failures = compare(
        base, keyed([rec("BM_A", 50, 1, 120.0), rec("BM_B", 15, 4, 200.0)]),
        threshold=0.15)
    assert len(failures) == 1 and "BM_A" in failures[0], failures

    # Exactly at threshold passes (gate is strict-greater).
    _, failures = compare(base,
                          keyed([rec("BM_A", 50, 1, 115.0),
                                 rec("BM_B", 15, 4, 230.0)]),
                          threshold=0.15)
    assert not failures, failures

    # A benchmark missing from the current run fails.
    _, failures = compare(base, keyed([rec("BM_A", 50, 1, 100.0)]),
                          threshold=0.15)
    assert len(failures) == 1 and "BM_B" in failures[0], failures

    # A new benchmark with no baseline is reported but does not fail.
    lines, failures = compare(
        base, keyed([rec("BM_A", 50, 1, 100.0), rec("BM_B", 15, 4, 200.0),
                     rec("BM_C", 1, 1, 5.0)]), threshold=0.15)
    assert not failures, failures
    assert any("NEW" in line for line in lines), lines

    # An improvement (faster) passes.
    _, failures = compare(
        base, keyed([rec("BM_A", 50, 1, 50.0), rec("BM_B", 15, 4, 180.0)]),
        threshold=0.15)
    assert not failures, failures

    # cpu_ms_max is an absolute ceiling: under it passes even when the
    # relative delta would not have fired; over it fails even within the
    # relative threshold.
    capped = keyed([rec("BM_A", 50, 1, 100.0)])
    capped[("BM_A", 50, 1)]["cpu_ms_max"] = 105.0
    _, failures = compare(capped, keyed([rec("BM_A", 50, 1, 104.0)]),
                          threshold=0.15)
    assert not failures, failures
    _, failures = compare(capped, keyed([rec("BM_A", 50, 1, 106.0)]),
                          threshold=0.15)
    assert len(failures) == 1 and "ceiling" in failures[0], failures

    # Both gates can fire on one record (big regression over the ceiling).
    _, failures = compare(capped, keyed([rec("BM_A", 50, 1, 150.0)]),
                          threshold=0.15)
    assert len(failures) == 2, failures

    # Input problems surface as BenchInputError with an actionable message
    # (main() turns these into exit code 2, not a traceback).
    import os
    import tempfile

    def expect_input_error(path, *tokens):
        try:
            load_records(path)
        except BenchInputError as err:
            for token in tokens:
                assert token in str(err), (token, str(err))
        else:
            raise AssertionError("expected BenchInputError for %s" % path)

    expect_input_error("/nonexistent/BENCH_0.json", "file not found",
                       "run_ci_bench.py")

    def temp_file(contents):
        fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_gate_")
        with os.fdopen(fd, "w") as f:
            f.write(contents)
        return path

    paths = []
    try:
        paths.append(temp_file("{not json\n"))
        expect_input_error(paths[-1], "not valid JSON")
        paths.append(temp_file('{"bench": "BM_A", "n": 50}\n'))
        expect_input_error(paths[-1], "missing the", "cpu_ms_median")
        row = ('{"bench": "BM_A", "n": 50, "threads": 1, '
               '"cpu_ms_median": 1.0}\n')
        paths.append(temp_file(row + row))
        expect_input_error(paths[-1], "duplicate benchmark key")
        paths.append(temp_file('"just a string"\n'))
        expect_input_error(paths[-1], "record objects")
        # main() maps input errors to exit code 2, distinct from a real
        # regression's exit code 1.
        good = temp_file(row)
        paths.append(good)
        assert main(["--baseline", "/nonexistent/baseline.json",
                     "--current", good]) == 2
    finally:
        for path in paths:
            os.unlink(path)

    print("check_bench_regression self-test OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --self-test)")

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except BenchInputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    lines, failures = compare(baseline, current, args.threshold)
    print("\n".join(lines))
    if failures:
        print("\nFAIL: %d benchmark(s) regressed beyond +%.0f%%:" %
              (len(failures), 100.0 * args.threshold))
        for failure in failures:
            print("  " + failure)
        print("\nIf the slowdown is intended, refresh bench/baseline.json "
              "(see docs/OBSERVABILITY.md).")
        return 1
    print("\nOK: no benchmark regressed beyond +%.0f%%." %
          (100.0 * args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
