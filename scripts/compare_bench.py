#!/usr/bin/env python3
"""Compare google-benchmark JSON results against committed baselines.

Usage:
  scripts/compare_bench.py --baseline bench/baselines --current bench-results \
      [--threshold 0.30] [--report report.md] [--warn-only]

Matches BENCH_*.json files by name across the two directories, then matches
individual benchmark cases by their full name. Two regression classes:

  throughput  items_per_second (or bytes_per_second) dropping more than
              `threshold` below the baseline FAILS the check — this is the
              gate against silently shipping a slow pipeline.
  latency     cpu_time rising more than `threshold` above the baseline is
              reported as a WARNING only: quick-mode (0.01s) timings are too
              noisy to block on, but the report makes the drift visible.

Cases or files present on only one side are reported but never fail the
check — benches come and go as the repo grows. Exits 1 when any throughput
regression exceeds the threshold (unless --warn-only).

Ratifying a performance step (--expect-improvement, repeatable):

  scripts/compare_bench.py ... \
      --expect-improvement 'BM_ColumnarPipeline/2>BM_ColumnarPipeline/0=5'

Each spec is `FAST_RE>SLOW_RE=FACTOR[@COUNTER]`: within every *current*
results file whose cases match both regexes, the mean throughput of the
FAST cases must be at least FACTOR times the mean of the SLOW cases. This
is how a claimed speedup (e.g. the columnar series vs the row series, which
pushes the same records one at a time through the per-element reference
path) is asserted once when the new baselines are committed; a spec that
matches nothing FAILS, so a renamed bench cannot silently void the claim.

With an `@COUNTER` suffix the claim is about a reported counter where
SMALLER is better (e.g. `operators`): the mean of the SLOW cases' counter
must be at least FACTOR times the mean of the FAST cases' counter, i.e.
`BM_Sharing/16/1>BM_Sharing/16/0=1.5@operators` ratifies that the
optimized run instantiates at most 1/1.5 the operators of the naive run.
"""

import argparse
import json
import re
import sys
from pathlib import Path


def load_cases(path):
    """BENCH_*.json -> {case name: benchmark dict}."""
    with open(path) as f:
        data = json.load(f)
    cases = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        cases[bench["name"]] = bench
    return cases


def throughput_of(case):
    """Preferred throughput counter, or None when the case reports none."""
    # bench_util.h reports `items_per_sec`; the stock google-benchmark
    # names are accepted too so off-the-shelf benches compare unchanged.
    for key in ("items_per_sec", "items_per_second", "bytes_per_second"):
        value = case.get(key)
        if isinstance(value, (int, float)) and value > 0:
            return key, float(value)
    return None, None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, type=Path)
    ap.add_argument("--current", required=True, type=Path)
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="fractional regression that fails (default 0.30)")
    ap.add_argument("--report", type=Path, default=None,
                    help="write a markdown comparison report here")
    ap.add_argument("--warn-only", action="store_true",
                    help="never exit nonzero (report regressions only)")
    ap.add_argument("--expect-improvement", action="append", default=[],
                    metavar="FAST_RE>SLOW_RE=FACTOR",
                    help="assert mean throughput of FAST cases >= FACTOR x "
                         "mean of SLOW cases within each current results "
                         "file (repeatable; always fatal)")
    args = ap.parse_args()

    expectations = []
    for spec in args.expect_improvement:
        m = re.fullmatch(r"(.+)>(.+)=([0-9.]+)(?:@(\w+))?", spec)
        if m is None:
            print(f"bad --expect-improvement spec: {spec!r} "
                  "(want FAST_RE>SLOW_RE=FACTOR[@COUNTER])", file=sys.stderr)
            return 2
        expectations.append((m.group(1), m.group(2), float(m.group(3)),
                             m.group(4)))

    baseline_files = {p.name: p for p in sorted(args.baseline.glob("BENCH_*.json"))}
    current_files = {p.name: p for p in sorted(args.current.glob("BENCH_*.json"))}
    if not baseline_files:
        print(f"no BENCH_*.json baselines in {args.baseline}", file=sys.stderr)
        return 2
    if not current_files:
        print(f"no BENCH_*.json results in {args.current}", file=sys.stderr)
        return 2

    failures = []   # (file, case, counter, baseline, current, ratio)
    warnings = []   # latency drifts and structural mismatches
    rows = []       # (file, case, metric, baseline, current, delta_pct, verdict)

    for name in sorted(set(baseline_files) | set(current_files)):
        if name not in current_files:
            warnings.append(f"{name}: present in baseline only (bench removed?)")
            continue
        if name not in baseline_files:
            warnings.append(f"{name}: present in current only (new bench, "
                            "no baseline yet)")
            continue
        base_cases = load_cases(baseline_files[name])
        cur_cases = load_cases(current_files[name])
        for case in sorted(set(base_cases) | set(cur_cases)):
            if case not in cur_cases:
                warnings.append(f"{name}/{case}: case vanished")
                continue
            if case not in base_cases:
                warnings.append(f"{name}/{case}: new case, no baseline")
                continue
            base, cur = base_cases[case], cur_cases[case]

            counter, base_tp = throughput_of(base)
            _, cur_tp = throughput_of(cur)
            if base_tp and cur_tp:
                delta = cur_tp / base_tp - 1.0
                verdict = "ok"
                if delta < -args.threshold:
                    verdict = "FAIL"
                    failures.append((name, case, counter, base_tp, cur_tp, delta))
                rows.append((name, case, counter, base_tp, cur_tp, delta, verdict))

            base_cpu = base.get("cpu_time")
            cur_cpu = cur.get("cpu_time")
            if isinstance(base_cpu, (int, float)) and base_cpu > 0 and \
               isinstance(cur_cpu, (int, float)):
                delta = cur_cpu / base_cpu - 1.0
                verdict = "ok"
                if delta > args.threshold:
                    verdict = "warn"
                    warnings.append(
                        f"{name}/{case}: cpu_time +{delta * 100:.1f}% "
                        f"({base_cpu:.3g} -> {cur_cpu:.3g} "
                        f"{cur.get('time_unit', '')}) — latency drift, "
                        "warn-only")
                rows.append((name, case, "cpu_time", base_cpu, cur_cpu, delta,
                             verdict))

    if args.report:
        with open(args.report, "w") as f:
            f.write("# Bench comparison\n\n")
            f.write(f"threshold: {args.threshold * 100:.0f}% | "
                    f"compared files: "
                    f"{len(set(baseline_files) & set(current_files))} | "
                    f"throughput failures: {len(failures)} | "
                    f"warnings: {len(warnings)}\n\n")
            f.write("| file | case | metric | baseline | current | delta | "
                    "verdict |\n")
            f.write("|---|---|---|---|---|---|---|\n")
            for name, case, metric, b, c, d, verdict in rows:
                f.write(f"| {name} | {case} | {metric} | {b:.4g} | {c:.4g} | "
                        f"{d * 100:+.1f}% | {verdict} |\n")
            if warnings:
                f.write("\n## Warnings (non-fatal)\n\n")
                for w in warnings:
                    f.write(f"- {w}\n")

    improvement_failures = []
    for fast_re, slow_re, factor, counter_name in expectations:
        def metric_of(bench):
            if counter_name is None:
                return throughput_of(bench)[1]
            value = bench.get(counter_name)
            if isinstance(value, (int, float)) and value > 0:
                return float(value)
            return None
        matched_any = False
        for name, path in sorted(current_files.items()):
            cases = load_cases(path)
            fast = [v for case, bench in cases.items()
                    if re.search(fast_re, case)
                    and (v := metric_of(bench))]
            slow = [v for case, bench in cases.items()
                    if re.search(slow_re, case)
                    and (v := metric_of(bench))]
            if not fast or not slow:
                continue
            matched_any = True
            if counter_name is None:
                # Throughput: FAST must be >= FACTOR x SLOW.
                ratio = (sum(fast) / len(fast)) / (sum(slow) / len(slow))
                what = "throughput"
            else:
                # Counter: smaller is better; SLOW must carry >= FACTOR x
                # the FAST cases' counter.
                ratio = (sum(slow) / len(slow)) / (sum(fast) / len(fast))
                what = counter_name
            if ratio >= factor:
                print(f"IMPROVEMENT OK: {name}: {fast_re} beats {slow_re} "
                      f"by {ratio:.2f}x on {what} (required {factor:g}x)")
            else:
                improvement_failures.append(
                    f"{name}: {fast_re} only {ratio:.2f}x {slow_re} on "
                    f"{what} (required {factor:g}x)")
        if not matched_any:
            improvement_failures.append(
                f"no current file matched both {fast_re!r} and {slow_re!r}")

    for w in warnings:
        print(f"WARN: {w}")
    for f_msg in improvement_failures:
        print(f"FAIL: expected improvement not met: {f_msg}")
    for name, case, counter, b, c, d in failures:
        print(f"FAIL: {name}/{case}: {counter} {b:.4g} -> {c:.4g} "
              f"({d * 100:+.1f}%, threshold -{args.threshold * 100:.0f}%)")
    compared = sum(1 for r in rows if r[2] != "cpu_time")
    print(f"compared {compared} throughput series; "
          f"{len(failures)} regression(s) beyond "
          f"{args.threshold * 100:.0f}%")

    if improvement_failures:
        return 1  # an unmet ratified claim is fatal even under --warn-only
    if failures and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
