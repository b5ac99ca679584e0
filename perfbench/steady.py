#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Run each workload N times, one seed per run, and print every end-to-end
metric's median, quartiles and spread:

    python3 perfbench/steady.py run --runs 10 --save .bench_out/set1.json

Compare two such sets against the bounds in BENCHMARK.json (the second set
may be worse than the first by at most each metric's bound, and each set's
quartile spread must stay within it):

    python3 perfbench/steady.py compare .bench_out/set1.json \
        .bench_out/set2.json

`run --against FILE` does both in one command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"),
            "min": min(values), "max": max(values),
            "range_share": (max(values) - min(values)) / med if med
            else float("inf")}


def collect(workloads, runs, first_seed, seconds):
    results = {}
    for w in workloads:
        results[w] = {}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{w} seed {seed}: INCORRECT", file=sys.stderr)
            for name, m in line["metrics"].items():
                results[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: failed={line['failed']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
                flush=True)
    return results


def report(results, bounds):
    ok = True
    for w, metrics in results.items():
        print(f"\n{w}")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'min':>12}{'max':>12}{'range/med':>10}")
        for name, values in metrics.items():
            s = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if s["iqr_share"] > bound:
                    flag, ok = "  SPREAD > bound", False
                elif s["iqr_share"] > bound / 3:
                    flag = "  spread > bound/3"
            print(f"  {name:<22}{s['median']:>12.4g}{s['q1']:>12.4g}"
                  f"{s['q3']:>12.4g}{s['iqr_share']:>9.3f}{s['min']:>12.4g}"
                  f"{s['max']:>12.4g}{s['range_share']:>10.3f}{flag}")
    return ok


def compare(first, second, metrics_spec):
    ok = True
    print(f"\n{'workload':<20}{'metric':<22}{'median 1':>12}{'median 2':>12}"
          f"{'worse by':>10}{'bound':>8}")
    for w in first:
        for name, values in first[w].items():
            m = metrics_spec.get(name)
            if m is None or name not in second.get(w, {}):
                continue
            a = statistics.median(values)
            b = statistics.median(second[w][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{w:<20}{name:<22}{a:>12.4g}{b:>12.4g}{worse:>10.3f}"
                  f"{m['bound']:>8}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workloads", default="")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--save", default="")
    run.add_argument("--against", default="")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()

    bench = spec()
    metrics_spec = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.cmd == "compare":
        with open(args.first) as f:
            first = json.load(f)
        with open(args.second) as f:
            second = json.load(f)
        ok = report(first, bounds) & report(second, bounds)
        return 0 if compare(first, second, metrics_spec) and ok else 1

    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    results = collect(workloads, args.runs, args.first_seed,
                      args.seconds or bench["run_seconds"])
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    ok = report(results, bounds)
    if args.against:
        with open(args.against) as f:
            ok = compare(json.load(f), results, metrics_spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
