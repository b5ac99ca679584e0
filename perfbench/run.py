#!/usr/bin/env python3
"""Socket-to-socket benchmark of cqstream's served path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (and the server libraries it links) from this
checkout's sources, runs one measurement of one workload against a real
net::Server in a child process, and prints one JSON result line last:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A run whose generator rather than the server set the pace
is invalid; it is measured again (at most three attempts) and never
reported. Every run leaves a run record (host, seed, workload parameters,
all figures) and the workload's sharing snapshot (STATS reply and /queries)
under .bench_out/<workload>/.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole invocation, build excluded
ATTEMPTS = 3
# The closed-loop phase measures the server only if the server was the
# bottleneck: its single event-loop thread busy nearly all the time.
MIN_BUSY_RATIO = 0.85
# Largest generator lateness (p50 and p90), as a share of the median
# latency, that still leaves the latency to the server.
LAG_SHARE = 0.25


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no program sources under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "e2e_bench"


def read_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release()}


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def invalid_reason(raw, trace):
    """Why a run's figures describe the generator rather than the server.

    The latency check guards the reported latencies, so it applies to
    --trace 0 only; per-record layer times need a saturated server too."""
    values = dict(raw["diag"])
    values.update(raw["metrics"])
    busy = values.get("server.busy_ratio", 0.0)
    if busy < MIN_BUSY_RATIO:
        return f"server.busy_ratio {busy:.3f} < {MIN_BUSY_RATIO}: " \
               "the generator limited the closed loop"
    if trace == 0:
        # The median latency, as measured, must dwarf the generator's
        # lateness. Latency runs from the scheduled send, so lateness
        # inflates it too: a lateness quantile measured against the latency
        # at the same quantile would let a late generator pass.
        latency = values.get("latency_p50_us_unscaled", 0.0)
        for q in ("p50", "p90"):
            lag = values.get(f"gen.lag_us_{q}", math.inf)
            if not lag < LAG_SHARE * latency:
                return f"gen.lag_us_{q} {lag:.1f} is not under " \
                       f"{LAG_SHARE} x latency_p50_us {latency:.1f}: the " \
                       "generator's lateness would set the latency"
    return None


def run_once(binary, args, out_dir, timeout):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"e2e_bench exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("e2e_bench printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    record = {"host": host_info(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "attempts": []}
    raw = None
    for attempt in range(ATTEMPTS):
        elapsed = time.monotonic() - started
        remaining = DEADLINE_S - elapsed
        # Another attempt only if it fits, judged by those made so far.
        if attempt > 0 and remaining < 1.25 * elapsed / attempt:
            break
        steal0 = read_steal_ticks()
        load0 = os.getloadavg()
        try:
            raw = run_once(binary, args, out_dir, remaining)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as e:
            log(f"run failed: {e}")
            return 1
        record["params"] = raw["params"]
        reason = invalid_reason(raw, args.trace)
        record["attempts"].append({
            "loadavg_before": load0, "loadavg_after": os.getloadavg(),
            "steal_ticks": read_steal_ticks() - steal0,
            "invalid": reason, "metrics": raw["metrics"],
            "diag": raw["diag"], "series": raw["series"],
            "causes": raw["causes"]})
        if reason is None:
            break
        log(f"attempt {attempt + 1} invalid: {reason}")
        raw = None

    with open(out_dir / f"run-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1)
    if raw is None:
        log("no valid run; nothing reported")
        return 1

    for cause in raw["causes"]:
        log(f"{args.workload}: {cause}")
    if raw["failed"]:
        log(f"{args.workload}: error_ratio "
            f"{raw['failed'] / raw['attempted']:.3g} "
            f"({raw['failed']} failed of {raw['attempted']})")

    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {m['name']} missing from the run")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
