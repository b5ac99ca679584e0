#!/usr/bin/env bash
# Tier-1 gate: configure + build + full ctest suite + metrics smoke check.
set -euo pipefail

usage() {
  cat <<'EOF'
Usage: scripts/check_tier1.sh [build-dir]     (default: build)
       scripts/check_tier1.sh --tsan [build-dir]
       scripts/check_tier1.sh --asan [build-dir]
       scripts/check_tier1.sh --ubsan [build-dir]
       scripts/check_tier1.sh --optimizer [build-dir]
       scripts/check_tier1.sh --help

Default mode configures + builds everything, runs the full ctest suite,
then smoke-checks the metrics_demo JSON output and the quickstart /
query_server examples.

--tsan builds with ThreadSanitizer (default build dir: build-tsan) and
runs only the concurrent-runtime test binaries (channel, broker driver,
the multi-query service whose subscribers drain concurrently, the
sharded pipeline whose exchanges fan batches and barriers across task
threads, and the epoll front door whose loop thread races client
threads) — the threaded core.
--asan builds with AddressSanitizer (default build dir: build-asan) and
runs the state/durability test binaries (ft, kvstore, snapshot, queue,
and the sharded pipeline's checkpoint/restore), the types serde decoder,
the net frame/buffer parsing, the runtime and service tests that own
the lifetime of result payloads shared between subscriptions, and the
continuous-query and batch-equivalence tests whose plans fold window
deltas from columns — the buffers, byte decoders, file framing, shared
rows and columnar delta runs the fault-tolerance, wire, fan-out and plan
layers hand around.
--ubsan builds with UndefinedBehaviorSanitizer (default build dir:
build-ubsan) and runs the columnar/typed-kernel test binaries (types,
columnar, expr, batch equivalence, window equivalence, aggregates,
continuous query) — the typed column loops, aggregate folds and grid
arithmetic where signed overflow, misaligned reads, and bad casts would
hide — plus the net and service tests, whose frame parser turns socket
bytes into columnar batches, and the service recovery test, which
restores plan state into a fresh service.
--optimizer builds with AddressSanitizer (default build dir:
build-optimizer) and runs the plan-optimizer equivalence suite — the
randomized optimized-vs-naive checks plus the kill-switch sweep
(all rules on, all off, and each rule solo, asserting bit-identical
outputs) — together with the service sharing and recovery tests that
depend on canonical plan fingerprints.

Every failure — including a failed cmake configure — exits nonzero, so
the script is safe as a CI gate.
EOF
}

cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
UBSAN=0
OPTIMIZER=0
if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
  usage
  exit 0
elif [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--ubsan" ]]; then
  UBSAN=1
  shift
elif [[ "${1:-}" == "--optimizer" ]]; then
  OPTIMIZER=1
  shift
elif [[ "${1:-}" == --* ]]; then
  echo "unknown option: $1" >&2
  usage >&2
  exit 2
fi

if [[ "$ASAN" == 1 ]]; then
  BUILD_DIR="${1:-build-asan}"

  echo "== configure (asan) =="
  if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"; then
    echo "FAIL: cmake configure (asan) failed" >&2
    exit 1
  fi

  echo "== build (asan) =="
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
    ft_test kvstore_test snapshot_test state_test queue_test shard_test \
    types_test net_test runtime_test service_test continuous_query_test \
    batch_equivalence_test

  echo "== ctest (asan: ft/state/durability + serde + net framing + shared payloads + plan folds) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R 'ft_test|kvstore_test|snapshot_test|state_test|queue_test|shard_test|types_test|net_test|runtime_test|service_test|continuous_query_test|batch_equivalence_test'

  echo "tier-1 asan check: OK"
  exit 0
fi

if [[ "$OPTIMIZER" == 1 ]]; then
  BUILD_DIR="${1:-build-optimizer}"

  echo "== configure (optimizer lane: asan) =="
  if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"; then
    echo "FAIL: cmake configure (optimizer lane) failed" >&2
    exit 1
  fi

  echo "== build (optimizer lane) =="
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
    optimizer_test service_test service_recovery_test shard_test

  echo "== kill-switch sweep (all on, all off, each rule solo) =="
  # The sweep is the KillSwitches/OptimizerRuleSweepTest parameterization
  # inside optimizer_test: every spec re-runs the query corpus on random
  # data and asserts bit-identical output against the naive plan.
  "$BUILD_DIR"/tests/optimizer_test \
    --gtest_filter='KillSwitches/*:Seeds/*'

  echo "== ctest (optimizer equivalence + canonical-fingerprint sharing) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R 'optimizer_test|service_test|service_recovery_test|shard_test'

  echo "tier-1 optimizer check: OK"
  exit 0
fi

if [[ "$UBSAN" == 1 ]]; then
  BUILD_DIR="${1:-build-ubsan}"

  echo "== configure (ubsan) =="
  if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"; then
    echo "FAIL: cmake configure (ubsan) failed" >&2
    exit 1
  fi

  echo "== build (ubsan) =="
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
    types_test columnar_test expr_test aggregate_test \
    batch_equivalence_test window_operator_equivalence_test dataflow_test \
    net_test service_test continuous_query_test service_recovery_test

  echo "== ctest (ubsan: columnar / typed kernels + socket ingest + plan restore) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R 'types_test|columnar_test|expr_test|aggregate_test|batch_equivalence_test|window_operator_equivalence_test|dataflow_test|net_test|service_test|continuous_query_test|service_recovery_test'

  echo "tier-1 ubsan check: OK"
  exit 0
fi

if [[ "$TSAN" == 1 ]]; then
  BUILD_DIR="${1:-build-tsan}"

  echo "== configure (tsan) =="
  if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"; then
    echo "FAIL: cmake configure (tsan) failed" >&2
    exit 1
  fi

  echo "== build (tsan) =="
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
    runtime_test broker_driver_test executor_failure_test \
    batch_equivalence_test service_test graph_mutation_test \
    shard_test shard_recovery_test net_test

  echo "== ctest (tsan: runtime/broker/service/shard/net) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
    -R 'runtime_test|broker_driver_test|executor_failure_test|batch_equivalence_test|service_test|graph_mutation_test|shard_test|shard_recovery_test|net_test'

  echo "tier-1 tsan check: OK"
  exit 0
fi

BUILD_DIR="${1:-build}"

echo "== configure =="
if ! cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release; then
  echo "FAIL: cmake configure failed" >&2
  exit 1
fi

echo "== build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "== metrics smoke check =="
# metrics_demo prints a single "METRICS_JSON {...}" line; it must parse as
# JSON and contain the per-node dataflow families.
DEMO_OUT="$("$BUILD_DIR"/examples/metrics_demo)"
JSON_LINE="$(printf '%s\n' "$DEMO_OUT" | sed -n 's/^METRICS_JSON //p')"
if [[ -z "$JSON_LINE" ]]; then
  echo "FAIL: metrics_demo printed no METRICS_JSON line" >&2
  exit 1
fi
printf '%s' "$JSON_LINE" | python3 -c '
import json, sys
d = json.load(sys.stdin)
assert set(d) == {"counters", "gauges", "histograms"}, sorted(d)
names = " ".join(d["counters"]) + " ".join(d["gauges"]) + " ".join(d["histograms"])
for family in ("cq_dataflow_records_in_total", "cq_dataflow_records_out_total",
               "cq_dataflow_process_latency_us", "cq_dataflow_event_time_lag"):
    assert family in names, f"missing {family}"
print("metrics smoke check: JSON valid,",
      len(d["counters"]), "counters,", len(d["gauges"]), "gauges,",
      len(d["histograms"]), "histograms")
'

echo "== quickstart smoke =="
"$BUILD_DIR"/examples/quickstart > /dev/null

echo "== query_server smoke (in-process demo) =="
QS_OUT="$("$BUILD_DIR"/examples/query_server)"
if ! grep -q "registered 2 queries" <<< "$QS_OUT"; then
  echo "FAIL: query_server demo did not register its queries" >&2
  exit 1
fi

echo "== query_server smoke (checkpoint + recover) =="
QS_CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$QS_CKPT_DIR"' EXIT
"$BUILD_DIR"/examples/query_server --checkpoint-dir "$QS_CKPT_DIR" > /dev/null
QS_REC_OUT="$("$BUILD_DIR"/examples/query_server \
  --checkpoint-dir "$QS_CKPT_DIR" --recover)"
if ! grep -q "recovered 2 queries" <<< "$QS_REC_OUT"; then
  echo "FAIL: query_server --recover did not restore its queries" >&2
  exit 1
fi
# The recovered aggregate must count pre-crash rows still resident in the
# restored [Range 100] window: ACME totals 100+30 before + 7 after = 137.
if ! grep -q "'ACME', 137" <<< "$QS_REC_OUT"; then
  echo "FAIL: recovered aggregate lost pre-checkpoint window state" >&2
  exit 1
fi

echo "== query_server smoke (sharded checkpoint + recover, --shards 4) =="
# Same drill on a ShardedQueryService: records hash across 4 replicas, the
# barrier checkpoint carries one slot per shard, and the recovered windows
# must still produce the exact ACME total.
QS_SHARD_DIR="$(mktemp -d)"
"$BUILD_DIR"/examples/query_server --shards 4 \
  --checkpoint-dir "$QS_SHARD_DIR" > /dev/null
QS_SHARD_OUT="$("$BUILD_DIR"/examples/query_server --shards 4 \
  --checkpoint-dir "$QS_SHARD_DIR" --recover)"
rm -rf "$QS_SHARD_DIR"
if ! grep -q "recovered 2 queries" <<< "$QS_SHARD_OUT"; then
  echo "FAIL: sharded query_server --recover did not restore its queries" >&2
  exit 1
fi
if ! grep -q "'ACME', 137" <<< "$QS_SHARD_OUT"; then
  echo "FAIL: sharded recovery lost pre-checkpoint window state" >&2
  exit 1
fi

echo "== query_server smoke (observability endpoint) =="
# Drive one query end to end over the TCP protocol, then scrape the same
# --serve port over HTTP: /metrics must be Prometheus text carrying the
# attribution families and /queries must be valid JSON listing the live
# query.
QS_BIN="$BUILD_DIR/examples/query_server" python3 - <<'EOF'
import json, os, socket, struct, subprocess, sys, time, urllib.request

def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port

tcp_port = free_port()
proc = subprocess.Popen(
    [os.environ["QS_BIN"], "--serve", str(tcp_port)],
    stdout=subprocess.DEVNULL)
try:
    for _ in range(100):
        try:
            s = socket.create_connection(("127.0.0.1", tcp_port), timeout=0.2)
            break
        except OSError:
            time.sleep(0.05)
    else:
        sys.exit("FAIL: query_server --serve never started listening")

    def send(msg):
        s.sendall(struct.pack(">I", len(msg)) + msg.encode())

    def recv():
        data = b""
        while len(data) < 4:
            chunk = s.recv(4 - len(data))
            if not chunk:
                sys.exit("FAIL: server closed connection")
            data += chunk
        n = struct.unpack(">I", data)[0]
        body = b""
        while len(body) < n:
            chunk = s.recv(n - len(body))
            if not chunk:
                sys.exit("FAIL: short frame")
            body += chunk
        return body.decode()

    def cmd(line):
        send(line)
        reply = recv()
        if not reply.startswith("OK"):
            sys.exit(f"FAIL: {line!r} -> {reply!r}")
        return reply

    cmd("STREAM trades sym:string,price:int64,qty:int64")
    qid = cmd("REGISTER SELECT sym, price FROM trades [Range 100] "
              "WHERE price > 10").split("id=")[1]
    cmd(f"SUBSCRIBE {qid}")
    cmd("PUSH trades 1 ACME,42,5")
    cmd("PUSH trades 2 ACME,7,1")
    cmd("WATERMARK trades 500")

    with urllib.request.urlopen(
            f"http://127.0.0.1:{tcp_port}/metrics", timeout=5) as resp:
        assert resp.status == 200, resp.status
        assert resp.headers["Content-Type"].startswith("text/plain"), \
            resp.headers["Content-Type"]
        text = resp.read().decode()
    for family in ("cq_dataflow_selectivity", "cq_channel_queue_wait_us",
                   "cq_query_latency_us", "cq_dataflow_records_in_total"):
        assert family in text, f"/metrics missing {family}"

    with urllib.request.urlopen(
            f"http://127.0.0.1:{tcp_port}/queries", timeout=5) as resp:
        queries = json.load(resp)
    assert len(queries) == 1, queries
    assert queries[0]["state"] == "running", queries
    assert queries[0]["subscriptions"] == 1, queries

    print("observability smoke: /metrics serves",
          len(text.splitlines()), "lines; /queries lists", len(queries),
          "running query")
finally:
    proc.kill()
    proc.wait()
EOF

echo "== query_server smoke (malformed numeric flags) =="
# A numeric flag must be wholly a number in range: each bad value prints the
# usage line and exits 2 without ever listening (not an uncaught exception,
# and not a silently truncated or wrapped port).
QS_BIN="$BUILD_DIR/examples/query_server" python3 - <<'EOF'
import os, socket, subprocess, sys

def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port

def listening(port):
    try:
        socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
        return True
    except OSError:
        return False

port = free_port()
# "70000x" would listen on 4464 if the junk were dropped and the value wrapped.
cases = [(["--serve", str(port), "--shards", "x"], port),
         (["--serve", str(port), "--shards", "99999999999"], port),
         (["--serve", "70000x"], 70000 % 65536)]
for args, probe in cases:
    cmdline = " ".join(args)
    proc = subprocess.Popen([os.environ["QS_BIN"]] + args,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        up = listening(probe)
        proc.kill()
        proc.wait()
        sys.exit(f"FAIL: query_server {cmdline} kept running "
                 f"(listening on {probe}: {up})")
    if proc.returncode != 2:
        sys.exit(f"FAIL: query_server {cmdline} exited {proc.returncode}, "
                 f"want 2:\n{err}")
    if "usage:" not in err:
        sys.exit(f"FAIL: query_server {cmdline} printed no usage:\n{err}")
    if listening(probe):
        sys.exit(f"FAIL: port {probe} accepts connections after {cmdline}")
print("flag smoke: malformed --shards/--serve values exit 2 with usage")
EOF

echo "== query_server smoke (epoll serve mode, SIGTERM drain) =="
# Drive a query through the epoll front door, then SIGTERM the server: it
# must stop accepting, flush subscribers, publish a drain checkpoint, and
# exit 0. (net_test's DrainCheckpointThenRecoverContinuesWindows proves the
# drained image recovers exactly; this guards the shipped binary's wiring.)
QS_DRAIN_DIR="$(mktemp -d)"
QS_BIN="$BUILD_DIR/examples/query_server" QS_DRAIN_DIR="$QS_DRAIN_DIR" \
  python3 - <<'EOF'
import os, signal, socket, struct, subprocess, sys, time

def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port

port = free_port()
proc = subprocess.Popen(
    [os.environ["QS_BIN"], "--serve", str(port),
     "--checkpoint-dir", os.environ["QS_DRAIN_DIR"]],
    stdout=subprocess.PIPE, text=True)
try:
    for _ in range(100):
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=0.2)
            break
        except OSError:
            time.sleep(0.05)
    else:
        sys.exit("FAIL: query_server --serve never started listening")

    def send(msg):
        s.sendall(struct.pack(">I", len(msg)) + msg.encode())

    def recv():
        data = b""
        while len(data) < 4:
            chunk = s.recv(4 - len(data))
            if not chunk:
                sys.exit("FAIL: server closed connection")
            data += chunk
        n = struct.unpack(">I", data)[0]
        body = b""
        while len(body) < n:
            chunk = s.recv(n - len(body))
            if not chunk:
                sys.exit("FAIL: short frame")
            body += chunk
        return body.decode()

    def cmd(line):
        send(line)
        reply = recv()
        if not reply.startswith("OK"):
            sys.exit(f"FAIL: {line!r} -> {reply!r}")
        return reply

    cmd("STREAM trades sym:string,price:int64,qty:int64")
    cmd("REGISTER SELECT sym, SUM(qty) AS total FROM trades [Range 100] "
        "WHERE price > 10 GROUP BY sym")
    cmd("PUSH trades 1 ACME,42,5")
    cmd("WATERMARK trades 1")

    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=30)
    if proc.returncode != 0:
        sys.exit(f"FAIL: drained server exited {proc.returncode}")
    if "drain checkpoint:" not in out:
        sys.exit(f"FAIL: no drain checkpoint in output:\n{out}")
    if "drained:" not in out:
        sys.exit(f"FAIL: no drain summary in output:\n{out}")
    print("sigterm drain smoke: exit 0 with durable drain checkpoint")
finally:
    if proc.poll() is None:
        proc.kill()
        proc.wait()
EOF
rm -rf "$QS_DRAIN_DIR"

echo "tier-1 check: OK"
