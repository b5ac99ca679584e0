/// \file bench_e9_substrates.cc
/// \brief E9 — substrate microbenchmarks: the Fig. 5 building blocks.
///
/// Series: (a) queue produce/consume throughput by partition count;
/// (b) KV-store point writes, reads from memtable vs. flushed runs (bloom
/// filters on the miss path), and ordered scans through the merging
/// iterator; (c) the unified runtime core — batched vs per-element pipeline
/// delivery, and queue-depth-over-time for a slow consumer behind a
/// credit-bounded vs unbounded channel.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cql/expr.h"
#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "kvstore/kvstore.h"
#include "queue/broker.h"
#include "runtime/channel.h"
#include "runtime/driver.h"
#include "workload/generators.h"

namespace cq {
namespace {

Tuple T(int64_t v) { return Tuple({Value(v)}); }

void BM_QueueProduce(benchmark::State& state) {
  const size_t partitions = static_cast<size_t>(state.range(0));
  Broker broker;
  (void)broker.CreateTopic("t", partitions);
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.Produce("t", "key" + std::to_string(i % 1024), T(i), i));
    ++i;
  }
  state.counters["partitions"] = static_cast<double>(partitions);
  SetPerItemMicros(state, 1.0);
}
BENCHMARK(BM_QueueProduce)->Arg(1)->Arg(4)->Arg(16);

void BM_QueueConsume(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Broker broker;
  (void)broker.CreateTopic("t", 1);
  for (int64_t i = 0; i < 100000; ++i) {
    (void)broker.Produce("t", "", T(i), i);
  }
  int64_t offset = 0;
  Topic* topic = *broker.GetTopic("t");
  for (auto _ : state) {
    Result<std::vector<Message>> msgs = topic->partition(0).Read(offset, batch);
    offset += static_cast<int64_t>(msgs->size());
    if (msgs->empty()) offset = 0;  // wrap for steady-state measurement
    benchmark::DoNotOptimize(msgs->size());
  }
  state.counters["batch"] = static_cast<double>(batch);
  SetPerItemMicros(state, static_cast<double>(batch));
}
BENCHMARK(BM_QueueConsume)->Arg(1)->Arg(64)->Arg(1024);

void BM_KvPut(benchmark::State& state) {
  auto workload = MakeKvWorkload(100000, 1 << 20, 64, 3);
  KVStoreOptions opts;
  opts.memtable_max_entries = static_cast<size_t>(state.range(0));
  auto db = std::move(KVStore::Open(opts)).value();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [k, v] = workload[i % workload.size()];
    benchmark::DoNotOptimize(db->Put(k, v));
    ++i;
  }
  KVStoreStats stats = db->stats();
  state.counters["memtable_cap"] = static_cast<double>(opts.memtable_max_entries);
  state.counters["flushes"] = static_cast<double>(stats.flushes);
  state.counters["compactions"] = static_cast<double>(stats.compactions);
  SetPerItemMicros(state, 1.0);
}
BENCHMARK(BM_KvPut)->Arg(1024)->Arg(16384);

void BM_KvGetMemtable(benchmark::State& state) {
  KVStoreOptions opts;
  opts.memtable_max_entries = 1 << 20;  // everything stays in the memtable
  auto db = std::move(KVStore::Open(opts)).value();
  auto workload = MakeKvWorkload(10000, 10000, 64, 4);
  for (const auto& [k, v] : workload) (void)db->Put(k, v);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(workload[i % workload.size()].first));
    ++i;
  }
  state.SetLabel("hit in memtable");
  SetPerItemMicros(state, 1.0);
}
BENCHMARK(BM_KvGetMemtable);

void BM_KvGetFlushedRuns(benchmark::State& state) {
  KVStoreOptions opts;
  opts.memtable_max_entries = 1024;  // force data into runs
  auto db = std::move(KVStore::Open(opts)).value();
  auto workload = MakeKvWorkload(20000, 10000, 64, 4);
  for (const auto& [k, v] : workload) (void)db->Put(k, v);
  (void)db->Flush();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(workload[i % workload.size()].first));
    ++i;
  }
  KVStoreStats stats = db->stats();
  state.SetLabel("hit across sorted runs");
  state.counters["runs"] = static_cast<double>(stats.num_runs);
  SetPerItemMicros(state, 1.0);
}
BENCHMARK(BM_KvGetFlushedRuns);

void BM_KvGetMissBloom(benchmark::State& state) {
  KVStoreOptions opts;
  opts.memtable_max_entries = 1024;
  auto db = std::move(KVStore::Open(opts)).value();
  auto workload = MakeKvWorkload(20000, 10000, 64, 4);
  for (const auto& [k, v] : workload) (void)db->Put(k, v);
  (void)db->Flush();
  size_t i = 0;
  for (auto _ : state) {
    // Absent keys: bloom filters short-circuit the run searches.
    benchmark::DoNotOptimize(db->Get("missing" + std::to_string(i)));
    ++i;
  }
  KVStoreStats stats = db->stats();
  state.SetLabel("miss (bloom short-circuit)");
  state.counters["bloom_neg"] = static_cast<double>(stats.bloom_negative);
  SetPerItemMicros(state, 1.0);
}
BENCHMARK(BM_KvGetMissBloom);

void BM_KvScan(benchmark::State& state) {
  KVStoreOptions opts;
  opts.memtable_max_entries = 1024;
  auto db = std::move(KVStore::Open(opts)).value();
  auto workload = MakeKvWorkload(20000, 1 << 20, 64, 5);
  for (const auto& [k, v] : workload) (void)db->Put(k, v);
  size_t scanned = 0;
  for (auto _ : state) {
    scanned = 0;
    auto it = db->NewIterator();
    for (; it->Valid(); it->Next()) ++scanned;
    benchmark::DoNotOptimize(scanned);
  }
  state.counters["rows"] = static_cast<double>(scanned);
  SetPerItemMicros(state, static_cast<double>(scanned));
}
BENCHMARK(BM_KvScan);

void BM_KvScanAfterCompaction(benchmark::State& state) {
  KVStoreOptions opts;
  opts.memtable_max_entries = 1024;
  auto db = std::move(KVStore::Open(opts)).value();
  auto workload = MakeKvWorkload(20000, 1 << 20, 64, 5);
  for (const auto& [k, v] : workload) (void)db->Put(k, v);
  (void)db->Flush();
  (void)db->Compact();
  size_t scanned = 0;
  for (auto _ : state) {
    scanned = 0;
    auto it = db->NewIterator();
    for (; it->Valid(); it->Next()) ++scanned;
    benchmark::DoNotOptimize(scanned);
  }
  state.counters["rows"] = static_cast<double>(scanned);
  SetPerItemMicros(state, static_cast<double>(scanned));
}
BENCHMARK(BM_KvScanAfterCompaction);

/// (c1) Batched vs per-element delivery through a three-operator pipeline.
/// range(0) = records per batch; 0 = per-element Push. The gap between the
/// two is the dispatch/routing overhead the batch path amortises.
void BM_PipelineDelivery(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
      "filt", [](const Tuple& t) { return t[0].int64_value() % 10 != 0; }));
  NodeId map = g->AddNode(std::make_unique<MapOperator>(
      "map", [](const Tuple& t) -> Result<Tuple> {
        return Tuple({Value(t[0].int64_value() + 1)});
      }));
  NodeId sink = g->AddNode(std::make_unique<CountingSinkOperator>("sink"));
  (void)g->Connect(src, filt);
  (void)g->Connect(filt, map);
  (void)g->Connect(map, sink);
  PipelineExecutor exec(std::move(g));

  constexpr size_t kRecords = 4096;
  int64_t ts = 0;
  for (auto _ : state) {
    if (batch_size == 0) {
      for (size_t i = 0; i < kRecords; ++i) {
        benchmark::DoNotOptimize(
            exec.PushRecord(src, T(static_cast<int64_t>(i)), ts++));
      }
    } else {
      for (size_t i = 0; i < kRecords; i += batch_size) {
        StreamBatch batch;
        batch.reserve(batch_size);
        for (size_t j = i; j < i + batch_size && j < kRecords; ++j) {
          batch.AddRecord(T(static_cast<int64_t>(j)), ts++);
        }
        benchmark::DoNotOptimize(exec.PushBatch(src, batch));
      }
    }
  }
  state.SetLabel(batch_size == 0 ? "per-element"
                                 : "batch=" + std::to_string(batch_size));
  SetPerItemMicros(state, static_cast<double>(kRecords));
}
BENCHMARK(BM_PipelineDelivery)->Arg(0)->Arg(8)->Arg(64)->Arg(256);

/// (c1b) Columnar vs per-element execution of the same logical pipeline,
/// expressed with Expr-based filter + projection so the vectorized kernels
/// engage. range(0): 0 = the per-element reference (each record pushed on
/// its own through Push; labelled "row"); 1 = the PushBatch shim (row
/// input, converted to columns at the source); 2 = native columnar input
/// (a pre-built ColumnarBatch pushed through PushColumnar). Output is
/// byte-identical across the three — the row/native gap is the
/// vectorisation win, the shim/native gap is the row->column conversion
/// cost at the boundary.
void BM_ColumnarPipeline(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
      "filt", Gt(Col(1), Lit(static_cast<int64_t>(20)))));
  std::vector<ExprPtr> projs;
  projs.push_back(Col(0));
  projs.push_back(Bin(BinaryOp::kAdd, Col(1), Lit(static_cast<int64_t>(1))));
  projs.push_back(Bin(BinaryOp::kMul, Col(2), Lit(2.0)));
  NodeId proj =
      g->AddNode(std::make_unique<ProjectOperator>("proj", std::move(projs)));
  NodeId sink = g->AddNode(std::make_unique<CountingSinkOperator>("sink"));
  (void)g->Connect(src, filt);
  (void)g->Connect(filt, proj);
  (void)g->Connect(proj, sink);
  PipelineExecutor exec(std::move(g));

  constexpr size_t kRecords = 4096;
  constexpr size_t kBatch = 1024;
  std::vector<StreamBatch> row_batches;
  std::vector<ColumnarBatch> col_batches;
  int64_t ts = 0;
  for (size_t i = 0; i < kRecords; i += kBatch) {
    StreamBatch batch;
    batch.reserve(kBatch);
    for (size_t j = i; j < i + kBatch; ++j) {
      batch.AddRecord(Tuple({Value(static_cast<int64_t>(j % 3)),
                             Value(static_cast<int64_t>(j % 100)),
                             Value(0.5 * static_cast<double>(j % 50))}),
                      ts++);
    }
    col_batches.push_back(std::move(ColumnarBatch::FromRows(batch)).value());
    row_batches.push_back(std::move(batch));
  }

  for (auto _ : state) {
    if (mode == 0) {
      for (const StreamBatch& b : row_batches) {
        for (const StreamElement& e : b.elements()) {
          benchmark::DoNotOptimize(exec.Push(src, e));
        }
      }
    } else if (mode == 2) {
      for (const ColumnarBatch& b : col_batches) {
        benchmark::DoNotOptimize(exec.PushColumnar(src, b));
      }
    } else {
      for (const StreamBatch& b : row_batches) {
        benchmark::DoNotOptimize(exec.PushBatch(src, b));
      }
    }
  }
  state.SetLabel(mode == 0 ? "row" : (mode == 1 ? "shim" : "columnar"));
  SetPerItemMicros(state, static_cast<double>(kRecords));
}
BENCHMARK(BM_ColumnarPipeline)->Arg(0)->Arg(1)->Arg(2);

/// (c2) Slow consumer behind the broker driver: queue-depth-over-time with
/// a credit-bounded channel (depth plateaus at the cap while the driver
/// pauses polling) vs unbounded (depth tracks the producer/consumer rate
/// gap). range(0) = channel credits; 0 = unbounded. The depth series is
/// printed once per configuration as a machine-greppable line.
void BM_SlowConsumerQueueDepth(benchmark::State& state) {
  const size_t credits = static_cast<size_t>(state.range(0));
  constexpr size_t kMessages = 4096;
  constexpr size_t kPollRecords = 32;
  constexpr int kPumpsPerPop = 8;  // producer is 8x faster than the consumer

  size_t max_depth = 0;
  uint64_t pauses = 0;
  std::vector<size_t> depth_series;
  for (auto _ : state) {
    state.PauseTiming();
    Broker broker;
    (void)broker.CreateTopic("t", 1);
    for (size_t i = 0; i < kMessages; ++i) {
      (void)broker.Produce("t", "", T(static_cast<int64_t>(i)),
                           static_cast<Timestamp>(i));
    }
    BrokerSourceDriver driver(&broker, "t", "g",
                              {kPollRecords, /*max_out_of_orderness=*/0});
    Channel ch(credits);
    max_depth = 0;
    pauses = 0;
    depth_series.clear();
    state.ResumeTiming();

    size_t consumed = 0;
    bool paused = false;
    while (consumed < kMessages) {
      for (int burst = 0; burst < kPumpsPerPop; ++burst) {
        (void)*driver.PumpInto(&ch, &paused);
        if (paused) ++pauses;
      }
      size_t depth = ch.depth();
      depth_series.push_back(depth);
      if (depth > max_depth) max_depth = depth;
      StreamBatch got;
      if (depth > 0 && ch.Pop(&got)) {
        consumed += got.num_records();
        ch.Acknowledge();
      }
    }
  }
  // Print the depth-over-time series once per configuration (the harness
  // re-runs the body while calibrating iteration counts).
  static std::set<size_t> printed;
  if (printed.insert(credits).second) {
    if (printed.size() == 1) {
      std::printf("BENCH_SERIES case=slow_consumer_depth "
                  "x=pop_round y=queue_depth\n");
    }
    std::string series;
    for (size_t i = 0; i < depth_series.size(); i += 8) {
      if (!series.empty()) series += ",";
      series += std::to_string(depth_series[i]);
    }
    std::printf("BENCH_SERIES case=slow_consumer_depth credits=%zu "
                "max_depth=%zu pauses=%llu depths=%s\n",
                credits, max_depth, static_cast<unsigned long long>(pauses),
                series.c_str());
  }
  state.SetLabel(credits == 0 ? "unbounded" : "credits=" +
                                                  std::to_string(credits));
  state.counters["max_depth"] = static_cast<double>(max_depth);
  state.counters["pauses"] = static_cast<double>(pauses);
  SetPerItemMicros(state, static_cast<double>(kMessages));
}
BENCHMARK(BM_SlowConsumerQueueDepth)->Arg(4)->Arg(16)->Arg(0);

/// (c3) Observability overhead: the batch-delivery workload of (c1) with the
/// observability plane attached in increasing levels — range(0): 0 = bare,
/// 1 = metrics registry (per-node counters/latency/selectivity), 2 = metrics
/// plus per-push sampled span tracing. The acceptance bar for the plane is
/// that level 2 stays within 5% of level 0 on per-record cost; compare the
/// three labels in the committed baseline.
void BM_ObservabilityOverhead(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
      "filt", [](const Tuple& t) { return t[0].int64_value() % 10 != 0; }));
  NodeId map = g->AddNode(std::make_unique<MapOperator>(
      "map", [](const Tuple& t) -> Result<Tuple> {
        return Tuple({Value(t[0].int64_value() + 1)});
      }));
  NodeId sink = g->AddNode(std::make_unique<CountingSinkOperator>("sink"));
  (void)g->Connect(src, filt);
  (void)g->Connect(filt, map);
  (void)g->Connect(map, sink);
  PipelineExecutor exec(std::move(g));

  MetricsRegistry registry;
  TraceRecorder tracer(4096);
  if (level >= 1) exec.AttachMetrics(&registry);
  if (level >= 2) exec.AttachTracer(&tracer);

  constexpr size_t kRecords = 4096;
  constexpr size_t kBatch = 256;
  int64_t ts = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kRecords; i += kBatch) {
      StreamBatch batch;
      batch.reserve(kBatch);
      for (size_t j = i; j < i + kBatch; ++j) {
        batch.AddRecord(T(static_cast<int64_t>(j)), ts++);
      }
      if (level >= 2) {
        // Every push sampled: the worst-case tracing cost.
        TraceContext tc;
        tc.trace_id = NextTraceId();
        tc.parent_span = NextSpanId();
        tc.ingest_ns = MonotonicNanos();
        exec.SetActiveTrace(tc);
      }
      benchmark::DoNotOptimize(exec.PushBatch(src, batch));
      if (level >= 2) exec.ClearActiveTrace();
    }
  }
  state.SetLabel(level == 0 ? "off"
                            : (level == 1 ? "metrics" : "metrics+tracing"));
  SetPerItemMicros(state, static_cast<double>(kRecords));
}
BENCHMARK(BM_ObservabilityOverhead)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace cq
