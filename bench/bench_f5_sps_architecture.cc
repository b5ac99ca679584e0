/// \file bench_f5_sps_architecture.cc
/// \brief F5 — Fig. 5: the abstract streaming-system architecture.
///
/// Two series:
///  (a) keyed parallelism scaling — throughput of a one-stage sharded
///      pipeline (router -> P shard tasks with keyed state) as P grows;
///  (b) the state-backend trade-off — the same windowed aggregation with
///      in-memory hash state vs. the embedded KV store (RocksDB stand-in).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "dataflow/operators.h"
#include "dataflow/window_operator.h"
#include "shard/sharded_pipeline.h"
#include "workload/generators.h"

namespace cq {
namespace {

constexpr size_t kTransactions = 20000;

TransactionWorkload& Workload() {
  static TransactionWorkload w =
      MakeTransactionWorkload(kTransactions, 256, 0.7, 500.0, 0, 21);
  return w;
}

/// Per-shard chain: filter, then keyed windowed SUM by account (column 1).
shard::ShardedPipeline::ChainFactory ShardChain() {
  return [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(128);
    cfg.key_indexes = {1};
    cfg.aggs.push_back({AggregateKind::kSum, Col(2), "total"});
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(
        std::make_unique<FilterOperator>("hot", Gt(Col(2), Lit(10.0))));
    ops.push_back(
        std::make_unique<WindowedAggregateOperator>("win", std::move(cfg)));
    return ops;
  };
}

void BM_KeyedParallelismScaling(benchmark::State& state) {
  TransactionWorkload& w = Workload();
  const size_t parallelism = static_cast<size_t>(state.range(0));
  size_t results = 0;
  for (auto _ : state) {
    shard::ShardedPipeline pipeline(parallelism, ShardChain(), {1});
    benchmark::DoNotOptimize(pipeline.Start());
    for (const auto& e : w.transactions) {
      if (!e.is_record()) continue;
      benchmark::DoNotOptimize(pipeline.Send(e.tuple, e.timestamp));
    }
    benchmark::DoNotOptimize(
        pipeline.BroadcastWatermark(w.transactions.MaxTimestamp() + 256));
    BoundedStream out = *pipeline.Finish();
    results = out.num_records();
  }
  state.counters["workers"] = static_cast<double>(parallelism);
  state.counters["results"] = static_cast<double>(results);
  SetPerItemMicros(state, static_cast<double>(kTransactions));
}
BENCHMARK(BM_KeyedParallelismScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void RunWithBackend(benchmark::State& state, KeyedStateBackend* backend) {
  TransactionWorkload& w = Workload();
  size_t results = 0;
  for (auto _ : state) {
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(128);
    cfg.key_indexes = {1};
    cfg.aggs.push_back({AggregateKind::kSum, Col(2), "total"});
    cfg.state = backend;
    auto g = std::make_unique<DataflowGraph>();
    NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId win = g->AddNode(
        std::make_unique<WindowedAggregateOperator>("win", std::move(cfg)));
    auto* counter = new CountingSinkOperator("sink");
    NodeId sink = g->AddNode(std::unique_ptr<Operator>(counter));
    (void)g->Connect(src, win);
    (void)g->Connect(win, sink);
    PipelineExecutor exec(std::move(g));
    for (const auto& e : w.transactions) {
      if (e.is_record()) {
        benchmark::DoNotOptimize(exec.PushRecord(src, e.tuple, e.timestamp));
      }
    }
    benchmark::DoNotOptimize(
        exec.PushWatermark(src, w.transactions.MaxTimestamp() + 256));
    results = counter->count();
    benchmark::DoNotOptimize(backend->Clear());
  }
  state.counters["results"] = static_cast<double>(results);
  SetPerItemMicros(state, static_cast<double>(kTransactions));
}

void BM_StateBackend_InMemory(benchmark::State& state) {
  InMemoryStateBackend backend;
  RunWithBackend(state, &backend);
  state.SetLabel("in-memory hash state");
}
BENCHMARK(BM_StateBackend_InMemory);

void BM_StateBackend_KVStore(benchmark::State& state) {
  auto db = std::move(KVStore::Open(KVStoreOptions{})).value();
  KVStoreStateBackend backend(db.get());
  RunWithBackend(state, &backend);
  state.SetLabel("embedded KV-store state");
}
BENCHMARK(BM_StateBackend_KVStore);

}  // namespace
}  // namespace cq
