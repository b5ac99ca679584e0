#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/window_operator.h"
#include "obs/metrics.h"
#include "runtime/columnar_batch.h"
#include "shard/exchange.h"
#include "shard/partitioner.h"
#include "shard/planner.h"
#include "shard/sharded_pipeline.h"
#include "shard/sharded_service.h"
#include "types/serde.h"
#include "workload/generators.h"

namespace cq::shard {
namespace {

Tuple T2(int64_t k, int64_t v) { return Tuple({Value(k), Value(v)}); }

WindowedAggregateConfig SumConfig(std::vector<size_t> keys, size_t value_col,
                                  const char* out_name) {
  WindowedAggregateConfig cfg;
  cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
  cfg.key_indexes = std::move(keys);
  cfg.aggs.push_back(
      {AggregateKind::kSum, Col(value_col), out_name});
  return cfg;
}

/// One stage: keyed windowed SUM(col 1) by col 0.
ShardedPipeline::ChainFactory SumChainFactory() {
  return [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<WindowedAggregateOperator>(
        "win", SumConfig({0}, 1, "sum")));
    return ops;
  };
}

/// Two stages: per-key windowed SUM, then a rollup keyed by window start —
/// the rollup's key (column 1 of the intermediate schema
/// (key, win_start, win_end, sum)) is not the per-key output key, so the
/// planner must place an exchange between the two operators.
ShardedPipeline::ChainFactory RollupChainFactory() {
  return [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<WindowedAggregateOperator>(
        "per-key", SumConfig({0}, 1, "sum")));
    ops.push_back(std::make_unique<WindowedAggregateOperator>(
        "rollup", SumConfig({1}, 3, "total")));
    return ops;
  };
}

// --- planner ---------------------------------------------------------------

TEST(ShardPlannerTest, HoistsFirstKeyRequirementToIngest) {
  auto pass = std::make_unique<PassThroughOperator>("p");
  auto win = std::make_unique<WindowedAggregateOperator>(
      "win", SumConfig({0}, 1, "sum"));
  auto stages = ShardPlanner::PlanChain({pass.get(), win.get()}, {});
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  ASSERT_EQ(stages->size(), 1u);
  EXPECT_EQ((*stages)[0].begin, 0u);
  EXPECT_EQ((*stages)[0].end, 2u);
  // The window's key requirement travels back through the
  // partition-preserving passthrough to the ingest split.
  EXPECT_EQ((*stages)[0].partition_key, std::vector<size_t>({0}));
}

TEST(ShardPlannerTest, ReKeysIngestInsteadOfEmptyFirstStage) {
  // Caller claims the ingest is split by column 1, but the first operator
  // needs column 0: the planner re-keys the ingest split rather than
  // paying an exchange into an empty stage.
  auto win = std::make_unique<WindowedAggregateOperator>(
      "win", SumConfig({0}, 1, "sum"));
  auto stages = ShardPlanner::PlanChain({win.get()}, {1});
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  ASSERT_EQ(stages->size(), 1u);
  EXPECT_EQ((*stages)[0].partition_key, std::vector<size_t>({0}));
}

TEST(ShardPlannerTest, CutsAtReKeyBoundary) {
  auto a = std::make_unique<WindowedAggregateOperator>(
      "a", SumConfig({0}, 1, "sum"));
  auto b = std::make_unique<WindowedAggregateOperator>(
      "b", SumConfig({1}, 3, "total"));
  auto stages = ShardPlanner::PlanChain({a.get(), b.get()}, {});
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  ASSERT_EQ(stages->size(), 2u);
  EXPECT_EQ((*stages)[0].partition_key, std::vector<size_t>({0}));
  EXPECT_EQ((*stages)[0].end, 1u);
  EXPECT_EQ((*stages)[1].begin, 1u);
  EXPECT_EQ((*stages)[1].partition_key, std::vector<size_t>({1}));
}

TEST(ShardPlannerTest, KeyPreservingDownstreamOpStaysInStage) {
  // agg keyed {0} -> passthrough -> agg keyed {0}: the second agg's key is
  // satisfied by the first one's output partitioning, so one stage.
  auto a = std::make_unique<WindowedAggregateOperator>(
      "a", SumConfig({0}, 1, "sum"));
  auto p = std::make_unique<PassThroughOperator>("p");
  auto b = std::make_unique<WindowedAggregateOperator>(
      "b", SumConfig({0}, 3, "total"));
  auto stages = ShardPlanner::PlanChain({a.get(), p.get(), b.get()}, {});
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  EXPECT_EQ(stages->size(), 1u);
}

TEST(ShardPlannerTest, RejectsMultiInputOperators) {
  struct TwoPortOp : Operator {
    TwoPortOp() : Operator("two-port", 2) {}
    Status ProcessElement(size_t, const StreamElement&, const OperatorContext&,
                          Collector*) override {
      return Status::OK();
    }
  };
  TwoPortOp op;
  auto stages = ShardPlanner::PlanChain({&op}, {});
  EXPECT_FALSE(stages.ok());
}

// --- hash split ------------------------------------------------------------

TEST(HashExchangeTest, RowSplitRoutesRecordsAndBroadcastsWatermarks) {
  ShardPartitioner part(4, {0});
  StreamBatch in;
  for (int64_t i = 0; i < 32; ++i) in.AddRecord(T2(i % 8, i), i);
  in.AddWatermark(40);
  std::vector<StreamBatch> splits = SplitRowBatch(in, part);
  ASSERT_EQ(splits.size(), 4u);
  size_t records = 0;
  for (size_t s = 0; s < splits.size(); ++s) {
    ASSERT_FALSE(splits[s].empty());
    for (const auto& e : splits[s].elements()) {
      if (e.is_record()) {
        ++records;
        EXPECT_EQ(part.ShardOfTuple(e.tuple), s);
      }
    }
    // The watermark is broadcast: every split ends with it.
    EXPECT_TRUE(splits[s].elements().back().is_watermark());
    EXPECT_EQ(splits[s].elements().back().timestamp, 40);
  }
  EXPECT_EQ(records, 32u);
}

TEST(HashExchangeTest, ColumnarSplitMatchesRowSplit) {
  ShardPartitioner part(3, {0});
  StreamBatch rows;
  for (int64_t i = 0; i < 10; ++i) rows.AddRecord(T2(i % 7, i), i);
  rows.AddWatermark(9);
  for (int64_t i = 10; i < 20; ++i) rows.AddRecord(T2(i % 7, i), i);
  rows.AddWatermark(19);

  auto cb = ColumnarBatch::FromRows(rows);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  auto col_splits = SplitColumnarBatch(*cb, part);
  ASSERT_TRUE(col_splits.ok()) << col_splits.status().ToString();
  std::vector<StreamBatch> row_splits = SplitRowBatch(rows, part);

  ASSERT_EQ(col_splits->size(), row_splits.size());
  for (size_t s = 0; s < row_splits.size(); ++s) {
    StreamBatch from_columnar = (*col_splits)[s].ToRows();
    ASSERT_EQ(from_columnar.size(), row_splits[s].size()) << "shard " << s;
    for (size_t i = 0; i < from_columnar.size(); ++i) {
      const StreamElement& a = from_columnar[i];
      const StreamElement& b = row_splits[s][i];
      EXPECT_EQ(a.kind, b.kind) << "shard " << s << " elem " << i;
      EXPECT_EQ(a.timestamp, b.timestamp) << "shard " << s << " elem " << i;
      if (a.is_record()) {
        EXPECT_EQ(a.tuple, b.tuple) << "shard " << s << " elem " << i;
      }
    }
  }
}

// --- sharded pipeline: equivalence ----------------------------------------

BoundedStream RunSharded(size_t nshards,
                         const ShardedPipeline::ChainFactory& factory,
                         const TransactionWorkload& w,
                         ShardedPipelineOptions options = {}) {
  ShardedPipeline pipeline(nshards, factory, {}, options);
  EXPECT_TRUE(pipeline.Start().ok());
  for (const auto& e : w.transactions) {
    if (!e.is_record()) continue;
    // Re-key: use the account column as both key and value.
    Tuple t({e.tuple[1], e.tuple[1]});
    EXPECT_TRUE(pipeline.Send(std::move(t), e.timestamp).ok());
  }
  EXPECT_TRUE(
      pipeline.BroadcastWatermark(w.transactions.MaxTimestamp() + 100).ok());
  auto out = pipeline.Finish();
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(*out) : BoundedStream();
}

/// The same chain unsharded: passthrough source -> chain -> sink, every
/// record pushed one at a time through the per-element reference path.
/// Output is put in ShardedPipeline::Finish's merge order, (timestamp,
/// tuple), so it lines up with a sharded run.
BoundedStream RunPerElement(const ShardedPipeline::ChainFactory& factory,
                            const TransactionWorkload& w) {
  BoundedStream out;
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId prev = src;
  auto ops = factory(0);
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  if (!ops.ok()) return out;
  for (auto& op : *ops) {
    NodeId id = g->AddNode(std::move(op));
    EXPECT_TRUE(g->Connect(prev, id).ok());
    prev = id;
  }
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", &out));
  EXPECT_TRUE(g->Connect(prev, sink).ok());
  PipelineExecutor exec(std::move(g));
  for (const auto& e : w.transactions) {
    if (!e.is_record()) continue;
    EXPECT_TRUE(exec.PushRecord(src, Tuple({e.tuple[1], e.tuple[1]}),
                                e.timestamp)
                    .ok());
  }
  EXPECT_TRUE(
      exec.PushWatermark(src, w.transactions.MaxTimestamp() + 100).ok());
  std::vector<StreamElement> all;
  for (const StreamElement& e : out) {
    if (e.is_record()) all.push_back(e);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const StreamElement& a, const StreamElement& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return a.tuple.Compare(b.tuple) < 0;
                   });
  BoundedStream sorted;
  for (StreamElement& e : all) sorted.Append(std::move(e));
  return sorted;
}

void ExpectSameStream(const BoundedStream& a, const BoundedStream& b) {
  ASSERT_EQ(a.num_records(), b.num_records());
  for (size_t i = 0; i < a.num_records(); ++i) {
    EXPECT_EQ(TupleToBytes(a.at(i).tuple), TupleToBytes(b.at(i).tuple)) << i;
    EXPECT_EQ(a.at(i).timestamp, b.at(i).timestamp) << i;
  }
}

TEST(ShardedPipelineTest, ResultsIndependentOfShardCount) {
  TransactionWorkload w = MakeTransactionWorkload(500, 20, 0.8, 100, 0, 99);
  BoundedStream s1 = RunSharded(1, SumChainFactory(), w);
  BoundedStream s4 = RunSharded(4, SumChainFactory(), w);
  BoundedStream s8 = RunSharded(8, SumChainFactory(), w);
  // Tiny ship units and channel credits change only the interleaving.
  ShardedPipelineOptions tiny;
  tiny.batch_size = 3;
  tiny.channel_credits = 2;
  BoundedStream s4_tiny = RunSharded(4, SumChainFactory(), w, tiny);
  ASSERT_GT(s1.num_records(), 0u);
  ExpectSameStream(s1, s4);
  ExpectSameStream(s1, s8);
  ExpectSameStream(s1, s4_tiny);
}

TEST(ShardedPipelineTest, RowAndColumnarExecutionAgree) {
  // Sharded runs ship columnar batches; the unsharded per-element run of
  // the same chain is the reference.
  TransactionWorkload w = MakeTransactionWorkload(400, 15, 0.8, 100, 0, 99);
  BoundedStream reference = RunPerElement(SumChainFactory(), w);
  BoundedStream col = RunSharded(4, SumChainFactory(), w);
  ASSERT_GT(reference.num_records(), 0u);
  ExpectSameStream(reference, col);
}

TEST(ShardedPipelineTest, ColumnarIngestMatchesRowIngest) {
  TransactionWorkload w = MakeTransactionWorkload(300, 10, 0.8, 100, 0, 99);
  BoundedStream by_send = RunSharded(4, SumChainFactory(), w);

  ShardedPipeline pipeline(4, SumChainFactory(), {});
  ASSERT_TRUE(pipeline.Start().ok());
  StreamBatch buffer;
  auto ship = [&] {
    if (buffer.empty()) return;
    auto cb = ColumnarBatch::FromRows(buffer);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    ASSERT_TRUE(pipeline.PushColumnar(*cb).ok());
    buffer.clear();
  };
  for (const auto& e : w.transactions) {
    if (!e.is_record()) continue;
    buffer.AddRecord(Tuple({e.tuple[1], e.tuple[1]}), e.timestamp);
    if (buffer.size() >= 64) ship();
  }
  ship();
  ASSERT_TRUE(
      pipeline.BroadcastWatermark(w.transactions.MaxTimestamp() + 100).ok());
  auto out = pipeline.Finish();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectSameStream(by_send, *out);
}

TEST(ShardedPipelineTest, TwoStageReKeyMatchesSingleShard) {
  TransactionWorkload w = MakeTransactionWorkload(400, 12, 0.8, 100, 0, 99);
  ShardedPipeline probe(4, RollupChainFactory(), {});
  ASSERT_TRUE(probe.Start().ok());
  ASSERT_EQ(probe.num_stages(), 2u);
  EXPECT_EQ(probe.stages()[1].partition_key, std::vector<size_t>({1}));
  ASSERT_TRUE(probe.Finish().ok());

  BoundedStream s1 = RunSharded(1, RollupChainFactory(), w);
  BoundedStream s4 = RunSharded(4, RollupChainFactory(), w);
  ASSERT_GT(s1.num_records(), 0u);
  ExpectSameStream(s1, s4);
}

TEST(ShardedPipelineTest, SkewedKeysConcentrateOnOwningShard) {
  ShardedPipeline pipeline(4, SumChainFactory(), {});
  ASSERT_TRUE(pipeline.Start().ok());
  for (int i = 0; i < 1000; ++i) {
    // 90% of the traffic hammers key 7.
    int64_t key = (i % 10 == 0) ? (i / 10) % 5 : 7;
    ASSERT_TRUE(pipeline.Send(T2(key, 1), 5).ok());
  }
  const size_t hot = ShardPartitioner(4, {0}).ShardOfTuple(T2(7, 0));
  uint64_t total = 0;
  for (size_t s = 0; s < 4; ++s) total += pipeline.records_routed(s);
  EXPECT_EQ(total, 1000u);
  EXPECT_GE(pipeline.records_routed(hot), 900u);
  ASSERT_TRUE(pipeline.BroadcastWatermark(100).ok());
  BoundedStream out = *pipeline.Finish();
  // All 900 skewed records still aggregate into a single per-key window.
  bool found_hot_key = false;
  for (const auto& e : out) {
    if (e.tuple[0] == Value(int64_t{7})) {
      found_hot_key = true;
      EXPECT_EQ(e.tuple[3], Value(900.0));
    }
  }
  EXPECT_TRUE(found_hot_key);
}

// --- watermark min-merge across exchanges ----------------------------------

TEST(ShardedPipelineTest, ExchangeWatermarkAdvanceIsMinMerged) {
  // Regression for out-of-order watermark advance across an exchange: a
  // fast upstream shard's watermark must not advance a downstream task's
  // clock past records still in flight from a slow shard. Drive one
  // downstream task's input channels directly to pin the interleaving.
  ShardedPipeline pipeline(2, RollupChainFactory(), {});
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_EQ(pipeline.num_stages(), 2u);

  // Intermediate record as stage 0 would emit it: (key, ws, we, sum).
  Tuple mid({Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{10}),
             Value(5.0)});
  const size_t target =
      ShardPartitioner(2, pipeline.stages()[1].partition_key)
          .ShardOfTuple(mid);
  Channel* fast = pipeline.input_channel(1, target, 0);
  Channel* slow = pipeline.input_channel(1, target, 1);

  // Producer 0 races ahead to watermark 100 while producer 1 still has a
  // ts=9 record queued. With min-merge the rollup window [0,10) must wait;
  // without it the watermark would fire the empty window and drop the
  // record as late.
  StreamBatch ahead;
  ahead.AddWatermark(100);
  ASSERT_TRUE(fast->Push(std::move(ahead)).ok());
  fast->WaitUntilIdle();

  StreamBatch behind;
  behind.AddRecord(mid, 9);
  behind.AddWatermark(100);
  ASSERT_TRUE(slow->Push(std::move(behind)).ok());
  slow->WaitUntilIdle();

  BoundedStream out = *pipeline.Finish();
  ASSERT_EQ(out.num_records(), 1u);
  EXPECT_EQ(out.at(0).tuple,
            Tuple({Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{10}),
                   Value(5.0)}));
}

// --- barriers through the grid ---------------------------------------------

TEST(ShardedPipelineTest, BarrierSnapshotsFanThroughExchanges) {
  constexpr size_t kShards = 2;
  std::mutex mu;
  std::map<uint64_t, size_t> reports;
  std::map<uint64_t, size_t> failures;
  ShardedPipeline pipeline(kShards, RollupChainFactory(), {});
  pipeline.SetBarrierHandler(
      [&](uint64_t epoch, size_t slot, Result<std::string> snapshot) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_LT(slot, 1 + 2 * kShards);
        ++reports[epoch];
        if (!snapshot.ok()) ++failures[epoch];
      });
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_EQ(pipeline.num_stages(), 2u);
  EXPECT_EQ(pipeline.BarrierFanIn(), 1 + 2 * kShards);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(pipeline.Send(T2(i % 5, 1), 5).ok());
  }
  ASSERT_TRUE(pipeline.InjectBarrier(1).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(pipeline.Send(T2(i % 5, 1), 15).ok());
  }
  ASSERT_TRUE(pipeline.InjectBarrier(2).ok());
  ASSERT_TRUE(pipeline.BroadcastWatermark(100).ok());
  ASSERT_TRUE(pipeline.Finish().ok());
  EXPECT_EQ(reports[1], 1 + 2 * kShards);
  EXPECT_EQ(reports[2], 1 + 2 * kShards);
  EXPECT_TRUE(failures.empty());
}

TEST(ShardedPipelineTest, CheckpointRestoreRoundTrip) {
  auto send_half = [](ShardedPipeline* p, int64_t ts) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(p->Send(T2(i % 3, 1), ts).ok());
    }
  };
  ShardedPipeline a(2, SumChainFactory(), {});
  ASSERT_TRUE(a.Start().ok());
  send_half(&a, 5);
  Result<std::string> image = a.Checkpoint({{"txns/0", 30}});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  send_half(&a, 15);
  ASSERT_TRUE(a.BroadcastWatermark(100).ok());
  BoundedStream reference = *a.Finish();
  ASSERT_GT(reference.num_records(), 0u);

  ShardedPipeline b(2, SumChainFactory(), {});
  ASSERT_TRUE(b.Start().ok());
  auto offsets = b.Restore(*image);
  ASSERT_TRUE(offsets.ok()) << offsets.status().ToString();
  EXPECT_EQ((*offsets)["txns/0"], 30);
  send_half(&b, 15);
  ASSERT_TRUE(b.BroadcastWatermark(100).ok());
  BoundedStream restored = *b.Finish();
  ExpectSameStream(reference, restored);
}

TEST(ShardedPipelineTest, LifecycleErrors) {
  EXPECT_EQ(ShardedPipeline(0, SumChainFactory(), {}).nshards(), 1u);
  ShardedPipeline pipeline(2, SumChainFactory(), {});
  // Exact before Start, when a coordinator sizes its barrier aligner:
  // meta slot + one task per shard.
  EXPECT_EQ(pipeline.BarrierFanIn(), 3u);
  EXPECT_FALSE(pipeline.Send(T2(1, 1), 1).ok());  // not started
  ASSERT_TRUE(pipeline.Start().ok());
  EXPECT_FALSE(pipeline.Start().ok());  // double start
  StreamBatch with_barrier;
  with_barrier.Add(StreamElement::Barrier(1));
  EXPECT_FALSE(pipeline.PushBatch(with_barrier).ok());
  ASSERT_TRUE(pipeline.Finish().ok());
  EXPECT_FALSE(pipeline.Send(T2(1, 1), 1).ok());  // finished
}

TEST(ShardedPipelineTest, ExportsShardMetricFamilies) {
  MetricsRegistry registry;
  ShardedPipeline pipeline(2, RollupChainFactory(), {});
  ASSERT_TRUE(pipeline.Start().ok());
  pipeline.AttachMetrics(&registry);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pipeline.Send(T2(i % 8, 1), 5).ok());
  }
  ASSERT_TRUE(pipeline.BroadcastWatermark(100).ok());
  ASSERT_TRUE(pipeline.Flush().ok());
  ASSERT_TRUE(pipeline.Finish().ok());

  uint64_t routed = 0;
  uint64_t exchange_batches = 0;
  for (size_t s = 0; s < 2; ++s) {
    const LabelSet labels = {{"shard", std::to_string(s)}};
    routed += registry.GetCounter("cq_shard_records_total", labels)->value();
    exchange_batches +=
        registry.GetCounter("cq_shard_exchange_batches_total", labels)
            ->value();
  }
  EXPECT_EQ(routed, 200u);
  EXPECT_GT(exchange_batches, 0u);
  EXPECT_GE(registry.GetDoubleGauge("cq_shard_skew_ratio")->value(), 1.0);
}

// --- sharded service -------------------------------------------------------

SchemaPtr TradesSchema() {
  return Schema::Make({{"sym", ValueType::kString},
                       {"price", ValueType::kInt64},
                       {"qty", ValueType::kInt64}});
}

Tuple Trade(const char* sym, int64_t price, int64_t qty) {
  return Tuple{Value(sym), Value(price), Value(qty)};
}

TEST(ShardedServiceTest, ValidatesQueryShapesAgainstShardKeys) {
  ShardedQueryService svc(4);
  ASSERT_TRUE(svc.RegisterStream("trades", TradesSchema(), {0}).ok());
  ASSERT_TRUE(svc.RegisterStream("audit", TradesSchema(), {}).ok());

  // Keyed aggregate grouped by the shard key decomposes by shard: accepted.
  EXPECT_TRUE(svc.RegisterQuery("SELECT sym, SUM(qty) AS total FROM trades "
                                "[Range 100] GROUP BY sym")
                  .ok());
  // Record-wise queries are always shard-safe.
  EXPECT_TRUE(
      svc.RegisterQuery("SELECT sym FROM trades [Range 100] WHERE price > 10")
          .ok());
  // A global aggregate over a sharded stream would be partial per shard.
  EXPECT_FALSE(
      svc.RegisterQuery("SELECT SUM(qty) AS total FROM trades [Range 100]")
          .ok());
  // Grouping that does not cover the shard key splits groups across shards.
  EXPECT_FALSE(svc.RegisterQuery("SELECT price, SUM(qty) AS total FROM trades "
                                 "[Range 100] GROUP BY price")
                   .ok());
  // Streams pinned to one shard (empty key) accept any shape.
  EXPECT_TRUE(
      svc.RegisterQuery("SELECT SUM(qty) AS total FROM audit [Range 100]")
          .ok());
}

std::vector<std::string> DrainCanon(const ShardedSubscriptionPtr& sub) {
  std::vector<std::string> out;
  StreamBatch batch;
  while (sub->TryPoll(&batch)) {
    for (const auto& e : batch) {
      if (e.is_record()) {
        out.push_back(std::to_string(e.timestamp) + "@" + e.tuple.ToString());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PushTrades(ShardedQueryService* svc, int from, int to) {
  const char* syms[] = {"a", "b", "c", "d"};
  for (int i = from; i < to; ++i) {
    ASSERT_TRUE(svc->PushRecord("trades", Trade(syms[i % 4], i % 7, i), i)
                    .ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(svc->PushWatermark("trades", i).ok());
    }
  }
}

TEST(ShardedServiceTest, ShardedOutputMatchesSingleShard) {
  const std::vector<std::string> sqls = {
      "SELECT sym, SUM(qty) AS total FROM trades [Range 20] GROUP BY sym",
      "SELECT sym, qty FROM trades [Range 20] WHERE price > 3",
  };
  auto run = [&](size_t nshards) {
    ShardedQueryService svc(nshards);
    EXPECT_TRUE(svc.RegisterStream("trades", TradesSchema(), {0}).ok());
    std::vector<ShardedSubscriptionPtr> subs;
    for (const auto& sql : sqls) {
      auto id = svc.RegisterQuery(sql);
      EXPECT_TRUE(id.ok()) << id.status().ToString();
      subs.push_back(*svc.Subscribe(*id));
    }
    PushTrades(&svc, 0, 80);
    std::vector<std::vector<std::string>> out;
    for (auto& sub : subs) out.push_back(DrainCanon(sub));
    return out;
  };
  auto unsharded = run(1);
  auto sharded = run(4);
  ASSERT_EQ(unsharded.size(), sharded.size());
  for (size_t q = 0; q < unsharded.size(); ++q) {
    EXPECT_FALSE(unsharded[q].empty()) << "query " << q;
    EXPECT_EQ(unsharded[q], sharded[q]) << "query " << q;
  }
}

TEST(ShardedServiceTest, ReplicasAgreeOnSharingAndRouting) {
  ShardedQueryService svc(3);
  ASSERT_TRUE(svc.RegisterStream("trades", TradesSchema(), {0}).ok());
  auto id1 = svc.RegisterQuery(
      "SELECT sym, qty FROM trades [Range 20] WHERE price > 3");
  auto id2 = svc.RegisterQuery(
      "SELECT sym, SUM(qty) AS total FROM trades [Range 20] "
      "WHERE price > 3 GROUP BY sym");
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_NE(*id1, *id2);

  // Shared-subplan refcounts are per logical node and identical across
  // replicas (same SQL registered in the same order everywhere).
  auto expected = svc.replica(0)->SharedRefCounts();
  EXPECT_FALSE(expected.empty());
  for (size_t r = 1; r < svc.nshards(); ++r) {
    EXPECT_EQ(svc.replica(r)->SharedRefCounts(), expected) << "replica " << r;
  }

  PushTrades(&svc, 0, 60);
  uint64_t total = 0;
  for (size_t s = 0; s < svc.nshards(); ++s) total += svc.records_routed(s);
  EXPECT_EQ(total, 60u);

  ASSERT_TRUE(svc.DropQuery(*id2).ok());
  for (size_t r = 0; r < svc.nshards(); ++r) {
    EXPECT_EQ(svc.replica(r)->NumActiveQueries(), 1u) << "replica " << r;
  }
}

TEST(ShardedServiceTest, CanonicalSharingComposesWithSharding) {
  // Textually-different but semantically-equal queries must land on one
  // shared chain on EVERY replica (plan canonicalization composes with
  // scale-out), and later registrations must keep replicas agreeing.
  ShardedQueryService svc(3);
  ASSERT_TRUE(svc.RegisterStream("trades", TradesSchema(), {0}).ok());
  auto id1 = svc.RegisterQuery(
      "SELECT sym FROM trades [Range 20] WHERE price > 3 AND qty < 9");
  auto id2 = svc.RegisterQuery(
      "SELECT sym FROM trades [Range 20] WHERE qty < 9 AND 3 < price");
  ASSERT_TRUE(id1.ok() && id2.ok());

  size_t base_ops = svc.replica(0)->NumOperators();
  for (size_t r = 0; r < svc.nshards(); ++r) {
    // Second query added only its private sink on each replica.
    EXPECT_EQ(svc.replica(r)->NumOperators(), base_ops) << "replica " << r;
    size_t fully_shared = 0;
    for (const auto& [fp, refs] : svc.replica(r)->SharedRefCounts()) {
      if (refs == 2) fully_shared++;
    }
    EXPECT_GE(fully_shared, base_ops - 2) << "replica " << r;
  }

  // A later registration lands identically on every replica.
  auto id3 = svc.RegisterQuery(
      "SELECT sym FROM trades [Range 20] WHERE price > 3 AND qty < 9");
  ASSERT_TRUE(id3.ok()) << id3.status().ToString();
  auto expected = svc.replica(0)->SharedRefCounts();
  for (size_t r = 1; r < svc.nshards(); ++r) {
    EXPECT_EQ(svc.replica(r)->SharedRefCounts(), expected) << "replica " << r;
  }
}

}  // namespace
}  // namespace cq::shard
