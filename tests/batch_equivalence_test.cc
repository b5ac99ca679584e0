#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/session_operator.h"
#include "dataflow/window_operator.h"
#include "obs/metrics.h"
#include "runtime/batch.h"
#include "types/serde.h"

namespace cq {
namespace {

Tuple T2(int64_t k, int64_t v) { return Tuple({Value(k), Value(v)}); }

/// A built single-source pipeline ready to be driven either way.
struct Built {
  std::unique_ptr<PipelineExecutor> exec;
  NodeId source = 0;
  std::unique_ptr<BoundedStream> out;
};
using Builder = std::function<Built()>;

BoundedStream RunPerElement(const Builder& build,
                            const std::vector<StreamElement>& input) {
  Built p = build();
  for (const auto& e : input) {
    EXPECT_TRUE(p.exec->Push(p.source, e).ok());
  }
  return std::move(*p.out);
}

/// Pushes `input` to `source` through PushBatch, `next_chunk()` elements
/// per batch.
void PushChunked(PipelineExecutor* exec, NodeId source,
                 const std::vector<StreamElement>& input,
                 const std::function<size_t()>& next_chunk) {
  size_t i = 0;
  while (i < input.size()) {
    size_t chunk = next_chunk();
    StreamBatch batch;
    for (size_t j = i; j < std::min(input.size(), i + chunk); ++j) {
      batch.Add(input[j]);
    }
    EXPECT_TRUE(exec->PushBatch(source, batch).ok());
    i += chunk;
  }
}

/// Same records, timestamps and order, with tuples compared as serialized
/// bytes (not just Value equality).
void ExpectStreamsIdentical(const BoundedStream& a, const BoundedStream& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(TupleToBytes(a.at(i).tuple), TupleToBytes(b.at(i).tuple))
        << what << " element " << i;
    EXPECT_EQ(a.at(i).timestamp, b.at(i).timestamp) << what << " element " << i;
  }
}

/// Batched delivery must be output-identical to per-element delivery for
/// every chunking of the same input.
void ExpectBatchEquivalence(const Builder& build,
                            const std::vector<StreamElement>& input) {
  BoundedStream reference = RunPerElement(build, input);
  ASSERT_GT(reference.num_records(), 0u);
  for (size_t chunk : std::vector<size_t>{1, 3, 7, 64, input.size()}) {
    Built p = build();
    PushChunked(p.exec.get(), p.source, input, [chunk] { return chunk; });
    ExpectStreamsIdentical(reference, *p.out,
                           "chunk=" + std::to_string(chunk));
  }
}

/// Out-of-order keyed input with interleaved watermarks and a late-but-
/// admissible element (arrives behind the watermark, within lateness).
std::vector<StreamElement> WindowInput() {
  std::vector<StreamElement> in;
  for (int i = 0; i < 40; ++i) {
    // Timestamps jump around within a disorder bound of ~7.
    Timestamp ts = (i * 3) % 50 + (i % 2 == 0 ? 0 : 5);
    in.push_back(StreamElement::Record(T2(i % 4, i), ts));
    if (i % 10 == 9) {
      in.push_back(StreamElement::Watermark((i * 3) % 50));
    }
  }
  in.push_back(StreamElement::Watermark(30));
  // Late for windows ending <= 30, admissible under lateness 25: triggers
  // the per-element fallback (refinement firing).
  in.push_back(StreamElement::Record(T2(1, 100), 12));
  in.push_back(StreamElement::Record(T2(2, 101), 35));
  in.push_back(StreamElement::Watermark(90));
  return in;
}

Builder TumblingSumBuilder(std::shared_ptr<TriggerFactory> trigger) {
  return [trigger]() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    cfg.aggs.push_back({AggregateKind::kCount, nullptr, "n"});
    cfg.trigger = trigger;
    cfg.allowed_lateness = 25;
    auto g = std::make_unique<DataflowGraph>();
    p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId win = g->AddNode(
        std::make_unique<WindowedAggregateOperator>("win", cfg));
    NodeId sink = g->AddNode(
        std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(p.source, win).ok());
    EXPECT_TRUE(g->Connect(win, sink).ok());
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
}

TEST(BatchEquivalenceTest, TumblingWindowAfterWatermark) {
  // Exercises the window operator's columnar kernel plus its decline to
  // per-element delivery on segments holding a late row.
  ExpectBatchEquivalence(TumblingSumBuilder(TriggerFactory::AfterWatermark()),
                         WindowInput());
}

TEST(BatchEquivalenceTest, TumblingWindowAfterCountFallsBack) {
  // AfterCount is not passive on element arrival, so every batch must take
  // the per-element path — output still identical.
  ExpectBatchEquivalence(TumblingSumBuilder(TriggerFactory::AfterCount(3)),
                         WindowInput());
}

TEST(BatchEquivalenceTest, SessionWindows) {
  Builder build = []() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    SessionAggregateConfig cfg;
    cfg.gap = 5;
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    auto g = std::make_unique<DataflowGraph>();
    p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId sess = g->AddNode(
        std::make_unique<SessionWindowOperator>("sess", cfg));
    NodeId sink = g->AddNode(
        std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(p.source, sess).ok());
    EXPECT_TRUE(g->Connect(sess, sink).ok());
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
  ExpectBatchEquivalence(build, WindowInput());
}

TEST(BatchEquivalenceTest, FusedChainIntoWindow) {
  // A stateless filter -> map chain feeding a window: batches cross the
  // chain as one unit, and must still match per-element delivery.
  Builder build = []() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    auto g = std::make_unique<DataflowGraph>();
    NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
        "filt", [](const Tuple& t) { return t[1] < Value(int64_t{90}); }));
    NodeId map = g->AddNode(std::make_unique<MapOperator>(
        "map", [](const Tuple& t) -> Result<Tuple> {
          return Tuple({t[0], Value(t[1].int64_value() * 2)});
        }));
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kMax, Col(1), "max"});
    NodeId win = g->AddNode(
        std::make_unique<WindowedAggregateOperator>("win", cfg));
    NodeId sink = g->AddNode(
        std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(src, filt).ok());
    EXPECT_TRUE(g->Connect(filt, map).ok());
    EXPECT_TRUE(g->Connect(map, win).ok());
    EXPECT_TRUE(g->Connect(win, sink).ok());
    p.source = src;
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
  ExpectBatchEquivalence(build, WindowInput());
}

// --- Columnar vs per-element: randomized equivalence -----------------------
//
// PushBatch ships batches columnar and re-materialises rows at the first
// operator that cannot consume columns. These suites drive the same
// pipeline twice — columnar PushBatch in random chunks vs the per-element
// reference (Push) — and assert byte-identical output (serialized tuple
// bytes, not just Value equality), across randomized inputs with NULLs,
// watermark interleaving, and empty-selection batches.

/// Random tuples (int64 key, int64 v, double d) with ~1/8 NULLs per value
/// column and occasional NULL keys, watermarks interleaved every ~10 rows.
std::vector<StreamElement> RandomColumnarInput(uint32_t seed, size_t n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> val(0, 99);
  std::vector<StreamElement> in;
  Timestamp max_ts = 0;
  for (size_t i = 0; i < n; ++i) {
    Timestamp ts = static_cast<Timestamp>(i * 2 + rng() % 7);
    max_ts = std::max(max_ts, ts);
    Value k = rng() % 16 == 0 ? Value() : Value(static_cast<int64_t>(rng() % 4));
    Value v = rng() % 8 == 0 ? Value() : Value(val(rng));
    Value d = rng() % 8 == 0 ? Value() : Value(0.5 * static_cast<double>(val(rng)));
    in.push_back(StreamElement::Record(Tuple({k, v, d}), ts));
    if (i % 10 == 9) {
      in.push_back(StreamElement::Watermark(max_ts > 12 ? max_ts - 12 : 0));
    }
  }
  in.push_back(StreamElement::Watermark(max_ts + 100));
  return in;
}

/// Runs `input` through the pipeline via PushBatch in random chunk sizes
/// and via per-element Push; output must be byte-identical. `registry`,
/// when given, is attached to the batched run's executor.
void ExpectColumnarElementEquivalence(const Builder& build,
                                      const std::vector<StreamElement>& input,
                                      uint32_t seed,
                                      MetricsRegistry* registry = nullptr) {
  BoundedStream reference = RunPerElement(build, input);
  Built p = build();
  if (registry != nullptr) p.exec->AttachMetrics(registry);
  std::mt19937 rng(seed);
  PushChunked(p.exec.get(), p.source, input, [&rng] { return 1 + rng() % 17; });
  ASSERT_GT(reference.num_records(), 0u);
  ExpectStreamsIdentical(reference, *p.out, "columnar vs per-element");
}

Builder FilterProjectWindowBuilder(std::shared_ptr<WindowAssigner> assigner) {
  return [assigner]() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    auto g = std::make_unique<DataflowGraph>();
    p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    // NULL predicate results must drop rows exactly like the row path.
    NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
        "filt", Gt(Col(1), Lit(int64_t{20}))));
    NodeId proj = g->AddNode(std::make_unique<ProjectOperator>(
        "proj", std::vector<ExprPtr>{
                    Col(0), Bin(BinaryOp::kAdd, Col(1), Lit(int64_t{1})),
                    Bin(BinaryOp::kMul, Col(2), Lit(2.0))}));
    WindowedAggregateConfig cfg;
    cfg.assigner = assigner;
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    cfg.aggs.push_back({AggregateKind::kAvg, Col(2), "avg"});
    cfg.aggs.push_back({AggregateKind::kCount, nullptr, "n"});
    cfg.allowed_lateness = 25;
    NodeId win =
        g->AddNode(std::make_unique<WindowedAggregateOperator>("win", cfg));
    NodeId sink =
        g->AddNode(std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(p.source, filt).ok());
    EXPECT_TRUE(g->Connect(filt, proj).ok());
    EXPECT_TRUE(g->Connect(proj, win).ok());
    EXPECT_TRUE(g->Connect(win, sink).ok());
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
}

TEST(ColumnarEquivalenceTest, RandomizedTumblingFilterProjectWindow) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    ExpectColumnarElementEquivalence(
        FilterProjectWindowBuilder(std::make_shared<TumblingWindowAssigner>(10)),
        RandomColumnarInput(seed, 120), seed);
  }
}

TEST(ColumnarEquivalenceTest, RandomizedSlidingWindow) {
  for (uint32_t seed : {3u, 11u}) {
    ExpectColumnarElementEquivalence(
        FilterProjectWindowBuilder(
            std::make_shared<SlidingWindowAssigner>(20, 5)),
        RandomColumnarInput(seed, 120), seed);
  }
}

TEST(ColumnarEquivalenceTest, SparseTimestampsDeclineToPerElement) {
  // Timestamps 1000 apart put each watermark-delimited segment's window
  // grid far beyond 4 * rows + 64 slots: the window kernel declines and the
  // segment runs per element, with output unchanged.
  std::vector<StreamElement> input = RandomColumnarInput(17, 120);
  for (auto& e : input) e.timestamp *= 1000;
  MetricsRegistry registry;
  ExpectColumnarElementEquivalence(
      FilterProjectWindowBuilder(std::make_shared<TumblingWindowAssigner>(10)),
      input, 17, &registry);
  EXPECT_GT(registry
                .GetCounter("cq_dataflow_row_fallback_batches_total",
                            {{"node", "win"}, {"id", "3"}})
                ->value(),
            0u);
}

TEST(ColumnarEquivalenceTest, EmptySelectionBatchesStillFlowWatermarks) {
  // A filter nothing passes: every batch narrows to an empty selection, yet
  // the carried watermarks must still close windows identically.
  Builder build = []() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    auto g = std::make_unique<DataflowGraph>();
    p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
        "filt", Gt(Col(1), Lit(int64_t{1000}))));
    NodeId count = g->AddNode(std::make_unique<CountingSinkOperator>("count"));
    NodeId sink =
        g->AddNode(std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(p.source, filt).ok());
    EXPECT_TRUE(g->Connect(filt, count).ok());
    EXPECT_TRUE(g->Connect(p.source, sink).ok());
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
  ExpectColumnarElementEquivalence(build, RandomColumnarInput(5, 80), 5);
}

TEST(ColumnarEquivalenceTest, RowFallbackShimUnchangedResults) {
  // A function-filter (not vectorizable) then a map (row-only): the batch
  // falls back to rows mid-pipeline; results must be unchanged.
  Builder build = []() {
    Built p;
    p.out = std::make_unique<BoundedStream>();
    auto g = std::make_unique<DataflowGraph>();
    p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId filt = g->AddNode(std::make_unique<FilterOperator>(
        "vfilt", Gt(Col(1), Lit(int64_t{10}))));
    NodeId map = g->AddNode(std::make_unique<MapOperator>(
        "map", [](const Tuple& t) -> Result<Tuple> {
          return Tuple({t[0], t[1], t[2]});
        }));
    NodeId count = g->AddNode(std::make_unique<CountingSinkOperator>("count"));
    NodeId sink =
        g->AddNode(std::make_unique<CollectSinkOperator>("sink", p.out.get()));
    EXPECT_TRUE(g->Connect(p.source, filt).ok());
    EXPECT_TRUE(g->Connect(filt, map).ok());
    EXPECT_TRUE(g->Connect(map, count).ok());
    EXPECT_TRUE(g->Connect(map, sink).ok());
    p.exec = std::make_unique<PipelineExecutor>(std::move(g));
    return p;
  };
  ExpectColumnarElementEquivalence(build, RandomColumnarInput(9, 100), 9);
}

TEST(ColumnarEquivalenceTest, CoverageCountersDistinguishPaths) {
  // The same pipeline observed through the coverage counters: every
  // vectorizable node counts vectorized batches, and on this dense input
  // the window kernel never declines a segment to per-element delivery.
  MetricsRegistry registry;
  Built p = FilterProjectWindowBuilder(
      std::make_shared<TumblingWindowAssigner>(10))();
  p.exec->AttachMetrics(&registry);
  std::vector<StreamElement> input = RandomColumnarInput(21, 60);
  StreamBatch batch;
  for (const auto& e : input) batch.Add(e);
  ASSERT_TRUE(p.exec->PushBatch(p.source, batch).ok());
  auto counter = [&](const std::string& family, const std::string& node,
                     const std::string& id) {
    return registry
        .GetCounter(family, {{"node", node}, {"id", id}})
        ->value();
  };
  EXPECT_GT(counter("cq_dataflow_vectorized_batches_total", "filt", "1"), 0u);
  EXPECT_GT(counter("cq_dataflow_vectorized_batches_total", "proj", "2"), 0u);
  EXPECT_GT(counter("cq_dataflow_vectorized_batches_total", "win", "3"), 0u);
  EXPECT_EQ(counter("cq_dataflow_row_fallback_batches_total", "win", "3"), 0u);
}

}  // namespace
}  // namespace cq
