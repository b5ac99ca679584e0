#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/session_operator.h"
#include "dataflow/window_operator.h"
#include "obs/metrics.h"
#include "runtime/batch.h"
#include "service/operators.h"
#include "service/service.h"
#include "sql/planner.h"
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

// --- Plan kernel: window deltas folded from columns ------------------------
//
// A registered query's plan operator buffers the window's columnar delta
// runs and folds them straight from the columns. PushRecord/PushWatermark
// bring the window's insertions to the plan as tuples (its expirations
// still arrive as a columnar run; the row-only twin further down folds
// every delta from tuples). Both must produce the same output sequences
// and the same snapshot bytes at every point, including mid-instant.

SchemaPtr KernelSchema() {
  return Schema::Make({{"k", ValueType::kString},
                       {"a", ValueType::kInt64},
                       {"x", ValueType::kDouble},
                       {"b", ValueType::kInt64}});
}

Catalog KernelCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterStream("s", KernelSchema()).ok());
  return catalog;
}

/// Records over small domains with ~1/8 NULLs, some repeated at once (so
/// one interval holds duplicates), DOUBLEs of mixed magnitude (so a sum
/// folded in another order rounds differently), a little disorder (some
/// records arrive late), and watermarks at irregular gaps (so short
/// windows admit and expire a tuple within one interval).
std::vector<StreamElement> RandomDeltaInput(uint32_t seed, size_t n) {
  std::mt19937 rng(seed);
  const char* keys[] = {"p", "q", "r"};
  const double xs[] = {0.1, 0.2, 0.3, 1e16, -1e16, 2.5, -0.7};
  std::vector<StreamElement> in;
  Timestamp max_ts = 0, last_wm = -1;
  Tuple last;
  for (size_t i = 0; i < n; ++i) {
    const Timestamp ts =
        static_cast<Timestamp>(i) + static_cast<Timestamp>(rng() % 4) - 1;
    max_ts = std::max(max_ts, ts);
    Tuple t;
    if (i > 0 && rng() % 5 == 0) {
      t = last;
    } else {
      t = Tuple({rng() % 10 == 0 ? Value() : Value(keys[rng() % 3]),
                 rng() % 8 == 0 ? Value() : Value(int64_t(rng() % 5)),
                 rng() % 8 == 0 ? Value() : Value(xs[rng() % 7]),
                 rng() % 8 == 0 ? Value() : Value(int64_t(rng() % 7) - 3)});
    }
    last = t;
    in.push_back(StreamElement::Record(std::move(t), ts));
    // Strictly increasing, so a restored executor (whose watermarks start
    // over) releases the same instants.
    if (rng() % 4 == 0 && max_ts - 1 > last_wm) {
      last_wm = max_ts - 1;
      in.push_back(StreamElement::Watermark(last_wm));
    }
  }
  in.push_back(StreamElement::Watermark(max_ts + 100));
  return in;
}

/// Records and watermarks as they reached a subscriber, tuples as bytes.
std::vector<std::string> Flatten(const std::vector<StreamElement>& elements) {
  std::vector<std::string> out;
  for (const StreamElement& e : elements) {
    out.push_back((e.is_record() ? TupleToBytes(e.tuple) : "wm") + "@" +
                  std::to_string(e.timestamp));
  }
  return out;
}

/// Empty when the snapshot images are equal, else where they first differ
/// (the images are too long to print whole).
std::string SnapshotDiff(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  if (a.size() != b.size()) return "slot counts differ";
  for (size_t s = 0; s < a.size(); ++s) {
    if (a[s] == b[s]) continue;
    size_t i = 0;
    while (i < a[s].size() && i < b[s].size() && a[s][i] == b[s][i]) ++i;
    const size_t from = i < 48 ? 0 : i - 48;
    auto hex = [](const std::string& bytes, size_t pos, size_t n) {
      std::string out;
      for (size_t j = pos; j < std::min(bytes.size(), pos + n); ++j) {
        const char* digits = "0123456789abcdef";
        const auto c = static_cast<unsigned char>(bytes[j]);
        out += digits[c >> 4];
        out += digits[c & 15];
      }
      return out;
    };
    return "slot " + std::to_string(s) + " differs at byte " +
           std::to_string(i) + " of " + std::to_string(a[s].size()) + "/" +
           std::to_string(b[s].size()) + ": " + hex(a[s], from, i - from) +
           " | " + hex(a[s], i, 32) + " vs " + hex(b[s], i, 32);
  }
  return "";
}

void DrainInto(const SubscriptionPtr& sub, std::vector<StreamElement>* out) {
  StreamBatch batch;
  while (sub->TryPoll(&batch)) {
    for (const StreamElement& e : batch) out->push_back(e);
  }
}

/// Query shapes the kernel folds from columns (projections, grouped and
/// global aggregates, HAVING, two plans on one window), and ones it does
/// not (a division, a join, a row-based window).
std::vector<std::string> KernelQueries() {
  return {
      "SELECT k, a FROM s [Range 3] WHERE a > 1",
      "SELECT k, a + b AS ab, x FROM s [Range 2] WHERE b > -2 EMIT DSTREAM",
      "SELECT k, COUNT(*) AS n, SUM(a) AS sa, AVG(x) AS ax, MIN(x) AS mn, "
      "MAX(k) AS mk FROM s [Range 4] GROUP BY k",
      "SELECT k, MAX(x) AS mx, MIN(b) AS mb FROM s [Range 4] GROUP BY k "
      "EMIT DSTREAM",
      "SELECT COUNT(a) AS n, SUM(x) AS sx, AVG(a) AS aa, MIN(b) AS mb, "
      "MAX(x) AS mx FROM s [Range 6] EMIT RSTREAM",
      "SELECT k, SUM(x) AS sx FROM s [Range 5] GROUP BY k "
      "HAVING SUM(x) > 0 EMIT DSTREAM",
      "SELECT k, SUM(x) AS sx, MIN(a) AS ma FROM s [Now] GROUP BY k "
      "EMIT RSTREAM",
      "SELECT a, COUNT(*) AS n FROM s [Range Unbounded] GROUP BY a",
      "SELECT k, a / 2 AS h FROM s [Range 3]",
      "SELECT l.k, r.a FROM s l [Range 3], s r [Range 3] WHERE l.k = r.k",
      "SELECT k, COUNT(*) AS n FROM s [Rows 5] GROUP BY k",
  };
}

struct KernelTwin {
  explicit KernelTwin(Catalog catalog) : svc(std::move(catalog)) {}
  QueryService svc;
  std::vector<QueryId> ids;
  std::vector<SubscriptionPtr> subs;
  std::vector<std::vector<StreamElement>> outputs;

  void SubscribeAll() {
    for (QueryId id : ids) {
      auto sub = svc.Subscribe(id);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      subs.push_back(*sub);
    }
    outputs.resize(subs.size());
  }
  void Drain() {
    for (size_t q = 0; q < subs.size(); ++q) DrainInto(subs[q], &outputs[q]);
  }
  std::vector<std::string> Slots() {
    auto slots = svc.SnapshotSlots();
    EXPECT_TRUE(slots.ok()) << slots.status().ToString();
    return slots.ok() ? *slots : std::vector<std::string>{};
  }
};

TEST(PlanKernelEquivalenceTest, PushBatchMatchesPerElementPushes) {
  for (uint32_t seed : {3u, 11u}) {
    const std::vector<StreamElement> input = RandomDeltaInput(seed, 400);
    for (size_t chunk : {size_t{1}, size_t{4}, size_t{64}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " chunk " +
                   std::to_string(chunk));
      KernelTwin batched(KernelCatalog()), ref(KernelCatalog());
      for (const std::string& sql : KernelQueries()) {
        auto a = batched.svc.RegisterQuery(sql);
        auto b = ref.svc.RegisterQuery(sql);
        ASSERT_TRUE(a.ok() && b.ok()) << sql << ": " << a.status().ToString();
        batched.ids.push_back(*a);
        ref.ids.push_back(*b);
      }
      batched.SubscribeAll();
      ref.SubscribeAll();

      // A mid-instant snapshot of the batched side, restored into a fresh
      // service that then takes the rest of the input in batches.
      std::unique_ptr<KernelTwin> restored;
      std::vector<size_t> ref_output_at_restore;
      const size_t restore_after = input.size() / 2;

      for (size_t i = 0; i < input.size(); i += chunk) {
        const size_t end = std::min(input.size(), i + chunk);
        StreamBatch batch;
        for (size_t j = i; j < end; ++j) {
          batch.Add(input[j]);
          const StreamElement& e = input[j];
          Status st = e.is_record()
                          ? ref.svc.PushRecord("s", e.tuple, e.timestamp)
                          : ref.svc.PushWatermark("s", e.timestamp);
          ASSERT_TRUE(st.ok()) << st.ToString();
        }
        ASSERT_TRUE(batched.svc.PushBatch("s", batch).ok());
        if (restored != nullptr) {
          ASSERT_TRUE(restored->svc.PushBatch("s", batch).ok());
          restored->Drain();
        }
        // Drained as they go: a subscription holds a bounded backlog.
        batched.Drain();
        ref.Drain();
        const std::vector<std::string> slots = batched.Slots();
        ASSERT_EQ(SnapshotDiff(slots, ref.Slots()), "")
            << "snapshot after element " << end;

        if (restored == nullptr && end >= restore_after &&
            input[end - 1].is_record()) {
          restored = std::make_unique<KernelTwin>(KernelCatalog());
          ASSERT_TRUE(restored->svc.RestoreSlots(slots).ok());
          restored->ids = batched.ids;
          restored->SubscribeAll();
          for (const auto& out : ref.outputs) {
            ref_output_at_restore.push_back(out.size());
          }
        }
      }
      for (size_t q = 0; q < ref.outputs.size(); ++q) {
        EXPECT_EQ(Flatten(batched.outputs[q]), Flatten(ref.outputs[q]))
            << KernelQueries()[q];
      }
      ASSERT_NE(restored, nullptr);
      for (size_t q = 0; q < ref.outputs.size(); ++q) {
        std::vector<StreamElement> tail(
            ref.outputs[q].begin() +
                static_cast<std::ptrdiff_t>(ref_output_at_restore[q]),
            ref.outputs[q].end());
        EXPECT_EQ(Flatten(restored->outputs[q]), Flatten(tail))
            << "restored: " << KernelQueries()[q];
      }
      // The input did reach the columnar fold, and it did emit.
      size_t records = 0;
      for (const auto& out : ref.outputs) {
        for (const StreamElement& e : out) records += e.is_record() ? 1 : 0;
      }
      EXPECT_GT(records, 100u);
    }
  }
}

/// A plan operator the executor can only hand rows: ProcessElement and the
/// tuple fold behind it, whatever the window emits. The twin of the plan
/// kernel in the tests below.
class RowOnlyPlan : public Operator {
 public:
  RowOnlyPlan(RelOpPtr plan, R2SKind kind)
      : Operator("plan"), plan_("plan", std::move(plan), 1, kind) {}
  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override {
    return plan_.ProcessElement(port, element, ctx, out);
  }
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override {
    return plan_.OnWatermark(watermark, ctx, out);
  }
  Result<std::string> SnapshotState() const override {
    return plan_.SnapshotState();
  }
  Status RestoreState(std::string_view snapshot) override {
    return plan_.RestoreState(snapshot);
  }

 private:
  PlanDeltaOperator plan_;
};

/// The plan operator alone, for every R2S output (the SQL front end has no
/// relation output), against a twin that folds every delta from tuples.
/// The queries keep their WHERE clauses in the plan, so the kernel runs a
/// Select below the Aggregate and below a Project.
TEST(PlanKernelEquivalenceTest, EveryOutputKindMatchesTheTupleFold) {
  const Catalog catalog = KernelCatalog();
  const std::vector<StreamElement> input = RandomDeltaInput(29, 300);
  std::vector<std::string> queries = {
      "SELECT k, a + 1 AS a1, x FROM s [Range 3] WHERE a > 1 AND x < 1.0",
      "SELECT k, COUNT(*) AS n, SUM(x) AS sx, MAX(b) AS mb FROM s "
      "[Range 3] WHERE b <> 0 GROUP BY k HAVING COUNT(*) > 1"};
  for (const std::string& sql : KernelQueries()) {
    if (sql.find(" l ") == std::string::npos) queries.push_back(sql);
  }
  for (const std::string& sql : queries) {
    auto planned = PlanSql(sql, catalog);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    for (R2SKind kind : {R2SKind::kIStream, R2SKind::kDStream,
                         R2SKind::kRStream, R2SKind::kRelation}) {
      auto build = [&](bool row_only) {
        Built p;
        p.out = std::make_unique<BoundedStream>();
        auto g = std::make_unique<DataflowGraph>();
        p.source = g->AddNode(std::make_unique<PassThroughOperator>("src"));
        NodeId win = g->AddNode(std::make_unique<WindowDeltaOperator>(
            "win", planned->query.input_windows[0]));
        std::unique_ptr<Operator> plan_op;
        if (row_only) {
          plan_op = std::make_unique<RowOnlyPlan>(planned->query.plan, kind);
        } else {
          plan_op = std::make_unique<PlanDeltaOperator>(
              "plan", planned->query.plan, 1, kind);
        }
        NodeId plan = g->AddNode(std::move(plan_op));
        NodeId sink = g->AddNode(
            std::make_unique<CollectSinkOperator>("sink", p.out.get()));
        EXPECT_TRUE(g->Connect(p.source, win).ok());
        EXPECT_TRUE(g->Connect(win, plan).ok());
        EXPECT_TRUE(g->Connect(plan, sink).ok());
        p.exec = std::make_unique<PipelineExecutor>(std::move(g));
        return p;
      };
      for (size_t chunk : {size_t{1}, size_t{4}, size_t{64}}) {
        SCOPED_TRACE(sql + " kind " + R2SKindToString(kind) + " chunk " +
                     std::to_string(chunk));
        Built batched = build(/*row_only=*/false);
        Built ref = build(/*row_only=*/true);
        for (size_t i = 0; i < input.size(); i += chunk) {
          const size_t end = std::min(input.size(), i + chunk);
          StreamBatch batch;
          for (size_t j = i; j < end; ++j) {
            batch.Add(input[j]);
            ASSERT_TRUE(ref.exec->Push(ref.source, input[j]).ok());
          }
          ASSERT_TRUE(batched.exec->PushBatch(batched.source, batch).ok());
          auto a = batched.exec->SnapshotSlots();
          auto b = ref.exec->SnapshotSlots();
          ASSERT_TRUE(a.ok() && b.ok());
          ASSERT_EQ(SnapshotDiff(*a, *b), "")
              << "snapshot after element " << end;
        }
        if (kind != R2SKind::kDStream) ASSERT_GT(ref.out->num_records(), 0u);
        ExpectStreamsIdentical(*ref.out, *batched.out, "plan kernel");
      }
    }
  }
}

}  // namespace
}  // namespace cq
