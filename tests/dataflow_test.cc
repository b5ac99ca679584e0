#include <gtest/gtest.h>

#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/window_operator.h"

namespace cq {
namespace {

Tuple T2(int64_t k, int64_t v) { return Tuple({Value(k), Value(v)}); }

TEST(GraphTest, TopologicalOrderAndValidate) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId a = g->AddNode(std::make_unique<PassThroughOperator>("a"));
  NodeId b = g->AddNode(std::make_unique<PassThroughOperator>("b"));
  NodeId c = g->AddNode(std::make_unique<PassThroughOperator>("c"));
  ASSERT_TRUE(g->Connect(a, b).ok());
  ASSERT_TRUE(g->Connect(b, c).ok());
  EXPECT_TRUE(g->Validate().ok());
  EXPECT_EQ(*g->TopologicalOrder(), (std::vector<NodeId>{a, b, c}));
  EXPECT_EQ(g->SourceNodes(), (std::vector<NodeId>{a}));
  EXPECT_NE(g->ToString().find("[0] a"), std::string::npos);
}

TEST(GraphTest, ConnectValidation) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId a = g->AddNode(std::make_unique<PassThroughOperator>("a"));
  EXPECT_TRUE(g->Connect(a, 99).IsInvalidArgument());
  EXPECT_TRUE(g->Connect(a, a, 5).IsInvalidArgument());  // port out of range
}

TEST(ExecutorTest, MapFilterPipeline) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId filter = g->AddNode(std::make_unique<FilterOperator>(
      "filter", Gt(Col(1), Lit(int64_t{10}))));
  NodeId map = g->AddNode(std::make_unique<MapOperator>(
      "double", [](const Tuple& t) -> Result<Tuple> {
        return Tuple({t[0], *Value::Multiply(t[1], Value(int64_t{2}))});
      }));
  BoundedStream out;
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", &out));
  ASSERT_TRUE(g->Connect(src, filter).ok());
  ASSERT_TRUE(g->Connect(filter, map).ok());
  ASSERT_TRUE(g->Connect(map, sink).ok());

  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 5), 1).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(2, 20), 2).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(3, 30), 3).ok());

  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(0).tuple, T2(2, 40));
  EXPECT_EQ(out.at(1).tuple, T2(3, 60));
}

TEST(ExecutorTest, FlatMapAndProject) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId fm = g->AddNode(std::make_unique<FlatMapOperator>(
      "repeat", [](const Tuple& t) -> Result<std::vector<Tuple>> {
        return std::vector<Tuple>{t, t};
      }));
  NodeId proj = g->AddNode(std::make_unique<ProjectOperator>(
      "proj", std::vector<ExprPtr>{Col(1)}));
  BoundedStream out;
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", &out));
  ASSERT_TRUE(g->Connect(src, fm).ok());
  ASSERT_TRUE(g->Connect(fm, proj).ok());
  ASSERT_TRUE(g->Connect(proj, sink).ok());
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 9), 5).ok());
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(0).tuple, Tuple({Value(int64_t{9})}));
}

/// Forwards both of its input ports: the smallest two-input node.
class TwoInputOperator : public Operator {
 public:
  explicit TwoInputOperator(std::string name)
      : Operator(std::move(name), /*num_input_ports=*/2) {}
  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    out->Emit(element);
    return Status::OK();
  }
};

TEST(ExecutorTest, WatermarkMinCombiningOnTwoInputNode) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId s1 = g->AddNode(std::make_unique<PassThroughOperator>("s1"));
  NodeId s2 = g->AddNode(std::make_unique<PassThroughOperator>("s2"));
  NodeId join = g->AddNode(std::make_unique<TwoInputOperator>("join"));
  ASSERT_TRUE(g->Connect(s1, join, 0).ok());
  ASSERT_TRUE(g->Connect(s2, join, 1).ok());
  PipelineExecutor exec(std::move(g));

  ASSERT_TRUE(exec.PushWatermark(s1, 50).ok());
  // Join watermark held back by the idle second input.
  EXPECT_EQ(exec.NodeWatermark(join), kMinTimestamp);
  ASSERT_TRUE(exec.PushWatermark(s2, 30).ok());
  EXPECT_EQ(exec.NodeWatermark(join), 30);
  ASSERT_TRUE(exec.PushWatermark(s2, 80).ok());
  EXPECT_EQ(exec.NodeWatermark(join), 50);
  // Watermark regression is ignored.
  ASSERT_TRUE(exec.PushWatermark(s2, 10).ok());
  EXPECT_EQ(exec.NodeWatermark(join), 50);
}

std::unique_ptr<DataflowGraph> WindowedCountGraph(
    BoundedStream* out, WindowedAggregateConfig config, NodeId* src_out,
    WindowedAggregateOperator** op_out) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  auto window_op =
      std::make_unique<WindowedAggregateOperator>("window", std::move(config));
  *op_out = window_op.get();
  NodeId win = g->AddNode(std::move(window_op));
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", out));
  EXPECT_TRUE(g->Connect(src, win).ok());
  EXPECT_TRUE(g->Connect(win, sink).ok());
  *src_out = src;
  return g;
}

WindowedAggregateConfig CountPerKeyConfig() {
  WindowedAggregateConfig cfg;
  cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
  cfg.key_indexes = {0};
  cfg.aggs.push_back({AggregateKind::kCount, nullptr, "cnt"});
  return cfg;
}

TEST(WindowOperatorTest, TumblingCountFiresOnWatermark) {
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));

  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 1).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 5).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(2, 0), 7).ok());
  EXPECT_EQ(out.num_records(), 0u);  // nothing fires before the watermark

  ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  ASSERT_EQ(out.num_records(), 2u);
  // Output: (key, win_start, win_end, count) at ts = end - 1.
  EXPECT_EQ(out.at(0).tuple,
            Tuple({Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{10}),
                   Value(int64_t{2})}));
  EXPECT_EQ(out.at(0).timestamp, 9);
  EXPECT_EQ(out.at(1).tuple,
            Tuple({Value(int64_t{2}), Value(int64_t{0}), Value(int64_t{10}),
                   Value(int64_t{1})}));
  EXPECT_EQ(op->panes_emitted(), 2u);
  // State garbage-collected after firing (no allowed lateness).
  EXPECT_EQ(op->StateSize(), 0u);
}

TEST(WindowOperatorTest, OutOfOrderWithinWatermarkIsCorrect) {
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));
  // Deliberately out of order.
  for (Timestamp ts : {7, 2, 9, 1, 4}) {
    ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), ts).ok());
  }
  ASSERT_TRUE(exec.PushWatermark(src, 12).ok());
  ASSERT_EQ(out.num_records(), 1u);
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{5}));
}

TEST(WindowOperatorTest, LateDataDroppedWithoutLateness) {
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 5).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 15).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 6).ok());  // late for [0,10)
  EXPECT_EQ(op->dropped_late(), 1u);
  EXPECT_EQ(out.num_records(), 1u);
}

TEST(WindowOperatorTest, AllowedLatenessRefinesFiredWindow) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  cfg.allowed_lateness = 10;
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));

  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 5).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 12).ok());  // on-time fire: count 1
  ASSERT_EQ(out.num_records(), 1u);
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{1}));

  // Late element within lateness: refinement fire with updated count.
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 7).ok());
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(1).tuple[3], Value(int64_t{2}));
  EXPECT_EQ(op->dropped_late(), 0u);

  // Past end + lateness: dropped, state cleaned.
  ASSERT_TRUE(exec.PushWatermark(src, 20).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 8).ok());
  EXPECT_EQ(op->dropped_late(), 1u);
  EXPECT_EQ(op->StateSize(), 0u);
}

TEST(WindowOperatorTest, DiscardingModeEmitsIncrements) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  cfg.trigger = TriggerFactory::AfterCount(2);
  cfg.accumulation = AccumulationMode::kDiscarding;
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 3).ok());
  }
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{2}));
  EXPECT_EQ(out.at(1).tuple[3], Value(int64_t{2}));  // discarding: not 4
}

TEST(WindowOperatorTest, AccumulatingModeEmitsRefinements) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  cfg.trigger = TriggerFactory::AfterCount(2);
  cfg.accumulation = AccumulationMode::kAccumulating;
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 3).ok());
  }
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{2}));
  EXPECT_EQ(out.at(1).tuple[3], Value(int64_t{4}));  // accumulating: total
}

TEST(WindowOperatorTest, CountTriggerResidualFiresAtCleanup) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  cfg.trigger = TriggerFactory::AfterCount(10);  // never reached
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 3).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 4).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 100).ok());
  ASSERT_EQ(out.num_records(), 1u);  // residual pane fired once at GC
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{2}));
  EXPECT_EQ(op->StateSize(), 0u);
}

TEST(WindowOperatorTest, SumAndAvgColumns) {
  WindowedAggregateConfig cfg;
  cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
  cfg.key_indexes = {0};
  cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
  cfg.aggs.push_back({AggregateKind::kAvg, Col(1), "avg"});
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 10), 1).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 20), 2).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  ASSERT_EQ(out.num_records(), 1u);
  EXPECT_EQ(out.at(0).tuple[3], Value(30.0));
  EXPECT_EQ(out.at(0).tuple[4], Value(15.0));
}

TEST(CheckpointTest, RestoreReproducesPostCheckpointOutputs) {
  auto build = [](BoundedStream* out, NodeId* src) {
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    auto g = std::make_unique<DataflowGraph>();
    *src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
    NodeId win = g->AddNode(
        std::make_unique<WindowedAggregateOperator>("win", std::move(cfg)));
    NodeId sink =
        g->AddNode(std::make_unique<CollectSinkOperator>("sink", out));
    EXPECT_TRUE(g->Connect(*src, win).ok());
    EXPECT_TRUE(g->Connect(win, sink).ok());
    return g;
  };

  // Run A processes the full input uninterrupted.
  BoundedStream out_a;
  NodeId src_a;
  PipelineExecutor exec_a(build(&out_a, &src_a));
  ASSERT_TRUE(exec_a.PushRecord(src_a, T2(1, 5), 1).ok());
  ASSERT_TRUE(exec_a.PushRecord(src_a, T2(1, 7), 2).ok());
  ASSERT_TRUE(exec_a.PushRecord(src_a, T2(1, 9), 3).ok());
  ASSERT_TRUE(exec_a.PushWatermark(src_a, 100).ok());

  // Run B processes a prefix, checkpoints, "crashes", restores into a fresh
  // pipeline, and replays the suffix.
  BoundedStream out_b1;
  NodeId src_b;
  PipelineExecutor exec_b(build(&out_b1, &src_b));
  ASSERT_TRUE(exec_b.PushRecord(src_b, T2(1, 5), 1).ok());
  ASSERT_TRUE(exec_b.PushRecord(src_b, T2(1, 7), 2).ok());
  std::string image = *exec_b.Checkpoint({{"input", 2}});

  BoundedStream out_b2;
  NodeId src_b2;
  PipelineExecutor exec_b2(build(&out_b2, &src_b2));
  auto offsets = *exec_b2.Restore(image);
  EXPECT_EQ(offsets.at("input"), 2);
  ASSERT_TRUE(exec_b2.PushRecord(src_b2, T2(1, 9), 3).ok());
  ASSERT_TRUE(exec_b2.PushWatermark(src_b2, 100).ok());

  // The restored run's output equals the uninterrupted run's output.
  ASSERT_EQ(out_b2.num_records(), out_a.num_records());
  for (size_t i = 0; i < out_a.num_records(); ++i) {
    EXPECT_EQ(out_b2.at(i).tuple, out_a.at(i).tuple);
  }
}

TEST(CheckpointTest, GraphShapeMismatchRejected) {
  auto g1 = std::make_unique<DataflowGraph>();
  g1->AddNode(std::make_unique<PassThroughOperator>("a"));
  PipelineExecutor e1(std::move(g1));
  std::string image = *e1.Checkpoint({});

  auto g2 = std::make_unique<DataflowGraph>();
  g2->AddNode(std::make_unique<PassThroughOperator>("a"));
  g2->AddNode(std::make_unique<PassThroughOperator>("b"));
  PipelineExecutor e2(std::move(g2));
  EXPECT_FALSE(e2.Restore(image).ok());
}

TEST(MetricsTest, PipelineReportsExactCountsAndLag) {
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));
  MetricsRegistry reg;
  exec.AttachMetrics(&reg);

  // Three records into the tumbling-10 count window, max event ts 9.
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 1).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 5).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(2, 0), 9).ok());
  // Watermark 6 trails the max element timestamp: lag must be 9 - 6 = 3.
  ASSERT_TRUE(exec.PushWatermark(src, 6).ok());

  LabelSet src_labels{{"node", "src"}, {"id", "0"}};
  LabelSet win_labels{{"node", "window"}, {"id", "1"}};
  LabelSet sink_labels{{"node", "sink"}, {"id", "2"}};
  EXPECT_EQ(reg.GetCounter("cq_dataflow_records_in_total", src_labels)->value(),
            3u);
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_records_out_total", src_labels)->value(),
      3u);
  EXPECT_EQ(reg.GetCounter("cq_dataflow_records_in_total", win_labels)->value(),
            3u);
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_watermarks_in_total", win_labels)->value(),
      1u);
  // Nothing fired yet: window emitted no records downstream.
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_records_out_total", win_labels)->value(),
      0u);
  EXPECT_EQ(reg.GetGauge("cq_dataflow_event_time_lag", src_labels)->value(),
            3);
  EXPECT_EQ(reg.GetGauge("cq_dataflow_event_time_lag", win_labels)->value(),
            3);
  // Three latency observations (one per push) on the source node.
  EXPECT_EQ(
      reg.GetHistogram("cq_dataflow_process_latency_us", src_labels)->count(),
      4u);  // 3 records + 1 watermark

  // Window fires on watermark 10: both key panes flow to the sink.
  ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_records_out_total", win_labels)->value(),
      2u);
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_records_in_total", sink_labels)->value(),
      2u);

  // DumpMetrics refreshes state gauges and renders; state is empty after
  // the fire+purge, and the JSON mentions every family.
  std::string json = exec.DumpMetrics(MetricsFormat::kJson);
  EXPECT_NE(json.find("cq_dataflow_records_in_total"), std::string::npos);
  EXPECT_NE(json.find("cq_dataflow_state_entries"), std::string::npos);
  EXPECT_EQ(reg.GetGauge("cq_dataflow_state_entries", win_labels)->value(), 0);
}

TEST(MetricsTest, LateDropsAreCounted) {
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));
  MetricsRegistry reg;
  exec.AttachMetrics(&reg);
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 5).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 15).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 6).ok());  // late for [0,10)
  EXPECT_EQ(op->dropped_late(), 1u);
  LabelSet win_labels{{"node", "window"}, {"id", "1"}};
  EXPECT_EQ(
      reg.GetCounter("cq_dataflow_late_records_dropped_total", win_labels)
          ->value(),
      1u);
}

TEST(MetricsTest, StateGaugesTrackResidentState) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));
  MetricsRegistry reg;
  exec.AttachMetrics(&reg);
  // Two keys in one open window: two live state cells with payload bytes.
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 1).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(2, 0), 2).ok());
  exec.RefreshStateMetrics();
  LabelSet win_labels{{"node", "window"}, {"id", "1"}};
  EXPECT_EQ(reg.GetGauge("cq_dataflow_state_entries", win_labels)->value(), 2);
  EXPECT_GT(reg.GetGauge("cq_dataflow_state_bytes", win_labels)->value(), 0);
}

TEST(MetricsTest, NoRegistryPathStillWorks) {
  // Without AttachMetrics the pipeline must behave identically (the
  // fast-path pointer test) and DumpMetrics returns empty.
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, CountPerKeyConfig(), &src, &op);
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 1).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  EXPECT_EQ(out.num_records(), 1u);
  EXPECT_EQ(exec.DumpMetrics(), "");
}

// A watermark that releases N rows sends them downstream as one run: each
// child of the firing node opens one frame for the run and one for the
// watermark, not one per row, and still sees the per-element sequence.
TEST(MetricsTest, WatermarkReleaseReachesEachChildAsOneRun) {
  constexpr int64_t kRows = 20;
  // Reference: the same input through a linear src -> window -> sink chain.
  BoundedStream reference;
  {
    NodeId src;
    WindowedAggregateOperator* op;
    PipelineExecutor exec(
        WindowedCountGraph(&reference, CountPerKeyConfig(), &src, &op));
    for (int64_t k = 0; k < kRows; ++k) {
      ASSERT_TRUE(exec.PushRecord(src, T2(k, 0), k % 10).ok());
    }
    ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  }
  ASSERT_EQ(reference.num_records(), static_cast<size_t>(kRows));

  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId win = g->AddNode(
      std::make_unique<WindowedAggregateOperator>("window", CountPerKeyConfig()));
  BoundedStream left, right;
  NodeId sink_l = g->AddNode(std::make_unique<CollectSinkOperator>("l", &left));
  NodeId sink_r =
      g->AddNode(std::make_unique<CollectSinkOperator>("r", &right));
  ASSERT_TRUE(g->Connect(src, win).ok());
  ASSERT_TRUE(g->Connect(win, sink_l).ok());
  ASSERT_TRUE(g->Connect(win, sink_r).ok());
  PipelineExecutor exec(std::move(g));
  MetricsRegistry reg;
  exec.AttachMetrics(&reg);
  Histogram* frames_l = reg.GetHistogram(
      "cq_dataflow_process_latency_us",
      {{"node", "l"}, {"id", std::to_string(sink_l)}});
  Histogram* frames_r = reg.GetHistogram(
      "cq_dataflow_process_latency_us",
      {{"node", "r"}, {"id", std::to_string(sink_r)}});

  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(exec.PushRecord(src, T2(k, 0), k % 10).ok());
  }
  ASSERT_EQ(frames_l->count(), 0u);  // nothing released yet
  ASSERT_TRUE(exec.PushWatermark(src, 10).ok());
  // One frame for the run of kRows released rows, one for the watermark.
  EXPECT_EQ(frames_l->count(), 2u);
  EXPECT_EQ(frames_r->count(), 2u);
  EXPECT_EQ(reg.GetCounter("cq_dataflow_records_in_total",
                           {{"node", "l"}, {"id", std::to_string(sink_l)}})
                ->value(),
            static_cast<uint64_t>(kRows));

  for (const BoundedStream* out : {&left, &right}) {
    ASSERT_EQ(out->size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(out->at(i).tuple, reference.at(i).tuple) << i;
      EXPECT_EQ(out->at(i).timestamp, reference.at(i).timestamp) << i;
    }
  }
}

TEST(ProcessingTimeTest, TimersFireViaAdvance) {
  WindowedAggregateConfig cfg = CountPerKeyConfig();
  cfg.trigger = TriggerFactory::AfterProcessingTime(100);
  BoundedStream out;
  NodeId src;
  WindowedAggregateOperator* op;
  auto g = WindowedCountGraph(&out, cfg, &src, &op);
  PipelineExecutor exec(std::move(g));
  ASSERT_TRUE(exec.AdvanceProcessingTime(1000).ok());
  ASSERT_TRUE(exec.PushRecord(src, T2(1, 0), 3).ok());
  EXPECT_EQ(out.num_records(), 0u);
  ASSERT_TRUE(exec.AdvanceProcessingTime(1100).ok());
  ASSERT_EQ(out.num_records(), 1u);  // early (speculative) pane
  EXPECT_EQ(out.at(0).tuple[3], Value(int64_t{1}));
}

}  // namespace
}  // namespace cq
