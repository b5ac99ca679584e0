#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "dataflow/executor.h"
#include "dataflow/graph.h"
#include "dataflow/operators.h"

namespace cq {
namespace {

std::unique_ptr<PassThroughOperator> Pass(const std::string& name) {
  return std::make_unique<PassThroughOperator>(name);
}

/// Asserts `order` is a valid topological order of `g`'s live nodes.
void ExpectTopological(const DataflowGraph& g,
                       const std::vector<NodeId>& order) {
  std::map<NodeId, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_EQ(order.size(), g.num_live_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    if (!g.is_live(i)) {
      EXPECT_EQ(pos.count(i), 0u);
      continue;
    }
    ASSERT_EQ(pos.count(i), 1u);
    for (const auto& e : g.outputs(i)) {
      EXPECT_LT(pos[i], pos[e.to]) << i << " must precede " << e.to;
    }
  }
}

TEST(GraphMutationTest, RemoveNodeErasesAllEdgesAndRevalidates) {
  DataflowGraph g;
  NodeId a = g.AddNode(Pass("a"));
  NodeId b = g.AddNode(Pass("b"));
  NodeId c = g.AddNode(Pass("c"));
  ASSERT_TRUE(g.Connect(a, b).ok());
  ASSERT_TRUE(g.Connect(b, c).ok());
  ASSERT_TRUE(g.Validate().ok());

  auto removed = g.RemoveNode(b);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ((*removed)->name(), "b");
  EXPECT_FALSE(g.is_live(b));
  EXPECT_EQ(g.num_live_nodes(), 2u);
  EXPECT_EQ(g.num_nodes(), 3u);  // ids are never reused
  // a's outbound edge to b is gone; c has no inputs left.
  EXPECT_TRUE(g.outputs(a).empty());
  EXPECT_EQ(g.num_inputs(c), 0u);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate().ToString();

  // The id space stays stable: a fresh splice a -> d -> c works.
  NodeId d = g.AddNode(Pass("d"));
  EXPECT_GT(d, b);
  ASSERT_TRUE(g.Connect(a, d).ok());
  ASSERT_TRUE(g.Connect(d, c).ok());
  ASSERT_TRUE(g.Validate().ok());
  ExpectTopological(g, *g.TopologicalOrder());
}

TEST(GraphMutationTest, DeadNodesRejectEdgesAndRemoval) {
  DataflowGraph g;
  NodeId a = g.AddNode(Pass("a"));
  NodeId b = g.AddNode(Pass("b"));
  ASSERT_TRUE(g.RemoveNode(b).ok());
  EXPECT_TRUE(g.Connect(a, b).IsInvalidArgument());
  EXPECT_TRUE(g.Connect(b, a).IsInvalidArgument());
  EXPECT_TRUE(g.RemoveNode(b).status().IsInvalidArgument());
  EXPECT_TRUE(g.RemoveNode(99).status().IsInvalidArgument());
}

TEST(GraphMutationTest, ValidateCatchesCyclesAndArity) {
  DataflowGraph g;
  NodeId a = g.AddNode(Pass("a"));
  NodeId b = g.AddNode(Pass("b"));
  // Port beyond the operator's arity is rejected at Connect time.
  EXPECT_TRUE(g.Connect(a, b, 5).IsInvalidArgument());
  ASSERT_TRUE(g.Connect(a, b).ok());
  ASSERT_TRUE(g.Connect(b, a).ok());  // structurally a cycle
  EXPECT_FALSE(g.Validate().ok());
  EXPECT_FALSE(g.TopologicalOrder().ok());
}

TEST(GraphMutationTest, TopologicalOrderAfterRepeatedSplices) {
  // Diamond a -> {b, c} -> d, then replace the b arm twice.
  DataflowGraph g;
  NodeId a = g.AddNode(Pass("a"));
  NodeId b = g.AddNode(Pass("b"));
  NodeId c = g.AddNode(Pass("c"));
  NodeId d = g.AddNode(Pass("d"));
  ASSERT_TRUE(g.Connect(a, b).ok());
  ASSERT_TRUE(g.Connect(a, c).ok());
  ASSERT_TRUE(g.Connect(b, d).ok());
  ASSERT_TRUE(g.Connect(c, d).ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(g.RemoveNode(b).ok());
    b = g.AddNode(Pass("b'"));
    ASSERT_TRUE(g.Connect(a, b).ok());
    ASSERT_TRUE(g.Connect(b, d).ok());
    ASSERT_TRUE(g.Validate().ok()) << g.Validate().ToString();
    ExpectTopological(g, *g.TopologicalOrder());
  }
  EXPECT_EQ(g.num_live_nodes(), 4u);
  EXPECT_EQ(g.num_nodes(), 6u);
}

TEST(GraphMutationTest, ExecutorSyncWithGraphDeliversToSplicedNodes) {
  auto graph = std::make_unique<DataflowGraph>();
  NodeId src = graph->AddNode(Pass("src"));
  auto sink1 = std::make_unique<CountingSinkOperator>("sink1");
  CountingSinkOperator* sink1_ptr = sink1.get();
  NodeId s1 = graph->AddNode(std::move(sink1));
  ASSERT_TRUE(graph->Connect(src, s1).ok());

  PipelineExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.PushRecord(src, Tuple{Value(1)}, 1).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 1).ok());
  EXPECT_EQ(sink1_ptr->count(), 1u);

  // Splice a second sink into the live pipeline.
  DataflowGraph* g = exec.graph();
  auto sink2 = std::make_unique<CountingSinkOperator>("sink2");
  CountingSinkOperator* sink2_ptr = sink2.get();
  NodeId s2 = g->AddNode(std::move(sink2));
  ASSERT_TRUE(g->Connect(src, s2).ok());
  ASSERT_TRUE(g->Validate().ok());
  exec.SyncWithGraph();

  // The new node starts at the minimum watermark and catches up.
  EXPECT_EQ(exec.NodeWatermark(s2), kMinTimestamp);
  ASSERT_TRUE(exec.PushRecord(src, Tuple{Value(2)}, 2).ok());
  ASSERT_TRUE(exec.PushWatermark(src, 2).ok());
  EXPECT_EQ(sink1_ptr->count(), 2u);
  EXPECT_EQ(sink2_ptr->count(), 1u);
  EXPECT_EQ(exec.NodeWatermark(s2), 2);

  // Tear the old sink out; pushes keep flowing to the survivor.
  ASSERT_TRUE(g->RemoveNode(s1).ok());
  ASSERT_TRUE(g->Validate().ok());
  exec.SyncWithGraph();
  ASSERT_TRUE(exec.PushRecord(src, Tuple{Value(3)}, 3).ok());
  EXPECT_EQ(sink2_ptr->count(), 2u);
  // Pushing into a removed node is rejected.
  EXPECT_FALSE(exec.PushRecord(s1, Tuple{Value(4)}, 4).ok());
}

TEST(GraphMutationTest, SnapshotSkipsTombstonedSlots) {
  auto graph = std::make_unique<DataflowGraph>();
  NodeId a = graph->AddNode(Pass("a"));
  NodeId b = graph->AddNode(Pass("b"));
  ASSERT_TRUE(graph->Connect(a, b).ok());
  PipelineExecutor exec(std::move(graph));
  ASSERT_TRUE(exec.graph()->RemoveNode(b).ok());
  exec.SyncWithGraph();
  auto slots = exec.SnapshotSlots();
  ASSERT_TRUE(slots.ok());
  ASSERT_EQ(slots->size(), 2u);
  EXPECT_TRUE((*slots)[b].empty());
  EXPECT_TRUE(exec.RestoreSlots(*slots).ok());
  // Non-empty state for a tombstoned slot is an error, not silent loss.
  (*slots)[b] = "stale";
  EXPECT_FALSE(exec.RestoreSlots(*slots).ok());
}

}  // namespace
}  // namespace cq
