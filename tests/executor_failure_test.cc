#include <gtest/gtest.h>

#include <thread>

#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "shard/sharded_pipeline.h"

namespace cq {
namespace {

Tuple T(int64_t v) { return Tuple({Value(v)}); }

/// Operator that fails on a poisoned value — failure-injection fixture.
class PoisonOperator : public Operator {
 public:
  explicit PoisonOperator(int64_t poison)
      : Operator("poison"), poison_(poison) {}
  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    if (element.tuple[0] == Value(poison_)) {
      return Status::Internal("poisoned tuple reached the operator");
    }
    out->Emit(element);
    return Status::OK();
  }

 private:
  int64_t poison_;
};

TEST(ExecutorFailureTest, OperatorErrorSurfacesThroughPush) {
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId poison = g->AddNode(std::make_unique<PoisonOperator>(13));
  BoundedStream out;
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", &out));
  ASSERT_TRUE(g->Connect(src, poison).ok());
  ASSERT_TRUE(g->Connect(poison, sink).ok());
  PipelineExecutor exec(std::move(g));

  EXPECT_TRUE(exec.PushRecord(src, T(1), 1).ok());
  Status st = exec.PushRecord(src, T(13), 2);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // The pipeline remains usable for subsequent good input.
  EXPECT_TRUE(exec.PushRecord(src, T(2), 3).ok());
  EXPECT_EQ(out.num_records(), 2u);
}

TEST(ExecutorFailureTest, DeepPipelineErrorFromMidOperator) {
  // The error originates three hops downstream of the push site.
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId m1 = g->AddNode(std::make_unique<MapOperator>(
      "ok1", [](const Tuple& t) -> Result<Tuple> { return t; }));
  NodeId bad = g->AddNode(std::make_unique<MapOperator>(
      "bad", [](const Tuple& t) -> Result<Tuple> {
        if (t[0] > Value(int64_t{5})) {
          return Status::InvalidArgument("value too large");
        }
        return t;
      }));
  BoundedStream out;
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", &out));
  ASSERT_TRUE(g->Connect(src, m1).ok());
  ASSERT_TRUE(g->Connect(m1, bad).ok());
  ASSERT_TRUE(g->Connect(bad, sink).ok());
  PipelineExecutor exec(std::move(g));
  EXPECT_TRUE(exec.PushRecord(src, T(3), 1).ok());
  EXPECT_TRUE(exec.PushRecord(src, T(9), 2).IsInvalidArgument());
}

TEST(ExecutorFailureTest, PushToUnknownNodeRejected) {
  auto g = std::make_unique<DataflowGraph>();
  g->AddNode(std::make_unique<PassThroughOperator>("src"));
  PipelineExecutor exec(std::move(g));
  EXPECT_TRUE(exec.PushRecord(99, T(1), 1).IsInvalidArgument());
}

/// A one-stage sharded chain: poison(`poison`), then the pipeline's sink.
shard::ShardedPipeline::ChainFactory PoisonChain(int64_t poison) {
  return [poison](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<PoisonOperator>(poison));
    return ops;
  };
}

TEST(ShardedFailureTest, WorkerErrorReportedAtFinish) {
  shard::ShardedPipeline pipeline(2, PoisonChain(7), {0});
  ASSERT_TRUE(pipeline.Start().ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(pipeline.Send(T(i), i).ok());  // includes the poisoned 7
  }
  Result<BoundedStream> result = pipeline.Finish();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ShardedFailureTest, FactoryErrorFailsStart) {
  shard::ShardedPipeline pipeline(
      3,
      [](size_t i) -> Result<std::vector<std::unique_ptr<Operator>>> {
        if (i == 2) return Status::IOError("shard 2 cannot start");
        std::vector<std::unique_ptr<Operator>> ops;
        ops.push_back(std::make_unique<PassThroughOperator>("pass"));
        return ops;
      },
      {0});
  EXPECT_TRUE(pipeline.Start().code() == StatusCode::kIOError);
}

TEST(ChannelFailureTest, ExhaustedCreditsBlockAndDrain) {
  Channel ch(4);
  for (int i = 0; i < 4; ++i) {
    StreamBatch b;
    b.AddRecord(T(i), i);
    ASSERT_TRUE(ch.Push(std::move(b)).ok());
  }
  EXPECT_EQ(ch.depth(), 4u);
  EXPECT_EQ(ch.credits_available(), 0u);
  // A fifth push blocks until a credit returns; do it from another thread
  // and wait until it is actually parked before freeing a credit.
  std::thread producer([&ch] {
    StreamBatch b;
    b.AddRecord(T(99), 99);
    Status st = ch.Push(std::move(b));
    EXPECT_TRUE(st.ok());
  });
  while (ch.blocked_pushes() == 0) std::this_thread::yield();
  StreamBatch got;
  ASSERT_TRUE(ch.Pop(&got));
  ch.Acknowledge();
  producer.join();
  EXPECT_EQ(ch.depth(), 4u);
  EXPECT_GE(ch.blocked_pushes(), 1u);
  ch.Close();
  size_t drained = 0;
  while (ch.Pop(&got)) {
    ++drained;
    ch.Acknowledge();
  }
  EXPECT_EQ(drained, 4u);
}

TEST(ShardedFailureTest, WorkerStopsConsumingAfterError) {
  shard::ShardedPipelineOptions opts;
  opts.batch_size = 1;
  opts.channel_credits = 2;
  shard::ShardedPipeline pipeline(1, PoisonChain(7), {0}, opts);
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_TRUE(pipeline.Send(T(7), 1).ok());  // poisons the only task
  // The failed task stops consuming and closes its channel, so subsequent
  // sends surface its error instead of queueing behind a dead consumer
  // (with 2 credits an unhealthy channel would block the 3rd send forever).
  Status st;
  for (int i = 0; i < 1000; ++i) {
    st = pipeline.Send(T(1), 2);
    if (!st.ok()) break;
  }
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  Result<BoundedStream> result = pipeline.Finish();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace cq
