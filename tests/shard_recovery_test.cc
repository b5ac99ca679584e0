#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataflow/operators.h"
#include "dataflow/window_operator.h"
#include "ft/coordinator.h"
#include "ft/fault.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "queue/broker.h"
#include "runtime/driver.h"
#include "shard/sharded_pipeline.h"
#include "shard/sharded_service.h"

namespace cq::shard {
namespace {

namespace fs = std::filesystem;

constexpr int kMessages = 90;
constexpr Timestamp kFinalWatermark = 200;
const char* kTopic = "txns";

Tuple T2(int64_t k, int64_t v) { return Tuple({Value(k), Value(v)}); }

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("cq_shardrec_" + tag + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Injector state is process-global; every test starts clean.
class ShardRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { ft::FaultInjector::Global().Reset(); }
  void TearDown() override { ft::FaultInjector::Global().Reset(); }
};

WindowedAggregateConfig SumConfig(std::vector<size_t> keys, size_t value_col,
                                  const char* out_name) {
  WindowedAggregateConfig cfg;
  cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
  cfg.key_indexes = std::move(keys);
  cfg.aggs.push_back({AggregateKind::kSum, Col(value_col), out_name});
  return cfg;
}

/// Two-stage chain (per-key windowed SUM, then a rollup keyed by window
/// start): barriers and restored state must cross an exchange boundary.
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
constexpr size_t kNumStages = 2;

void FillBroker(Broker* broker) {
  ASSERT_TRUE(broker->CreateTopic(kTopic, 2).ok());
  for (int i = 0; i < kMessages; ++i) {
    Tuple t = T2(i % 5, 1);
    ASSERT_TRUE(broker->Produce(kTopic, t[0].ToString(), t, Timestamp(i)).ok());
  }
}

std::vector<std::string> Canon(const BoundedStream& out) {
  std::vector<std::string> records;
  for (const auto& e : out) {
    if (e.is_record()) {
      records.push_back(std::to_string(e.timestamp) + "@" + e.tuple.ToString());
    }
  }
  std::sort(records.begin(), records.end());
  return records;
}

/// The ground truth: the same chain run unsharded in one PipelineExecutor
/// over the full topic (no channels, no exchanges, no checkpoints).
std::vector<std::string> UnshardedReference(Broker* broker) {
  auto ops = RollupChainFactory()(0);
  EXPECT_TRUE(ops.ok());
  BoundedStream sink_stream;
  auto g = std::make_unique<DataflowGraph>();
  NodeId src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId prev = src;
  for (auto& op : *ops) {
    NodeId n = g->AddNode(std::move(op));
    EXPECT_TRUE(g->Connect(prev, n).ok());
    prev = n;
  }
  NodeId sink =
      g->AddNode(std::make_unique<CollectSinkOperator>("sink", &sink_stream));
  EXPECT_TRUE(g->Connect(prev, sink).ok());
  PipelineExecutor exec(std::move(g));

  BrokerSourceDriver driver(broker, kTopic, "shardrec-ref");
  while (true) {
    auto batch = driver.PollBatch(16);
    EXPECT_TRUE(batch.ok());
    if (batch->num_records() == 0) break;
    for (const auto& e : batch->elements()) {
      if (!e.is_record()) continue;
      EXPECT_TRUE(exec.PushRecord(src, e.tuple, e.timestamp).ok());
    }
  }
  EXPECT_TRUE(exec.PushWatermark(src, kFinalWatermark).ok());
  return Canon(sink_stream);
}

/// One sharded run attempt against shared durable state: recover from the
/// snapshot store (rewinding the source to the committed offsets — possibly
/// re-sharding the image when `nshards` differs from the epoch it was taken
/// at), stream the topic with an in-band barrier checkpoint every other
/// poll, and emit everything with one final watermark. Watermarks are
/// withheld until the end so every aborted attempt leaves all results in
/// checkpointed *state* rather than in lost in-flight output.
Status RunShardedOnce(Broker* broker, const std::string& snap_dir,
                      size_t nshards, std::vector<std::string>* out) {
  ft::SnapshotStoreOptions store_opts;
  store_opts.retain = 2;
  store_opts.full_every = 2;
  ft::SnapshotStore store(snap_dir, store_opts);
  CQ_RETURN_NOT_OK(store.Init());

  ShardedPipeline pipe(nshards, RollupChainFactory(), {});
  ft::CheckpointCoordinator coord(&pipe, &store);
  BrokerSourceDriver driver(broker, kTopic, "shardrec");
  coord.SetOffsetsProvider([&driver] { return driver.Offsets(); });
  coord.SetCommitFn([&driver](const std::map<std::string, int64_t>& o) {
    return driver.CommitThrough(o);
  });
  coord.SetWatermarkFn([&driver] { return driver.CurrentWatermark(); });
  pipe.SetBarrierHandler(coord.Handler(1 + kNumStages * nshards));
  CQ_RETURN_NOT_OK(pipe.Start());

  auto body = [&]() -> Status {
    if (pipe.BarrierFanIn() != 1 + kNumStages * nshards) {
      return Status::Internal("unexpected stage plan");
    }

    ft::RecoveryManager recovery(&store);
    CQ_ASSIGN_OR_RETURN(
        ft::RecoveryReport report,
        recovery.Recover(
            &pipe,
            [&driver](const std::map<std::string, int64_t>& o) {
              return driver.SeekTo(o);
            },
            [&driver] { return driver.EndOffsets(); }));
    if (report.restored) coord.ResumeFromEpoch(report.epoch);

    auto checkpoint = [&]() -> Status {
      CQ_ASSIGN_OR_RETURN(uint64_t epoch,
                          coord.TriggerBarrierCheckpoint(&pipe));
      return coord.WaitForEpoch(epoch);
    };

    int polls = 0;
    while (true) {
      CQ_ASSIGN_OR_RETURN(StreamBatch batch, driver.PollBatch(16));
      if (batch.num_records() == 0) break;
      StreamBatch records_only;
      for (const auto& e : batch.elements()) {
        if (e.is_record()) records_only.Add(e);
      }
      CQ_RETURN_NOT_OK(pipe.PushBatch(records_only));
      if (++polls % 2 == 0) CQ_RETURN_NOT_OK(checkpoint());
    }
    CQ_RETURN_NOT_OK(checkpoint());
    return pipe.BroadcastWatermark(kFinalWatermark);
  };
  Status st = body();

  // Finish on every path: the task threads' barrier handler points into
  // `coord`, so they must be joined before it leaves scope.
  Result<BoundedStream> result = pipe.Finish();
  CQ_RETURN_NOT_OK(st);
  CQ_RETURN_NOT_OK(result.status());
  *out = Canon(*result);
  return Status::OK();
}

/// Drives RunShardedOnce to completion, tolerating injected-fault aborts.
/// Each attempt picks its shard count from `shard_seq` round-robin, so a
/// recovery after a fault restores the previous attempt's image into a
/// DIFFERENT shard count whenever the sequence has more than one entry —
/// the N→M re-shard path exercised under failure.
std::vector<std::string> RunToCompletion(Broker* broker,
                                         const std::string& snap_dir,
                                         const std::vector<size_t>& shard_seq) {
  std::vector<std::string> out;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const size_t nshards = shard_seq[attempt % shard_seq.size()];
    Status st = RunShardedOnce(broker, snap_dir, nshards, &out);
    if (st.ok()) return out;
    ft::FaultInjector::Global().Reset();
  }
  ADD_FAILURE() << "sharded run did not complete within 10 attempts";
  return out;
}

// --- direct N→M re-shard restore -------------------------------------------

TEST_F(ShardRecoveryTest, ReshardRestorePreservesKeyedState) {
  auto send_tail = [](ShardedPipeline* p) {
    for (int i = 30; i < 60; ++i) {
      ASSERT_TRUE(p->Send(T2(i % 5, 1), 15).ok());
    }
  };
  ShardedPipeline a(4, RollupChainFactory(), {});
  ASSERT_TRUE(a.Start().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(a.Send(T2(i % 5, 1), 5).ok());
  }
  Result<std::string> image = a.Checkpoint({{"txns/0", 30}});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  send_tail(&a);
  ASSERT_TRUE(a.BroadcastWatermark(kFinalWatermark).ok());
  BoundedStream reference = *a.Finish();
  ASSERT_GT(reference.num_records(), 0u);

  // The 4-shard image restores into 1, 2, and 8 shards: every keyed state
  // cell re-hashes to its new owner and the tail yields identical output.
  for (size_t m : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("restore shards: " + std::to_string(m));
    ShardedPipeline b(m, RollupChainFactory(), {});
    ASSERT_TRUE(b.Start().ok());
    auto offsets = b.Restore(*image);
    ASSERT_TRUE(offsets.ok()) << offsets.status().ToString();
    EXPECT_EQ((*offsets)["txns/0"], 30);
    send_tail(&b);
    ASSERT_TRUE(b.BroadcastWatermark(kFinalWatermark).ok());
    BoundedStream restored = *b.Finish();
    ASSERT_EQ(restored.num_records(), reference.num_records());
    for (size_t i = 0; i < restored.num_records(); ++i) {
      EXPECT_EQ(restored.at(i).tuple, reference.at(i).tuple) << i;
      EXPECT_EQ(restored.at(i).timestamp, reference.at(i).timestamp) << i;
    }
  }
}

// --- coordinated runs under injected faults --------------------------------

TEST_F(ShardRecoveryTest, UninterruptedShardedRunMatchesUnsharded) {
  Broker broker;
  FillBroker(&broker);
  const auto expected = UnshardedReference(&broker);
  ASSERT_FALSE(expected.empty());
  std::string snap = ScratchDir("clean");
  EXPECT_EQ(RunToCompletion(&broker, snap, {4}), expected);
}

/// The acceptance sweep: arm every compiled-in fault point in turn, run the
/// sharded pipeline to completion through recovery (alternating shard
/// counts, so each restore after a fault is an N→M re-shard), and require
/// output bit-identical to the unsharded reference.
TEST_F(ShardRecoveryTest, OutputMatchesUnshardedUnderFaultsAtEveryPoint) {
  Broker reference_broker;
  FillBroker(&reference_broker);
  const auto expected = UnshardedReference(&reference_broker);
  ASSERT_FALSE(expected.empty());

  for (const std::string& point : ft::faultpoint::All()) {
    SCOPED_TRACE("fault point: " + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir("sweep_" + point);
    ft::FaultInjector::Global().Arm(point, /*after=*/2, ft::FaultKind::kFail);
    EXPECT_EQ(RunToCompletion(&broker, snap, {4, 2, 8}), expected) << point;
    ft::FaultInjector::Global().Reset();
  }
}

/// Crash drill: the child dies via _exit(42) on a task thread mid-run (no
/// destructors, no flushes); the parent restores purely from the on-disk
/// snapshot at a DIFFERENT shard count and must still match the unsharded
/// reference.
TEST_F(ShardRecoveryTest, CrashRecoveryAfterRealProcessDeath) {
  Broker broker;
  FillBroker(&broker);
  const auto expected = UnshardedReference(&broker);
  ASSERT_FALSE(expected.empty());
  std::string snap = ScratchDir("crash");

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ft::FaultInjector::Global().Arm(ft::faultpoint::kWorkerProcess,
                                    /*after=*/40, ft::FaultKind::kExit);
    std::vector<std::string> out;
    Status st = RunShardedOnce(&broker, snap, 4, &out);
    _exit(st.ok() ? 0 : 1);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), ft::kFaultExitCode)
      << "child should have died at the injected crash";

  EXPECT_EQ(RunToCompletion(&broker, snap, {2}), expected);
}

// --- sharded service restore -----------------------------------------------

/// Holds the task thread that delivers a record inside ProcessElement until
/// the test releases it, so channel events can be lined up behind a busy
/// task without relying on timing.
class Gate {
 public:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// Forwards records and requires its input partitioned by `key`; with a
/// gate, parks on every record.
class KeyedForward : public Operator {
 public:
  KeyedForward(std::vector<size_t> key, std::shared_ptr<Gate> gate)
      : Operator("keyed-forward"), key_(std::move(key)), gate_(std::move(gate)) {}
  Status ProcessElement(size_t, const StreamElement& element,
                        const OperatorContext&, Collector* out) override {
    if (gate_ != nullptr) gate_->Park();
    out->Emit(element);
    return Status::OK();
  }
  std::vector<size_t> PartitionKeyColumns(size_t) const override {
    return key_;
  }

 private:
  std::vector<size_t> key_;
  std::shared_ptr<Gate> gate_;
};

TEST_F(ShardRecoveryTest, BarrierAfterAProducerClosedFailsInsteadOfHanging) {
  // Regression: a multi-input task skipped barriered inputs entirely, so
  // once a producer had closed (a failed upstream task) and every surviving
  // producer had delivered its barrier, alignment waited forever on the
  // closed one and Finish() never returned.
  auto gate = std::make_shared<Gate>();
  ShardedPipeline pipeline(
      2,
      [gate](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
        std::vector<std::unique_ptr<Operator>> ops;
        ops.push_back(std::make_unique<KeyedForward>(std::vector<size_t>{0},
                                                     nullptr));
        ops.push_back(
            std::make_unique<KeyedForward>(std::vector<size_t>{1}, gate));
        return ops;
      },
      {});
  ASSERT_TRUE(pipeline.Start().ok());
  ASSERT_EQ(pipeline.num_stages(), 2u);

  // Stage-1 task 0 parks on a record from producer 1. While it is parked,
  // producer 0 closes and producer 1 delivers a barrier. The round-robin
  // poll resumes after input 1, so the task sees input 0 close first and
  // only then the barrier: the order that used to hang.
  StreamBatch record;
  record.Add(StreamElement::Record(T2(1, 1), 1));
  ASSERT_TRUE(pipeline.input_channel(1, 0, 1)->Push(std::move(record)).ok());
  gate->WaitEntered();
  pipeline.input_channel(1, 0, 0)->Close();
  StreamBatch barrier;
  barrier.Add(StreamElement::Barrier(1));
  ASSERT_TRUE(pipeline.input_channel(1, 0, 1)->Push(std::move(barrier)).ok());
  gate->Release();

  auto finished = pipeline.Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_NE(finished.status().ToString().find("barrier alignment"),
            std::string::npos)
      << finished.status().ToString();
}

TEST_F(ShardRecoveryTest, ServiceRestoresSameShardCountOnly) {
  auto schema = Schema::Make({{"sym", ValueType::kString},
                              {"price", ValueType::kInt64},
                              {"qty", ValueType::kInt64}});
  const std::string sql =
      "SELECT sym, SUM(qty) AS total FROM trades [Range 20] GROUP BY sym";
  const char* syms[] = {"a", "b", "c", "d"};
  auto push_range = [&](ShardedQueryService& svc, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(svc.PushRecord("trades",
                                 Tuple{Value(syms[i % 4]), Value(int64_t{1}),
                                       Value(int64_t{i % 7})},
                                 Timestamp(i))
                      .ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(svc.PushWatermark("trades", i).ok());
      }
    }
  };
  auto drain = [](const ShardedSubscriptionPtr& sub) {
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
  };

  ShardedQueryService a(2);
  ASSERT_TRUE(a.RegisterStream("trades", schema, {0}).ok());
  auto id = a.RegisterQuery(sql);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  push_range(a, 0, 40);
  auto slots = a.SnapshotSlots();
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();

  // Same shard count: full round trip, identical output on the same tail.
  ShardedQueryService b(2);
  ASSERT_TRUE(b.RegisterStream("trades", schema, {0}).ok());
  Status restored = b.RestoreSlots(*slots);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(b.NumActiveQueries(), a.NumActiveQueries());
  auto sub_a = a.Subscribe(*id);
  auto sub_b = b.Subscribe(*id);
  ASSERT_TRUE(sub_a.ok() && sub_b.ok());
  push_range(a, 40, 60);
  push_range(b, 40, 60);
  auto out_a = drain(*sub_a);
  EXPECT_FALSE(out_a.empty());
  EXPECT_EQ(out_a, drain(*sub_b));

  // Different shard count: rejected with a pointer at the pipeline-level
  // re-shard path, not silently mis-routed.
  ShardedQueryService c(3);
  ASSERT_TRUE(c.RegisterStream("trades", schema, {0}).ok());
  Status mismatch = c.RestoreSlots(*slots);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.ToString().find("re-shard"), std::string::npos)
      << mismatch.ToString();
}

}  // namespace
}  // namespace cq::shard
