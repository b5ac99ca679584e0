#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "dataflow/operators.h"
#include "dataflow/source.h"
#include "dataflow/window_operator.h"
#include "ft/barrier.h"
#include "ft/checkpointable.h"
#include "ft/coordinator.h"
#include "ft/fault.h"
#include "ft/fence.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "obs/flight_recorder.h"
#include "queue/broker.h"
#include "runtime/driver.h"
#include "shard/sharded_pipeline.h"
#include "types/serde.h"

namespace cq {
namespace {

namespace fs = std::filesystem;

Tuple T2(int64_t k, int64_t v) { return Tuple({Value(k), Value(v)}); }

/// Fresh scratch directory under the test tmp root.
std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("cq_ft_" + tag + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Injector state is process-global; every test starts clean.
class FtTest : public ::testing::Test {
 protected:
  void SetUp() override { ft::FaultInjector::Global().Reset(); }
  void TearDown() override { ft::FaultInjector::Global().Reset(); }
};

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST_F(FtTest, FaultInjectorCountdownAndReset) {
  auto& inj = ft::FaultInjector::Global();
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kChannelPush).ok());  // disarmed
  inj.Arm(ft::faultpoint::kChannelPush, /*after=*/2, ft::FaultKind::kFail);
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kChannelPush).ok());
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kChannelPush).ok());
  Status st = inj.Hit(ft::faultpoint::kChannelPush);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(inj.fired());
  // Fires at most once.
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kChannelPush).ok());
  EXPECT_EQ(inj.HitCount(ft::faultpoint::kChannelPush), 4u);
  // Other points are unaffected.
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kSinkPublish).ok());
  inj.Reset();
  EXPECT_FALSE(inj.fired());
  EXPECT_EQ(inj.HitCount(ft::faultpoint::kChannelPush), 0u);
}

TEST_F(FtTest, FaultInjectorArmsFromEnvironment) {
  setenv("CQ_FAULT", "sink.publish:0:fail", 1);
  auto& inj = ft::FaultInjector::Global();
  inj.ArmFromEnv();
  EXPECT_FALSE(inj.Hit(ft::faultpoint::kSinkPublish).ok());
  unsetenv("CQ_FAULT");
  inj.Reset();
  setenv("CQ_FAULT", "garbage", 1);
  inj.ArmFromEnv();  // malformed: stays disarmed
  EXPECT_TRUE(inj.Hit(ft::faultpoint::kSinkPublish).ok());
  unsetenv("CQ_FAULT");
}

// ---------------------------------------------------------------------------
// Checkpoint image codec
// ---------------------------------------------------------------------------

TEST_F(FtTest, CheckpointImageCodecRoundTrip) {
  std::vector<std::string> slots = {"alpha", "", std::string(1000, 'x')};
  std::map<std::string, int64_t> offsets = {{"tx/0", 42}, {"tx/1", 7}};
  std::string image = ft::EncodeCheckpointImage(slots, offsets);
  auto decoded = *ft::DecodeCheckpointImage(image);
  EXPECT_EQ(decoded.slots, slots);
  EXPECT_EQ(decoded.source_offsets, offsets);
  // Truncated images are rejected, not misread.
  EXPECT_FALSE(
      ft::DecodeCheckpointImage(std::string_view(image).substr(0, 5)).ok());
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

TEST_F(FtTest, SnapshotStoreFullAndDeltaRoundTrip) {
  std::string dir = ScratchDir("store_rt");
  ft::SnapshotStoreOptions opts;
  opts.retain = 10;  // keep everything for this test
  opts.full_every = 3;
  ft::SnapshotStore store(dir, opts);
  ASSERT_TRUE(store.Init().ok());

  std::vector<std::string> slots = {"s0-v1", "s1-v1", "s2-v1"};
  ASSERT_TRUE(store.Persist(1, slots, {{"tx/0", 10}}, 9).ok());  // full
  slots[1] = "s1-v2";
  ASSERT_TRUE(store.Persist(2, slots, {{"tx/0", 20}}, 19).ok());  // delta
  slots[0] = "s0-v3";
  slots[2] = "s2-v3";
  ASSERT_TRUE(store.Persist(3, slots, {{"tx/0", 30}}, 29).ok());  // delta

  auto manifest = *store.LatestManifest();
  EXPECT_EQ(manifest.epoch, 3u);
  EXPECT_TRUE(manifest.delta);
  EXPECT_EQ(manifest.base, 2u);
  EXPECT_EQ(manifest.source_offsets.at("tx/0"), 30);
  EXPECT_EQ(manifest.watermark, 29);
  // Delta chain 1 <- 2 <- 3 reassembles the latest slots exactly.
  EXPECT_EQ(*store.LoadSlots(manifest), slots);

  // A reopened store (fresh process) has no in-memory predecessor: the next
  // persist falls back to a full snapshot and remains loadable.
  ft::SnapshotStore reopened(dir, opts);
  ASSERT_TRUE(reopened.Init().ok());
  slots[1] = "s1-v4";
  ASSERT_TRUE(reopened.Persist(4, slots, {{"tx/0", 40}}, 39).ok());
  auto m4 = *reopened.LatestManifest();
  EXPECT_EQ(m4.epoch, 4u);
  EXPECT_FALSE(m4.delta);
  EXPECT_EQ(*reopened.LoadSlots(m4), slots);
}

TEST_F(FtTest, SnapshotStoreEpochsMustIncrease) {
  ft::SnapshotStore store(ScratchDir("store_epochs"));
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Persist(5, {"a"}, {}, 0).ok());
  EXPECT_FALSE(store.Persist(5, {"b"}, {}, 0).ok());
  EXPECT_FALSE(store.Persist(4, {"b"}, {}, 0).ok());
  EXPECT_TRUE(store.Persist(6, {"b"}, {}, 0).ok());
}

TEST_F(FtTest, TornManifestFallsBackToOlderEpoch) {
  std::string dir = ScratchDir("store_torn_manifest");
  ft::SnapshotStore store(dir, {.retain = 10, .full_every = 1});
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Persist(1, {"one"}, {{"tx/0", 1}}, 0).ok());
  ASSERT_TRUE(store.Persist(2, {"two"}, {{"tx/0", 2}}, 0).ok());

  // Tear epoch 2's manifest: truncate it mid-payload.
  {
    std::string path = dir + "/manifest-2";
    auto size = fs::file_size(path);
    ASSERT_GT(size, 4u);
    fs::resize_file(path, size / 2);
  }
  auto manifest = *store.LatestManifest();
  EXPECT_EQ(manifest.epoch, 1u);
  EXPECT_EQ((*store.LoadSlots(manifest))[0], "one");
}

TEST_F(FtTest, IncompleteDeltaFallsBackToOlderEpoch) {
  std::string dir = ScratchDir("store_torn_delta");
  ft::SnapshotStore store(dir, {.retain = 10, .full_every = 8});
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Persist(1, {"one"}, {{"tx/0", 1}}, 0).ok());   // full
  ASSERT_TRUE(store.Persist(2, {"two!"}, {{"tx/0", 2}}, 0).ok());  // delta

  // Cut the delta's tail: the terminal commit record disappears, so the
  // epoch must be treated as never having completed.
  {
    std::string path = dir + "/epoch-2.delta";
    auto size = fs::file_size(path);
    fs::resize_file(path, size - 5);
  }
  auto manifest = *store.LatestManifest();
  EXPECT_EQ(manifest.epoch, 1u);
  EXPECT_EQ((*store.LoadSlots(manifest))[0], "one");
}

TEST_F(FtTest, RetentionKeepsChainsIntact) {
  std::string dir = ScratchDir("store_retention");
  ft::SnapshotStoreOptions opts;
  opts.retain = 2;
  opts.full_every = 3;  // epochs 1,4,7... full; others delta
  ft::SnapshotStore store(dir, opts);
  ASSERT_TRUE(store.Init().ok());
  std::vector<std::string> slots = {"v"};
  for (uint64_t e = 1; e <= 6; ++e) {
    slots[0] = "v" + std::to_string(e);
    ASSERT_TRUE(store.Persist(e, slots, {{"tx/0", int64_t(e)}}, 0).ok());
  }
  // Epochs 5 and 6 are retained; 6 is a delta whose chain runs 4 <- 5 <- 6,
  // so epoch 4's files must survive the sweep while 1-3 are gone.
  auto epochs = *store.ManifestEpochs();
  EXPECT_EQ(epochs, (std::vector<uint64_t>{4, 5, 6}));
  auto manifest = *store.LatestManifest();
  EXPECT_EQ(manifest.epoch, 6u);
  EXPECT_EQ((*store.LoadSlots(manifest))[0], "v6");
}

// ---------------------------------------------------------------------------
// BarrierAligner
// ---------------------------------------------------------------------------

TEST_F(FtTest, BarrierAlignerAssemblesEpochsAcrossInterleavedReports) {
  std::map<uint64_t, std::vector<std::string>> completed;
  std::map<uint64_t, Status> failed;
  ft::BarrierAligner aligner(
      3, [&](uint64_t epoch, Result<std::vector<std::string>> slots) {
        if (slots.ok()) {
          completed[epoch] = *slots;
        } else {
          failed[epoch] = slots.status();
        }
      });
  // Two epochs interleaved, slots out of order.
  aligner.Report(1, 2, std::string("e1s2"));
  aligner.Report(2, 0, std::string("e2s0"));
  aligner.Report(1, 0, std::string("e1s0"));
  EXPECT_EQ(aligner.pending_epochs(), 2u);
  aligner.Report(1, 1, std::string("e1s1"));
  ASSERT_EQ(completed.count(1), 1u);
  EXPECT_EQ(completed[1], (std::vector<std::string>{"e1s0", "e1s1", "e1s2"}));
  // A failed slot snapshot fails the whole epoch.
  aligner.Report(2, 1, Status::Internal("worker snapshot failed"));
  aligner.Report(2, 2, std::string("e2s2"));
  ASSERT_EQ(failed.count(2), 1u);
  EXPECT_EQ(aligner.pending_epochs(), 0u);
}

// ---------------------------------------------------------------------------
// Commit-on-checkpoint source semantics
// ---------------------------------------------------------------------------

TEST_F(FtTest, DriverCommitsOnCheckpointNotOnPoll) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("tx", 1).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.Produce("tx", "k", T2(i, i), i).ok());
  }
  BrokerSourceDriver driver(&broker, "tx", "g");
  auto batch = *driver.PollBatch(4);
  EXPECT_EQ(batch.num_records(), 4u);
  // Read position advanced; the broker's committed offset did not.
  EXPECT_EQ((*driver.Offsets()).at("tx/0"), 4);
  EXPECT_EQ(broker.CommittedOffset("g", "tx", 0), 0);
  EXPECT_EQ((*driver.EndOffsets()).at("tx/0"), 10);

  // A crash here would replay everything: a fresh driver in the same group
  // starts back at the committed offset.
  {
    BrokerSourceDriver again(&broker, "tx", "g");
    EXPECT_EQ((*again.Offsets()).at("tx/0"), 0);
  }

  // Checkpoint durable -> CommitThrough; now the window is safe.
  ASSERT_TRUE(driver.CommitThrough(*driver.Offsets()).ok());
  EXPECT_EQ(broker.CommittedOffset("g", "tx", 0), 4);
  {
    BrokerSourceDriver again(&broker, "tx", "g");
    EXPECT_EQ((*again.Offsets()).at("tx/0"), 4);
    auto rest = *again.PollBatch(100);
    EXPECT_EQ(rest.num_records(), 6u);
  }
}

// ---------------------------------------------------------------------------
// End-to-end recovery rigs
// ---------------------------------------------------------------------------

constexpr int kMessages = 120;
constexpr size_t kParallelism = 2;

void FillBroker(Broker* broker) {
  ASSERT_TRUE(broker->CreateTopic("tx", 2).ok());
  for (int i = 0; i < kMessages; ++i) {
    Tuple t = T2(i % 5, i);
    ASSERT_TRUE(
        broker->Produce("tx", t[0].ToString(), t, Timestamp(i)).ok());
  }
}

/// The exactly-once ground truth: every produced record published once.
std::multiset<std::string> ExpectedPublishedRecords() {
  std::multiset<std::string> expected;
  for (int i = 0; i < kMessages; ++i) {
    expected.insert(
        ft::EpochSinkOperator::EncodeRecord(StreamElement::Record(
            T2(i % 5, i), Timestamp(i))));
  }
  return expected;
}

/// A fenced sharded pipeline: one EpochSinkOperator per shard. The sinks
/// never publish themselves — staged buffers travel inside the checkpoint
/// image and the coordinator publishes them from the store.
shard::ShardedPipeline::ChainFactory FenceChain(ft::DurableOutputLog* log) {
  return [log](size_t shard) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<ft::EpochSinkOperator>("sink", log, shard));
    return ops;
  };
}

/// One run attempt against shared durable state: recover (if anything is on
/// disk), then stream the topic with a checkpoint every `checkpoint_every`
/// polls — stop-the-world checkpoints by default, in-band barrier
/// checkpoints when `barrier_mode` (a snapshot overlaps the next interval's
/// sends). Any error (e.g. an injected fault) aborts the attempt — exactly
/// like a crash, since all durable state lives in `snap_dir`/`out_dir` and
/// the broker. Returns OK when the topic was fully drained and fenced.
Status RunFencedPipelineOnce(Broker* broker, const std::string& snap_dir,
                             const std::string& out_dir, int checkpoint_every,
                             bool barrier_mode = false) {
  ft::DurableOutputLog log(out_dir);
  CQ_RETURN_NOT_OK(log.Init());
  ft::SnapshotStoreOptions store_opts;
  store_opts.retain = 2;
  store_opts.full_every = 2;
  ft::SnapshotStore store(snap_dir, store_opts);
  CQ_RETURN_NOT_OK(store.Init());

  shard::ShardedPipelineOptions popts;
  popts.batch_size = 8;
  shard::ShardedPipeline pipeline(kParallelism, FenceChain(&log), {0}, popts);
  BrokerSourceDriver driver(broker, "tx", "g");

  ft::CheckpointCoordinator coord(&pipeline, &store);
  coord.SetOffsetsProvider([&driver] { return driver.Offsets(); });
  coord.SetCommitFn([&driver](const std::map<std::string, int64_t>& o) {
    return driver.CommitThrough(o);
  });
  coord.SetWatermarkFn([&driver] { return driver.CurrentWatermark(); });
  coord.SetOutputLog(&log);
  if (barrier_mode) {
    pipeline.SetBarrierHandler(coord.Handler(pipeline.BarrierFanIn()));
  }

  CQ_RETURN_NOT_OK(pipeline.Start());

  // Recovery: restore the newest durable epoch (no-op on first attempt),
  // rewind the source, and republish the restored epoch's staged output
  // from the same image — idempotent when the crash happened after the
  // original publish.
  ft::RecoveryManager recovery(&store);
  recovery.SetOutputLog(&log);
  CQ_ASSIGN_OR_RETURN(
      ft::RecoveryReport report,
      recovery.Recover(
          &pipeline,
          [&driver](const std::map<std::string, int64_t>& o) {
            return driver.SeekTo(o);
          },
          [&driver] { return driver.EndOffsets(); }));
  if (report.restored) coord.ResumeFromEpoch(report.epoch);

  // In barrier mode the snapshot completes asynchronously; the previous
  // epoch is awaited one interval later, overlapping alignment with the
  // next interval's sends.
  uint64_t inflight = 0;
  bool has_inflight = false;
  auto checkpoint = [&]() -> Status {
    if (barrier_mode) {
      if (has_inflight) {
        CQ_RETURN_NOT_OK(coord.WaitForEpoch(inflight));
        has_inflight = false;
      }
      CQ_ASSIGN_OR_RETURN(inflight, coord.TriggerBarrierCheckpoint(&pipeline));
      has_inflight = true;
      return Status::OK();
    }
    return coord.TriggerCheckpoint().status();
  };

  int polls = 0;
  while (true) {
    CQ_ASSIGN_OR_RETURN(StreamBatch batch, driver.PollBatch(16));
    if (batch.num_records() == 0) break;
    for (const auto& e : batch.elements()) {
      if (e.is_record()) {
        CQ_RETURN_NOT_OK(pipeline.Send(e.tuple, e.timestamp));
      } else if (e.is_watermark()) {
        CQ_RETURN_NOT_OK(pipeline.BroadcastWatermark(e.timestamp));
      }
    }
    if (++polls % checkpoint_every == 0) CQ_RETURN_NOT_OK(checkpoint());
  }
  // Final checkpoint fences the tail of the stream into the output log.
  CQ_RETURN_NOT_OK(checkpoint());
  if (has_inflight) CQ_RETURN_NOT_OK(coord.WaitForEpoch(inflight));
  return pipeline.Finish().status();
}

/// Drives RunFencedPipelineOnce to completion, tolerating injected-fault
/// aborts in between (each attempt recovers from the durable state the
/// previous one left behind). Returns the number of attempts used.
int RunToCompletion(Broker* broker, const std::string& snap_dir,
                    const std::string& out_dir, bool barrier_mode = false) {
  for (int attempt = 1; attempt <= 10; ++attempt) {
    Status st =
        RunFencedPipelineOnce(broker, snap_dir, out_dir, 2, barrier_mode);
    if (st.ok()) return attempt;
    // Injected faults surface as error statuses; disarm so the retry (the
    // "restarted process") runs clean.
    ft::FaultInjector::Global().Reset();
  }
  ADD_FAILURE() << "pipeline did not complete within 10 attempts";
  return -1;
}

std::multiset<std::string> PublishedRecords(const std::string& out_dir) {
  ft::DurableOutputLog log(out_dir);
  auto records = *log.ReadAll();
  return {records.begin(), records.end()};
}

TEST_F(FtTest, FencedPipelineUninterruptedBaseline) {
  Broker broker;
  FillBroker(&broker);
  std::string snap = ScratchDir("baseline_snap");
  std::string out = ScratchDir("baseline_out");
  EXPECT_EQ(RunToCompletion(&broker, snap, out), 1);
  EXPECT_EQ(PublishedRecords(out), ExpectedPublishedRecords());
}

/// The tentpole acceptance test: for EVERY compiled-in fault point, inject a
/// failure mid-run, recover from the on-disk manifest, and require the
/// published output to be identical to an uninterrupted run — no loss, no
/// duplicates, regardless of where the failure landed.
TEST_F(FtTest, RecoveryAfterInjectedFailureAtEveryFaultPoint) {
  const std::multiset<std::string> expected = ExpectedPublishedRecords();
  for (const std::string& point : ft::faultpoint::All()) {
    SCOPED_TRACE("fault point: " + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir("fp_snap_" + point);
    std::string out = ScratchDir("fp_out_" + point);
    // Let the run make some progress before the failure lands (the third
    // hit), so there is real state to recover.
    ft::FaultInjector::Global().Arm(point, /*after=*/2, ft::FaultKind::kFail);
    int attempts = RunToCompletion(&broker, snap, out);
    EXPECT_GE(attempts, 1) << point;
    EXPECT_EQ(PublishedRecords(out), expected) << point;
  }
}

/// Same property under a REAL crash: the child process dies via _exit(42)
/// mid-run (no destructors, no flushes — exactly like a kill -9), and the
/// parent recovers purely from the on-disk snapshot directory. fork()
/// duplicates the in-memory broker, standing in for a durable queue.
TEST_F(FtTest, CrashRecoveryAfterRealProcessDeath) {
  // `after` is tuned so the crash lands mid-run: snapshot points are hit
  // once per checkpoint (~3 per run), publish twice (two parts), worker
  // processing on every batch.
  struct CrashPoint {
    const char* point;
    uint64_t after;
  };
  const CrashPoint crash_points[] = {
      {ft::faultpoint::kSnapshotPreManifestRename, 1},
      {ft::faultpoint::kSinkPublish, 3},
      {ft::faultpoint::kWorkerProcess, 6}};
  for (const auto& [point, after] : crash_points) {
    SCOPED_TRACE(std::string("crash point: ") + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir(std::string("crash_snap_") + point);
    std::string out = ScratchDir(std::string("crash_out_") + point);
    std::string dump = out + "/child_stderr";

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: capture stderr (the crash path dumps the flight recorder
      // there), arm a hard crash, and run. If the fault never fires the
      // run finishes cleanly; exit 0 so the parent can tell the difference.
      if (std::freopen(dump.c_str(), "w", stderr) == nullptr) _exit(3);
      ft::FaultInjector::Global().Arm(point, after, ft::FaultKind::kExit);
      Status st = RunFencedPipelineOnce(&broker, snap, out, 2);
      _exit(st.ok() ? 0 : 1);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), ft::kFaultExitCode)
        << "child should have died at the injected crash";

    // Black-box property: the dead process's stderr holds the flight
    // recorder ring, ending with the fault that killed it.
    std::stringstream captured;
    captured << std::ifstream(dump).rdbuf();
    EXPECT_NE(captured.str().find("CQ_FLIGHT_RECORDER_BEGIN"),
              std::string::npos)
        << point;
    EXPECT_NE(captured.str().find("\"category\":\"fault\""),
              std::string::npos)
        << point;

    // Parent: recover from what the dead process left on disk and finish;
    // the recovery itself must leave events in this process's ring.
    FlightRecorder::Global().Clear();
    int attempts = RunToCompletion(&broker, snap, out);
    EXPECT_GE(attempts, 1);
    EXPECT_EQ(PublishedRecords(out), ExpectedPublishedRecords()) << point;
    bool recovery_seen = false;
    for (const FlightEvent& ev : FlightRecorder::Global().Snapshot()) {
      if (ev.category == "recovery") recovery_seen = true;
    }
    EXPECT_TRUE(recovery_seen) << point;
  }
}

/// The staged fence under in-band barriers: each sink's buffer is staged
/// into the snapshot image at barrier arrival while post-barrier records
/// keep flowing, and the coordinator publishes from the durable image on
/// manifest commit. The published output must still match the
/// uninterrupted run bit for bit.
TEST_F(FtTest, BarrierFencedPipelineUninterruptedBaseline) {
  Broker broker;
  FillBroker(&broker);
  std::string snap = ScratchDir("barrier_fence_snap");
  std::string out = ScratchDir("barrier_fence_out");
  EXPECT_EQ(RunToCompletion(&broker, snap, out, /*barrier_mode=*/true), 1);
  EXPECT_EQ(PublishedRecords(out), ExpectedPublishedRecords());
}

/// Published-output equivalence in barrier mode under faults at both halves
/// of the two-phase fence: `fence.stage` fails phase 1 (the live buffer is
/// about to be dropped after staging into the image — the epoch must abort
/// and replay from the previous durable epoch) and `sink.publish` fails
/// phase 2 (the manifest is already committed — recovery must republish
/// from the same staged image, idempotently).
TEST_F(FtTest, BarrierFenceExactlyOnceUnderStageAndPublishFaults) {
  const std::multiset<std::string> expected = ExpectedPublishedRecords();
  for (const std::string& point :
       {std::string(ft::faultpoint::kFenceStage),
        std::string(ft::faultpoint::kSinkPublish)}) {
    SCOPED_TRACE("barrier fence fault point: " + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir("barrier_fp_snap_" + point);
    std::string out = ScratchDir("barrier_fp_out_" + point);
    ft::FaultInjector::Global().Arm(point, /*after=*/2, ft::FaultKind::kFail);
    int attempts = RunToCompletion(&broker, snap, out, /*barrier_mode=*/true);
    EXPECT_GE(attempts, 1) << point;
    EXPECT_EQ(PublishedRecords(out), expected) << point;
  }
}

// ---------------------------------------------------------------------------
// Barrier (in-band) checkpoints
// ---------------------------------------------------------------------------

WindowedAggregateConfig SumConfig() {
  WindowedAggregateConfig cfg;
  cfg.assigner = std::make_shared<TumblingWindowAssigner>(10);
  cfg.key_indexes = {0};
  cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
  return cfg;
}

/// Keyed windowed SUM(col 1) by col 0, as a sharded chain.
shard::ShardedPipeline::ChainFactory SumChain() {
  return [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(
        std::make_unique<WindowedAggregateOperator>("win", SumConfig()));
    return ops;
  };
}

/// The same SUM as one synchronous executor: src -> win -> sink.
std::unique_ptr<PipelineExecutor> SumExecutor(BoundedStream* out,
                                              NodeId* src) {
  auto g = std::make_unique<DataflowGraph>();
  *src = g->AddNode(std::make_unique<PassThroughOperator>("src"));
  NodeId win = g->AddNode(
      std::make_unique<WindowedAggregateOperator>("win", SumConfig()));
  NodeId sink = g->AddNode(std::make_unique<CollectSinkOperator>("sink", out));
  EXPECT_TRUE(g->Connect(*src, win).ok());
  EXPECT_TRUE(g->Connect(win, sink).ok());
  return std::make_unique<PipelineExecutor>(std::move(g));
}

TEST_F(FtTest, BarrierCheckpointSnapshotsWithoutStoppingTheWorld) {
  std::string dir = ScratchDir("barrier_snap");
  ft::SnapshotStore store(dir);
  ASSERT_TRUE(store.Init().ok());

  auto send_half = [](shard::ShardedPipeline* p, int64_t ts) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(p->Send(T2(i % 3, 1), ts).ok());
    }
  };

  // Reference: uninterrupted run over both halves.
  shard::ShardedPipeline ref(2, SumChain(), {0});
  ASSERT_TRUE(ref.Start().ok());
  send_half(&ref, 5);
  send_half(&ref, 15);
  ASSERT_TRUE(ref.BroadcastWatermark(100).ok());
  BoundedStream reference = *ref.Finish();
  ASSERT_GT(reference.num_records(), 0u);

  // Barrier run: inject the barrier between the halves and KEEP SENDING —
  // alignment happens in-band while the second half is processed.
  shard::ShardedPipeline a(2, SumChain(), {0});
  ft::CheckpointCoordinator coord(&a, &store);
  a.SetBarrierHandler(coord.Handler(a.BarrierFanIn()));
  ASSERT_TRUE(a.Start().ok());
  send_half(&a, 5);
  uint64_t epoch = *coord.TriggerBarrierCheckpoint(&a);
  send_half(&a, 15);  // concurrent with the snapshot
  ASSERT_TRUE(coord.WaitForEpoch(epoch).ok());
  EXPECT_EQ(coord.last_completed_epoch(), epoch);
  ASSERT_TRUE(a.BroadcastWatermark(100).ok());
  BoundedStream full = *a.Finish();
  ASSERT_EQ(full.num_records(), reference.num_records());

  // Restore the barrier snapshot into a fresh pipeline; replaying only the
  // post-barrier half must reproduce the reference — proof the snapshot
  // captured exactly the pre-barrier prefix.
  shard::ShardedPipeline b(2, SumChain(), {0});
  ASSERT_TRUE(b.Start().ok());
  ft::RecoveryManager recovery(&store);
  auto report = *recovery.Recover(&b, nullptr);
  ASSERT_TRUE(report.restored);
  EXPECT_EQ(report.epoch, epoch);
  send_half(&b, 15);
  ASSERT_TRUE(b.BroadcastWatermark(100).ok());
  BoundedStream restored = *b.Finish();
  ASSERT_EQ(restored.num_records(), reference.num_records());
  for (size_t i = 0; i < restored.num_records(); ++i) {
    EXPECT_EQ(restored.at(i).tuple, reference.at(i).tuple) << i;
    EXPECT_EQ(restored.at(i).timestamp, reference.at(i).timestamp) << i;
  }
}

// ---------------------------------------------------------------------------
// Unified Checkpointable traversal across both pipeline shapes
// ---------------------------------------------------------------------------

TEST_F(FtTest, ExecutorAndShardedShareTheCheckpointCodec) {
  // A synchronous executor's image and a sharded pipeline's image use the
  // same outer codec: both decode with DecodeCheckpointImage, and slot
  // counts expose the shape (nodes vs meta slot plus tasks).
  BoundedStream out;
  NodeId src = 0;
  auto exec = SumExecutor(&out, &src);
  ASSERT_TRUE(exec->PushRecord(src, T2(1, 1), 5).ok());
  std::string exec_image = *exec->Checkpoint({{"tx/0", 1}});
  auto exec_decoded = *ft::DecodeCheckpointImage(exec_image);
  EXPECT_EQ(exec_decoded.slots.size(), 3u);  // src, win, sink
  EXPECT_EQ(exec_decoded.source_offsets.at("tx/0"), 1);

  shard::ShardedPipeline p(3, SumChain(), {0});
  ASSERT_TRUE(p.Start().ok());
  ASSERT_TRUE(p.Send(T2(1, 1), 5).ok());
  std::string sharded_image = *p.Checkpoint({{"tx/0", 1}});
  auto sharded_decoded = *ft::DecodeCheckpointImage(sharded_image);
  EXPECT_EQ(sharded_decoded.slots.size(), 4u);  // meta slot + one per task
  EXPECT_EQ(sharded_decoded.source_offsets.at("tx/0"), 1);

  // Shape mismatches are rejected by both restore paths.
  EXPECT_FALSE(exec->RestoreSlots(sharded_decoded.slots).ok());
  EXPECT_FALSE(p.RestoreSlots(exec_decoded.slots).ok());
  ASSERT_TRUE(p.Finish().ok());
}

/// Barriers are a runtime-internal protocol: they must never leak into
/// operators or the synchronous executor.
TEST_F(FtTest, BarriersDoNotLeakIntoTheSynchronousExecutor) {
  BoundedStream out;
  NodeId src = 0;
  auto exec = SumExecutor(&out, &src);
  EXPECT_FALSE(exec->Push(src, StreamElement::Barrier(1)).ok());
  StreamBatch batch;
  batch.AddRecord(T2(1, 1), 1);
  batch.Add(StreamElement::Barrier(1));
  EXPECT_FALSE(exec->PushBatch(src, batch).ok());
}

}  // namespace
}  // namespace cq
