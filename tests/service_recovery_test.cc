#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ft/coordinator.h"
#include "ft/fault.h"
#include "ft/fence.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "queue/broker.h"
#include "runtime/driver.h"
#include "service/service.h"

namespace cq {
namespace {

namespace fs = std::filesystem;

Catalog TradesCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterStream("trades",
                                  Schema::Make({{"sym", ValueType::kString},
                                                {"price", ValueType::kInt64},
                                                {"qty", ValueType::kInt64}}))
                  .ok());
  return catalog;
}

Tuple Trade(const char* sym, int64_t price, int64_t qty) {
  return Tuple{Value(sym), Value(price), Value(qty)};
}

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("cq_svcrec_" + tag + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Injector state is process-global; every test starts clean.
class ServiceRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { ft::FaultInjector::Global().Reset(); }
  void TearDown() override { ft::FaultInjector::Global().Reset(); }
};

constexpr int kMessages = 90;
const char* kTopic = "trades";

/// Three standing queries; the first two share the whole source -> lifted
/// filter -> [Range 20] prefix (one shared chain, refcount 2), the third
/// runs a disjoint [Rows 4] chain over the same source stream.
std::vector<std::string> ServiceQueries() {
  return {
      "SELECT sym, qty FROM trades [Range 20] WHERE price > 3",
      "SELECT sym, SUM(qty) AS total FROM trades [Range 20] "
      "WHERE price > 3 GROUP BY sym",
      "SELECT price FROM trades [Rows 4]",
  };
}

void FillBroker(Broker* broker) {
  ASSERT_TRUE(broker->CreateTopic(kTopic, 2).ok());
  const char* syms[] = {"a", "b", "c"};
  for (int i = 0; i < kMessages; ++i) {
    Tuple t = Trade(syms[i % 3], i % 7, i);
    ASSERT_TRUE(broker->Produce(kTopic, t[0].ToString(), t, Timestamp(i)).ok());
  }
}

/// One service run attempt against shared durable state: recover (restoring
/// the registered-query set and all window/plan state if anything is on
/// disk, re-registering from scratch otherwise), then stream the topic with
/// an in-band barrier checkpoint every `checkpoint_every` polls. Fenced
/// query output is staged into the checkpoint image and published by the
/// coordinator on manifest commit; any error (e.g. an injected fault)
/// aborts the attempt exactly like a crash.
Status RunServiceOnce(Broker* broker, const std::string& snap_dir,
                      const std::string& out_dir, int checkpoint_every) {
  ft::DurableOutputLog log(out_dir);
  CQ_RETURN_NOT_OK(log.Init());
  ft::SnapshotStoreOptions store_opts;
  store_opts.retain = 2;
  store_opts.full_every = 2;
  ft::SnapshotStore store(snap_dir, store_opts);
  CQ_RETURN_NOT_OK(store.Init());

  QueryService svc(TradesCatalog());
  svc.SetDurableOutputLog(&log);
  BrokerSourceDriver driver(broker, kTopic, "svc");

  ft::CheckpointCoordinator coord(&svc, &store);
  coord.SetOffsetsProvider([&driver] { return driver.Offsets(); });
  coord.SetCommitFn([&driver](const std::map<std::string, int64_t>& o) {
    return driver.CommitThrough(o);
  });
  coord.SetWatermarkFn([&driver] { return driver.CurrentWatermark(); });
  coord.SetOutputLog(&log);
  svc.SetBarrierHandler(coord.Handler(svc.BarrierFanIn()));

  ft::RecoveryManager recovery(&store);
  recovery.SetOutputLog(&log);
  CQ_ASSIGN_OR_RETURN(
      ft::RecoveryReport report,
      recovery.Recover(
          &svc,
          [&driver](const std::map<std::string, int64_t>& o) {
            return driver.SeekTo(o);
          },
          [&driver] { return driver.EndOffsets(); }));
  if (report.restored) {
    // RestoreSlots already re-registered every persisted query.
    coord.ResumeFromEpoch(report.epoch);
  } else {
    for (const std::string& sql : ServiceQueries()) {
      CQ_RETURN_NOT_OK(svc.RegisterQuery(sql).status());
    }
  }

  // Pushes serialise on the service lock, so the "barrier" aligns the
  // moment InjectBarrier takes it: the trigger completes synchronously.
  auto checkpoint = [&]() -> Status {
    CQ_ASSIGN_OR_RETURN(uint64_t epoch, coord.TriggerBarrierCheckpoint(&svc));
    return coord.WaitForEpoch(epoch);
  };

  int polls = 0;
  while (true) {
    CQ_ASSIGN_OR_RETURN(StreamBatch batch, driver.PollBatch(16));
    if (batch.num_records() == 0) break;
    for (const auto& e : batch.elements()) {
      CQ_RETURN_NOT_OK(svc.Push(kTopic, e));
    }
    if (++polls % checkpoint_every == 0) CQ_RETURN_NOT_OK(checkpoint());
  }
  // Flush every pending window past end-of-input, then fence the tail.
  CQ_ASSIGN_OR_RETURN(Timestamp fin, driver.FinalWatermark());
  CQ_RETURN_NOT_OK(svc.PushWatermark(kTopic, fin));
  return checkpoint();
}

/// Drives RunServiceOnce to completion, tolerating injected-fault aborts in
/// between (each attempt recovers the full service — query registry and all
/// operator state — from what the previous one left on disk). Returns the
/// number of attempts used.
int RunToCompletion(Broker* broker, const std::string& snap_dir,
                    const std::string& out_dir) {
  for (int attempt = 1; attempt <= 10; ++attempt) {
    Status st = RunServiceOnce(broker, snap_dir, out_dir, 2);
    if (st.ok()) return attempt;
    ft::FaultInjector::Global().Reset();
  }
  ADD_FAILURE() << "service did not complete within 10 attempts";
  return -1;
}

std::multiset<std::string> PublishedRecords(const std::string& out_dir) {
  ft::DurableOutputLog log(out_dir);
  auto records = *log.ReadAll();
  return {records.begin(), records.end()};
}

/// The ground truth all recovery tests compare against: one clean,
/// uninterrupted run in private directories.
std::multiset<std::string> ReferencePublished(const std::string& tag) {
  Broker broker;
  FillBroker(&broker);
  std::string snap = ScratchDir(tag + "_ref_snap");
  std::string out = ScratchDir(tag + "_ref_out");
  EXPECT_EQ(RunToCompletion(&broker, snap, out), 1);
  return PublishedRecords(out);
}

// --- Direct snapshot/restore round trip (no coordinator) ---

/// Register -> warm up -> SnapshotSlots -> restore into a FRESH service:
/// the restored service must rebuild an equivalent shared graph
/// (byte-identical fingerprints, same refcounts, same node count) and
/// produce byte-identical output on an identical tail of input — including
/// after dropping one of the sharing queries on both sides.
TEST_F(ServiceRecoveryTest, SnapshotRestoreRoundTripPreservesGraphAndState) {
  std::string out_dir = ScratchDir("rt_out");
  ft::DurableOutputLog log(out_dir);
  ASSERT_TRUE(log.Init().ok());

  QueryService a(TradesCatalog());
  a.SetDurableOutputLog(&log);
  std::vector<QueryId> ids;
  for (const std::string& sql : ServiceQueries()) {
    auto id = a.RegisterQuery(sql);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // Sharing precondition: the second query reused the first one's whole
  // source + filter + window prefix.
  EXPECT_GE((*a.GetQuery(ids[1])).nodes_reused, 3u);
  bool any_shared_twice = false;
  for (const auto& [fp, refs] : a.SharedRefCounts()) {
    if (refs >= 2) any_shared_twice = true;
  }
  EXPECT_TRUE(any_shared_twice);

  // Warm real state into the windows, join-free plans and aggregations.
  const char* syms[] = {"a", "b", "c"};
  auto push_range = [&](QueryService& svc, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(
          svc.PushRecord(kTopic, Trade(syms[i % 3], i % 7, i), Timestamp(i))
              .ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(svc.PushWatermark(kTopic, i).ok());
      }
    }
  };
  push_range(a, 0, 40);

  auto slots = a.SnapshotSlots();
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  ASSERT_EQ(slots->size(), 1u);

  QueryService b(TradesCatalog());
  b.SetDurableOutputLog(&log);
  Status restored = b.RestoreSlots(*slots);
  ASSERT_TRUE(restored.ok()) << restored.ToString();

  // Graph equivalence: same topology, same sharing, same fingerprints.
  EXPECT_EQ(b.NumOperators(), a.NumOperators());
  EXPECT_EQ(b.NumActiveQueries(), a.NumActiveQueries());
  EXPECT_EQ(b.SharedRefCounts(), a.SharedRefCounts());
  for (QueryId id : ids) {
    auto fa = a.QueryFingerprints(id);
    auto fb = b.QueryFingerprints(id);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(*fa, *fb) << "query " << id;
  }

  // State equivalence: an identical input tail must yield byte-identical
  // output from both services (windows still hold the pre-snapshot rows).
  auto drain = [](const SubscriptionPtr& sub) {
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
  for (QueryId id : {ids[0], ids[1]}) {
    auto sub_a = a.Subscribe(id);
    auto sub_b = b.Subscribe(id);
    ASSERT_TRUE(sub_a.ok() && sub_b.ok());
    push_range(a, 40, 60);
    push_range(b, 40, 60);
    auto recs_a = drain(*sub_a);
    EXPECT_FALSE(recs_a.empty()) << "query " << id;
    EXPECT_EQ(recs_a, drain(*sub_b)) << "query " << id;

    // Drop-equivalence: tear the sharing aggregate query out of BOTH
    // services after the first comparison round; the surviving sharer must
    // keep producing identical output from the shared prefix.
    if (id == ids[0]) {
      ASSERT_TRUE(a.DropQuery(ids[1]).ok());
      ASSERT_TRUE(b.DropQuery(ids[1]).ok());
      EXPECT_EQ(b.SharedRefCounts(), a.SharedRefCounts());
      EXPECT_EQ(b.NumOperators(), a.NumOperators());
      push_range(a, 60, 80);
      push_range(b, 60, 80);
      EXPECT_EQ(drain(*sub_a), drain(*sub_b));
      break;  // ids[1] is gone; the inner Subscribe loop is over
    }
  }

  // Restored id counters: a new registration gets a fresh id, not a reuse.
  auto fresh = b.RegisterQuery(ServiceQueries()[0]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, ids.back());

  // A fresh registration lands on the same chain on both sides: the one the
  // surviving query with the same SQL already runs on.
  auto fresh_a = a.RegisterQuery(ServiceQueries()[0]);
  ASSERT_TRUE(fresh_a.ok());
  EXPECT_EQ(*fresh_a, *fresh);
  EXPECT_EQ(*a.QueryFingerprints(*fresh_a), *b.QueryFingerprints(*fresh));
  EXPECT_EQ(*b.QueryFingerprints(*fresh), *b.QueryFingerprints(ids[0]));
  EXPECT_EQ(b.SharedRefCounts(), a.SharedRefCounts());
}

// --- Coordinated end-to-end runs ---

TEST_F(ServiceRecoveryTest, UninterruptedServiceRunIsDeterministic) {
  Broker broker;
  FillBroker(&broker);
  std::string snap = ScratchDir("base_snap");
  std::string out = ScratchDir("base_out");
  EXPECT_EQ(RunToCompletion(&broker, snap, out), 1);
  auto published = PublishedRecords(out);
  EXPECT_FALSE(published.empty());
  // Determinism underwrites every equivalence check below: a second clean
  // run over the same input publishes the identical multiset.
  EXPECT_EQ(published, ReferencePublished("base"));
}

/// Service-level effectively-once: inject failures at both halves of the
/// two-phase publish fence and at the manifest rename, restart (restoring
/// the full query registry + state via RecoveryManager), and require the
/// published output to match an uninterrupted run exactly.
TEST_F(ServiceRecoveryTest, EffectivelyOnceUnderInjectedFaults) {
  const std::multiset<std::string> expected = ReferencePublished("inj");
  for (const std::string& point :
       {std::string(ft::faultpoint::kFenceStage),
        std::string(ft::faultpoint::kSinkPublish),
        std::string(ft::faultpoint::kSnapshotPreManifestRename)}) {
    SCOPED_TRACE("fault point: " + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir("inj_snap_" + point);
    std::string out = ScratchDir("inj_out_" + point);
    ft::FaultInjector::Global().Arm(point, /*after=*/2, ft::FaultKind::kFail);
    int attempts = RunToCompletion(&broker, snap, out);
    EXPECT_GE(attempts, 1) << point;
    EXPECT_EQ(PublishedRecords(out), expected) << point;
  }
}

/// The acceptance crash drill: the child process dies via _exit(42) mid-run
/// (no destructors, no flushes), the parent restores the service purely
/// from the on-disk snapshot + output log and finishes the stream. fork()
/// duplicates the in-memory broker, standing in for a durable queue.
TEST_F(ServiceRecoveryTest, CrashRecoveryAfterRealProcessDeath) {
  const std::multiset<std::string> expected = ReferencePublished("crash");
  struct CrashPoint {
    const char* point;
    uint64_t after;
  };
  // Three fence sinks hit fence.stage once per epoch each, and publish
  // once per epoch each; after=4 lands the crash inside the second epoch,
  // past real committed state.
  const CrashPoint crash_points[] = {{ft::faultpoint::kFenceStage, 4},
                                     {ft::faultpoint::kSinkPublish, 4}};
  for (const auto& [point, after] : crash_points) {
    SCOPED_TRACE(std::string("crash point: ") + point);
    Broker broker;
    FillBroker(&broker);
    std::string snap = ScratchDir(std::string("crash_snap_") + point);
    std::string out = ScratchDir(std::string("crash_out_") + point);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ft::FaultInjector::Global().Arm(point, after, ft::FaultKind::kExit);
      Status st = RunServiceOnce(&broker, snap, out, 2);
      _exit(st.ok() ? 0 : 1);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), ft::kFaultExitCode)
        << "child should have died at the injected crash";

    int attempts = RunToCompletion(&broker, snap, out);
    EXPECT_GE(attempts, 1);
    EXPECT_EQ(PublishedRecords(out), expected) << point;
  }
}

}  // namespace
}  // namespace cq
