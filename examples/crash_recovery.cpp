/// \file crash_recovery.cpp
/// \brief Crash recovery walkthrough: epoch checkpoints, fault injection,
/// and effectively-once output (§5 fault tolerance).
///
/// The scenario: a keyed sharded pipeline consumes a broker topic through
/// fenced epoch sinks, checkpointing every other poll. Mid-run a fault is
/// injected — by default the offset commit fails; override the site with
/// CQ_FAULT="<point>:<after>:fail" (e.g.
/// "snapshot.pre_manifest_rename:1:fail") — and the run aborts exactly
/// where a crash would. A fresh pipeline then recovers from the on-disk
/// manifest: operator state is restored, the source rewinds to the
/// checkpointed offsets, the lost window replays, and the publish fence
/// drops duplicate epoch output. The demo verifies the published records
/// equal an uninterrupted run's, byte for byte.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
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
#include "shard/sharded_pipeline.h"

using namespace cq;
namespace fs = std::filesystem;

namespace {

constexpr int kMessages = 200;
constexpr size_t kParallelism = 2;

void FillBroker(Broker* broker) {
  (void)broker->CreateTopic("tx", 2);
  for (int i = 0; i < kMessages; ++i) {
    Tuple t({Value(int64_t(i % 7)), Value(int64_t(i))});
    std::string key = t[0].ToString();
    (void)broker->Produce("tx", std::move(key), std::move(t), Timestamp(i));
  }
}

/// Per-shard chain: one fenced epoch sink. The sinks stage their buffers
/// into the checkpoint image; the coordinator publishes from the durable
/// image, so nobody needs the raw sink pointers.
shard::ShardedPipeline::ChainFactory MakeChain(ft::DurableOutputLog* log) {
  return [log](size_t shard) -> Result<std::vector<std::unique_ptr<Operator>>> {
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(std::make_unique<ft::EpochSinkOperator>("sink", log, shard));
    return ops;
  };
}

/// One run attempt: recover whatever is durable, then stream the topic with
/// a checkpoint every other poll. Returns an error where a crash would
/// land; everything up to the last durable epoch survives on disk.
Status RunOnce(Broker* broker, const std::string& snap_dir,
               const std::string& out_dir) {
  ft::DurableOutputLog log(out_dir);
  CQ_RETURN_NOT_OK(log.Init());
  ft::SnapshotStore store(snap_dir);
  CQ_RETURN_NOT_OK(store.Init());

  shard::ShardedPipeline pipeline(kParallelism, MakeChain(&log), {0});
  BrokerSourceDriver driver(broker, "tx", "demo");

  ft::CheckpointCoordinator coord(&pipeline, &store);
  coord.SetOffsetsProvider([&driver] { return driver.Offsets(); });
  coord.SetCommitFn([&driver](const std::map<std::string, int64_t>& o) {
    return driver.CommitThrough(o);
  });
  coord.SetWatermarkFn([&driver] { return driver.CurrentWatermark(); });
  coord.SetOutputLog(&log);

  CQ_RETURN_NOT_OK(pipeline.Start());

  // Recovery (a no-op when the store is empty): restore the newest durable
  // epoch, rewind the source, and republish the restored epoch's staged
  // output from the same image — the fence makes that idempotent.
  ft::RecoveryManager recovery(&store);
  recovery.SetOutputLog(&log);
  Result<ft::RecoveryReport> report = recovery.Recover(
      &pipeline,
      [&driver](const std::map<std::string, int64_t>& o) {
        return driver.SeekTo(o);
      },
      [&driver] { return driver.EndOffsets(); });
  CQ_RETURN_NOT_OK(report.status());
  if (report->restored) {
    std::printf("  recovered: epoch %llu, watermark %lld, replaying %lld "
                "records\n",
                static_cast<unsigned long long>(report->epoch),
                static_cast<long long>(report->watermark),
                static_cast<long long>(report->records_to_replay));
    coord.ResumeFromEpoch(report->epoch);
  }

  int polls = 0;
  while (true) {
    Result<StreamBatch> batch = driver.PollBatch(16);
    CQ_RETURN_NOT_OK(batch.status());
    if (batch->num_records() == 0) break;
    for (const auto& e : batch->elements()) {
      if (e.is_record()) {
        CQ_RETURN_NOT_OK(pipeline.Send(e.tuple, e.timestamp));
      } else if (e.is_watermark()) {
        CQ_RETURN_NOT_OK(pipeline.BroadcastWatermark(e.timestamp));
      }
    }
    if (++polls % 2 == 0) {
      Result<uint64_t> epoch = coord.TriggerCheckpoint();
      CQ_RETURN_NOT_OK(epoch.status());
      std::printf("  checkpoint: epoch %llu durable\n",
                  static_cast<unsigned long long>(*epoch));
    }
  }
  CQ_RETURN_NOT_OK(coord.TriggerCheckpoint().status());  // fence the tail
  return pipeline.Finish().status();
}

std::multiset<std::string> Published(const std::string& out_dir) {
  ft::DurableOutputLog log(out_dir);
  Result<std::vector<std::string>> records = log.ReadAll();
  if (!records.ok()) return {};
  return {records->begin(), records->end()};
}

std::string Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("cq_crash_recovery_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

}  // namespace

int main() {
  // Reference: an uninterrupted run.
  std::printf("== reference run (no faults) ==\n");
  Broker broker_a;
  FillBroker(&broker_a);
  std::string snap_a = Scratch("ref_snap");
  std::string out_a = Scratch("ref_out");
  Status st = RunOnce(&broker_a, snap_a, out_a);
  if (!st.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Faulty run: arm from CQ_FAULT, or default to an offset-commit failure
  // on the 2nd checkpoint.
  ft::FaultInjector& injector = ft::FaultInjector::Global();
  if (std::getenv("CQ_FAULT") != nullptr) {
    injector.ArmFromEnv();
    std::printf("\n== faulty run (CQ_FAULT=%s) ==\n", std::getenv("CQ_FAULT"));
  } else {
    injector.Arm(ft::faultpoint::kCommitOffsets, /*after=*/1,
                 ft::FaultKind::kFail);
    std::printf("\n== faulty run (source.commit_offsets on 2nd checkpoint) "
                "==\n");
  }
  Broker broker_b;
  FillBroker(&broker_b);
  std::string snap_b = Scratch("crash_snap");
  std::string out_b = Scratch("crash_out");
  int attempts = 0;
  for (; attempts < 10; ++attempts) {
    st = RunOnce(&broker_b, snap_b, out_b);
    if (st.ok()) break;
    std::printf("  crashed: %s\n", st.ToString().c_str());
    injector.Reset();  // the "restarted process" runs clean
    std::printf("== restart %d: recovering from %s ==\n", attempts + 1,
                snap_b.c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "pipeline never completed\n");
    return 1;
  }

  // Effectively-once: the published output must match the reference exactly
  // — no loss from the crash, no duplicates from the replay.
  std::multiset<std::string> ref = Published(out_a);
  std::multiset<std::string> recovered = Published(out_b);
  std::printf("\nreference published %zu records; recovered run published "
              "%zu\n",
              ref.size(), recovered.size());
  if (ref != recovered || ref.empty()) {
    std::fprintf(stderr, "MISMATCH: recovered output differs from "
                         "uninterrupted run\n");
    return 1;
  }
  std::printf("effectively-once verified: outputs identical after %d "
              "crash(es)\n",
              attempts);
  fs::remove_all(snap_a);
  fs::remove_all(out_a);
  fs::remove_all(snap_b);
  fs::remove_all(out_b);
  return 0;
}
