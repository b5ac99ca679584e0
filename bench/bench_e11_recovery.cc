/// \file bench_e11_recovery.cc
/// \brief E11 — fault-tolerance cost curves: checkpoint interval vs.
/// recovery time and replay volume.
///
/// The classic trade-off behind every streaming checkpointing design:
/// frequent snapshots tax steady-state throughput but bound the replay a
/// crash incurs; sparse snapshots are nearly free until the failure, when
/// the whole uncommitted window must be reprocessed. This bench runs a
/// keyed windowed aggregation from the broker, checkpoints every N records
/// through the ft coordinator, "crashes" three quarters of the way in, and
/// measures recovery (manifest load + state restore + offset rewind) and
/// replay separately. The BENCH_SERIES lines plot the interval sweep.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dataflow/operators.h"
#include "dataflow/window_operator.h"
#include "ft/coordinator.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "queue/broker.h"
#include "runtime/driver.h"
#include "shard/sharded_pipeline.h"

namespace cq {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int64_t kMessages = 8000;
constexpr int64_t kCrashAfter = 6000;  // records consumed before the "crash"
constexpr size_t kKeys = 64;
constexpr size_t kParallelism = 2;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

shard::ShardedPipeline::ChainFactory WindowedSumChain() {
  return [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
    WindowedAggregateConfig cfg;
    cfg.assigner = std::make_shared<TumblingWindowAssigner>(50);
    cfg.key_indexes = {0};
    cfg.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
    std::vector<std::unique_ptr<Operator>> ops;
    ops.push_back(
        std::make_unique<WindowedAggregateOperator>("win", std::move(cfg)));
    return ops;
  };
}

void FillBroker(Broker* broker) {
  (void)broker->CreateTopic("tx", 2);
  for (int64_t i = 0; i < kMessages; ++i) {
    Tuple t({Value(i % static_cast<int64_t>(kKeys)), Value(int64_t(1))});
    std::string key = t[0].ToString();
    (void)broker->Produce("tx", std::move(key), std::move(t), Timestamp(i));
  }
}

size_t DirBytes(const std::string& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

struct RecoveryRun {
  size_t checkpoints = 0;
  double checkpoint_ms_total = 0;
  size_t snapshot_bytes = 0;
  double recover_ms = 0;
  double replay_ms = 0;
  int64_t replayed_records = 0;
};

/// Runs the full crash/recover scenario for one checkpoint interval.
RecoveryRun RunScenario(int64_t interval_records) {
  RecoveryRun run;
  std::string snap_dir =
      (fs::temp_directory_path() /
       ("cq_bench_e11_" + std::to_string(getpid()) + "_" +
        std::to_string(interval_records)))
          .string();
  fs::remove_all(snap_dir);

  Broker broker;
  FillBroker(&broker);
  ft::SnapshotStore store(snap_dir, {.retain = 2, .full_every = 4});
  (void)store.Init();

  // Phase 1: consume until the crash point, checkpointing every
  // `interval_records` consumed records.
  {
    shard::ShardedPipeline pipeline(kParallelism, WindowedSumChain(), {0});
    BrokerSourceDriver driver(&broker, "tx", "bench");
    ft::CheckpointCoordinator coord(&pipeline, &store);
    coord.SetOffsetsProvider([&driver] { return driver.Offsets(); });
    coord.SetCommitFn([&driver](const std::map<std::string, int64_t>& o) {
      return driver.CommitThrough(o);
    });
    coord.SetWatermarkFn([&driver] { return driver.CurrentWatermark(); });
    (void)pipeline.Start();
    int64_t consumed = 0;
    int64_t since_checkpoint = 0;
    while (consumed < kCrashAfter) {
      StreamBatch batch = *driver.PollBatch(64);
      if (batch.num_records() == 0) break;
      for (const auto& e : batch.elements()) {
        if (e.is_record()) {
          (void)pipeline.Send(e.tuple, e.timestamp);
        } else if (e.is_watermark()) {
          (void)pipeline.BroadcastWatermark(e.timestamp);
        }
      }
      consumed += static_cast<int64_t>(batch.num_records());
      since_checkpoint += static_cast<int64_t>(batch.num_records());
      if (since_checkpoint >= interval_records) {
        since_checkpoint = 0;
        Clock::time_point t0 = Clock::now();
        (void)*coord.TriggerCheckpoint();
        run.checkpoint_ms_total += MsSince(t0);
        ++run.checkpoints;
      }
    }
    // Crash: the pipeline is dropped here with no final checkpoint — all
    // progress past the last durable epoch is lost.
  }
  run.snapshot_bytes = DirBytes(snap_dir);

  // Phase 2: recovery. A fresh pipeline restores the newest durable epoch,
  // rewinds the source, then replays the lost window plus the stream tail.
  {
    shard::ShardedPipeline pipeline(kParallelism, WindowedSumChain(), {0});
    BrokerSourceDriver driver(&broker, "tx", "bench");
    (void)pipeline.Start();
    ft::RecoveryManager recovery(&store);
    Clock::time_point t0 = Clock::now();
    ft::RecoveryReport report = *recovery.Recover(
        &pipeline,
        [&driver](const std::map<std::string, int64_t>& o) {
          return driver.SeekTo(o);
        },
        [&driver] { return driver.EndOffsets(); });
    run.recover_ms = MsSince(t0);
    run.replayed_records = report.records_to_replay;

    t0 = Clock::now();
    while (true) {
      StreamBatch batch = *driver.PollBatch(64);
      if (batch.num_records() == 0) break;
      for (const auto& e : batch.elements()) {
        if (e.is_record()) {
          (void)pipeline.Send(e.tuple, e.timestamp);
        } else if (e.is_watermark()) {
          (void)pipeline.BroadcastWatermark(e.timestamp);
        }
      }
    }
    (void)pipeline.BroadcastWatermark(kMessages + 100);
    (void)*pipeline.Finish();
    run.replay_ms = MsSince(t0);
  }
  fs::remove_all(snap_dir);
  return run;
}

/// Arg(0): records between checkpoints. Sweeping it traces the
/// checkpoint-cost vs replay-volume frontier.
void BM_CheckpointIntervalVsRecovery(benchmark::State& state) {
  const int64_t interval = state.range(0);
  RecoveryRun run;
  for (auto _ : state) {
    run = RunScenario(interval);
    benchmark::DoNotOptimize(run.replayed_records);
  }
  static std::set<int64_t> printed;
  if (printed.insert(interval).second) {
    if (printed.size() == 1) {
      std::printf(
          "BENCH_SERIES case=checkpoint_interval_vs_recovery "
          "x=interval_records y=recovery_ms,replayed_records\n");
    }
    std::printf(
        "BENCH_SERIES case=checkpoint_interval_vs_recovery "
        "interval=%lld checkpoints=%zu checkpoint_ms_total=%.2f "
        "snapshot_bytes=%zu recover_ms=%.2f replay_ms=%.2f "
        "replayed_records=%lld\n",
        static_cast<long long>(interval), run.checkpoints,
        run.checkpoint_ms_total, run.snapshot_bytes, run.recover_ms,
        run.replay_ms, static_cast<long long>(run.replayed_records));
  }
  state.counters["checkpoints"] = static_cast<double>(run.checkpoints);
  state.counters["replayed_records"] =
      static_cast<double>(run.replayed_records);
  state.counters["recover_ms"] = run.recover_ms;
  state.counters["replay_ms"] = run.replay_ms;
  SetPerItemMicros(state, static_cast<double>(kMessages));
}
BENCHMARK(BM_CheckpointIntervalVsRecovery)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cq
