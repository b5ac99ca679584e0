#ifndef CQ_RUNTIME_DRIVER_H_
#define CQ_RUNTIME_DRIVER_H_

/// \file driver.h
/// \brief BrokerSourceDriver: the single ingestion path from broker topics.
///
/// The survey's Fig. 5 architecture is a distributed queue feeding a DAG of
/// computational nodes. This driver is the queue-facing half of that
/// substrate: it polls a topic's partitions in batches at the consumer
/// group's committed offsets, derives a per-partition bounded-out-of-
/// orderness watermark (min-combined across partitions, as production
/// systems do), commits offsets, and hands the result over as one
/// StreamBatch. Everything that consumes broker data — synchronous drains,
/// sharded pipelines, benches — sits on this one poll/commit/watermark
/// implementation instead of hand-rolling its own loop.
///
/// Commit-on-checkpoint: the driver reads at in-memory per-partition
/// *positions* and only commits to the broker when told the data up to a
/// position is durable (CommitThrough, called by the checkpoint machinery
/// after a snapshot reaches disk). A crash between polls therefore replays
/// from the last durable epoch instead of losing the uncommitted window —
/// the at-least-once half of effectively-once delivery.
///
/// Credit-aware pumping: PumpInto refuses to poll while the downstream
/// Channel has no credits, so a slow consumer pauses ingestion and the
/// in-flight queue depth stays bounded by the credit cap — backlog stays in
/// the broker (where it is durable and observable via `cq_queue_backlog`)
/// instead of accumulating in process memory.

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "queue/broker.h"
#include "runtime/batch.h"
#include "runtime/channel.h"

namespace cq {

/// \brief Event-time watermark generator: assumes elements are at most
/// `max_out_of_orderness` behind the maximum timestamp seen.
class BoundedOutOfOrdernessWatermark {
 public:
  explicit BoundedOutOfOrdernessWatermark(Duration max_out_of_orderness)
      : max_ooo_(max_out_of_orderness) {}

  /// \brief Observes an element timestamp.
  void Observe(Timestamp ts) {
    if (ts > max_ts_) max_ts_ = ts;
  }

  /// \brief Current watermark: max seen minus the disorder bound.
  Timestamp Current() const {
    if (max_ts_ == kMinTimestamp) return kMinTimestamp;
    return max_ts_ - max_ooo_;
  }

 private:
  Duration max_ooo_;
  Timestamp max_ts_ = kMinTimestamp;
};

struct BrokerSourceDriverOptions {
  /// Max records polled per partition per round.
  size_t max_poll_records = 256;
  /// Disorder bound for the derived watermark.
  Duration max_out_of_orderness = 0;
  /// Optional span recorder: every `trace_sample_every`-th non-empty poll
  /// stamps its batch with a fresh TraceContext and records an ingest-kind
  /// "poll:<topic>" span — the root of that element's trace tree. The
  /// recorder must outlive the driver.
  TraceRecorder* tracer = nullptr;
  /// 0 disables sampling; 1 traces every poll.
  size_t trace_sample_every = 0;
};

/// \brief Drives pipelines from a broker topic: batched polls, committed
/// offsets, per-partition watermark derivation, credit-aware pumping.
class BrokerSourceDriver {
 public:
  BrokerSourceDriver(Broker* broker, std::string topic, std::string group,
                     BrokerSourceDriverOptions options = {});

  /// \brief Polls every partition once (up to `max_per_partition` messages
  /// each, 0 = the configured default), advances the in-memory read
  /// positions (broker offsets are NOT committed — see CommitThrough), and
  /// returns the records followed by the updated source watermark (appended
  /// only when it advanced). An empty batch means the group is caught up.
  Result<StreamBatch> PollBatch(size_t max_per_partition = 0);

  /// \brief Credit-aware pump: polls only when `out` has a credit available,
  /// pushing the polled batch into the channel. When credits are exhausted
  /// the poll is skipped entirely (positions stay put, backlog stays in the
  /// broker) and `*paused` is set. Returns records moved.
  Result<size_t> PumpInto(Channel* out, bool* paused = nullptr);

  /// \brief Current min-across-partitions source watermark.
  Timestamp CurrentWatermark() const;

  /// \brief One past the topic's max event timestamp (end-of-input
  /// watermark), or kMinTimestamp when the topic is empty.
  Result<Timestamp> FinalWatermark() const;

  /// \brief Current read positions per partition ("topic/partition" ->
  /// offset): what a checkpoint taken now should record. These run ahead of
  /// the broker's committed offsets until CommitThrough.
  Result<std::map<std::string, int64_t>> Offsets();

  /// \brief Commits the broker's consumer-group offsets through `offsets`
  /// (same "topic/partition" keys as Offsets). Called after the checkpoint
  /// covering those positions is durable; a crash before this replays the
  /// window, a crash after it does not.
  Status CommitThrough(const std::map<std::string, int64_t>& offsets);

  /// \brief End offsets per partition ("topic/partition" -> one past the
  /// last message) — with Offsets, the replay volume a crash would incur.
  Result<std::map<std::string, int64_t>> EndOffsets() const;

  /// \brief Rewinds read positions AND committed offsets (checkpoint
  /// restore). Watermark derivation restarts conservatively; replayed
  /// elements re-advance it.
  Status SeekTo(const std::map<std::string, int64_t>& offsets);

  const std::string& topic() const { return topic_; }
  const std::string& group() const { return group_; }

 private:
  Status EnsureInitialized();

  Broker* broker_;
  std::string topic_;
  std::string group_;
  BrokerSourceDriverOptions options_;
  std::vector<BoundedOutOfOrdernessWatermark> partition_watermarks_;
  // In-memory read position per partition; runs ahead of the broker's
  // committed offset between checkpoints.
  std::vector<int64_t> positions_;
  Timestamp last_emitted_wm_ = kMinTimestamp;
  bool initialized_ = false;
  uint64_t polls_ = 0;  // sampling counter for trace_sample_every
};

}  // namespace cq

#endif  // CQ_RUNTIME_DRIVER_H_
