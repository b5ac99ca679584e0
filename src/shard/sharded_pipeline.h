#ifndef CQ_SHARD_SHARDED_PIPELINE_H_
#define CQ_SHARD_SHARDED_PIPELINE_H_

/// \file sharded_pipeline.h
/// \brief ShardedPipeline: scale-out execution of a keyed operator chain.
///
/// A ShardedPipeline runs a logical operator chain as an N-wide grid of
/// per-shard PipelineExecutors. The ShardPlanner cuts the chain into stages
/// at the points where an operator's key requirement stops being satisfied
/// by the stream's current partitioning; between consecutive stages a
/// HashExchangeOperator re-partitions every batch by key hash and ships the
/// splits over credit-based Channels, so the grid is
///
///       ingest split             exchange               exchange
///   producer ---> stage0[0..N) =========> stage1[0..N) =====...==> outputs
///
/// with one executor + one consumer thread per (stage, shard) task. Stage 0
/// tasks have a single input channel (the producer's ingest split routes by
/// the stage-0 key); stage s>0 tasks have one channel per upstream shard —
/// single-producer channels, which is what makes barrier alignment and
/// watermark min-merge race-free: each task thread is the only consumer of
/// its inputs and the only writer of its alignment state.
///
/// Event time: exchanges broadcast every watermark to all N downstream
/// channels; the receiving task keeps one clock per producer and forwards
/// only the minimum once it advances, so a fast upstream shard can never
/// advance a consumer's event time past records still queued from a slow
/// one (the out-of-order-across-exchange fix).
///
/// Fault tolerance: barriers fan out through exchanges exactly like
/// watermarks. Each task owns a BarrierAligner over its input channels;
/// when an epoch's barrier has arrived on every input the task snapshots
/// its executor, reports its slot to the pipeline's BarrierHandler, flushes
/// the exchange, and forwards the barrier downstream — Chandy–Lamport
/// alignment per task, no stop-the-world. The checkpoint image is a meta
/// slot (shard count, stage plan) followed by one slot per task; restoring
/// into a pipeline with a different shard count re-hashes every
/// KeyedStateBackend cell of every KeyedStateReshardable operator through
/// the snapshot codec (N→M re-shard). Producer-facing API (Send/Flush/
/// InjectBarrier/Checkpoint) is single-threaded.
///
/// A one-stage pipeline (every key requirement met by the ingest split) is
/// the classic keyed-parallel actor layer: P tasks, each a full chain copy
/// over its hash shard of the key space.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dataflow/executor.h"
#include "ft/barrier.h"
#include "ft/checkpointable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/channel.h"
#include "shard/exchange.h"
#include "shard/planner.h"

namespace cq::shard {

/// \brief Tuning knobs for the sharded runtime substrate.
struct ShardedPipelineOptions {
  /// Credits (queued-batch bound) per task input channel; 0 = unbounded.
  size_t channel_credits = 64;
  /// Records buffered per ingest shard before a batch is shipped.
  size_t batch_size = 64;
};

class ShardedPipeline : public ft::Checkpointable,
                        public ft::BarrierInjectable {
 public:
  /// \brief Builds one copy of the full logical operator chain. Invoked
  /// once per shard (plus once for planning); every invocation must return
  /// an identically-shaped chain.
  using ChainFactory =
      std::function<Result<std::vector<std::unique_ptr<Operator>>>(
          size_t shard)>;

  /// \brief `ingest_key` is the column key the producer splits by at
  /// ingest; leave empty to let the planner hoist the chain's first key
  /// requirement to the ingest split (see ShardPlanner::PlanChain). Plans
  /// the stages on a probe chain from `factory`; a planning error surfaces
  /// from Start().
  ShardedPipeline(size_t nshards, ChainFactory factory,
                  std::vector<size_t> ingest_key,
                  ShardedPipelineOptions options = {});
  ~ShardedPipeline() override;

  /// \brief Builds the task grid and starts the task threads.
  Status Start();

  /// \brief Routes a record to the ingest shard owning its key; ships the
  /// shard's buffer once it reaches options.batch_size.
  Status Send(Tuple tuple, Timestamp ts);

  /// \brief Splits a row batch across the ingest shards (records routed,
  /// watermarks broadcast in position). Barrier elements are rejected —
  /// use InjectBarrier.
  Status PushBatch(const StreamBatch& batch);

  /// \brief Splits a columnar batch across the ingest shards with the
  /// bitmap/gather path and ships each shard's rows as a columnar payload
  /// envelope — columns stay columnar from the producer through every
  /// exchange until an operator consumes them.
  Status PushColumnar(const ColumnarBatch& batch);

  /// \brief Broadcasts a watermark to every ingest shard (flushes buffers
  /// so the watermark keeps its stream position).
  Status BroadcastWatermark(Timestamp watermark);

  /// \brief Ships all buffered ingest records now.
  Status Flush();

  /// \brief Flushes, closes the ingest channels, joins every task in stage
  /// order (each finishing stage closes its downstream channels), and
  /// returns all final-stage outputs merged and sorted by (timestamp,
  /// tuple order).
  Result<BoundedStream> Finish();

  // --- ft::Checkpointable -------------------------------------------------

  /// \brief Flushes producer buffers and quiesces every channel in stage
  /// order; the forward pass is sound because tasks drain their exchange
  /// into downstream channels before acknowledging each input batch.
  Status QuiesceForSnapshot() override;

  /// \brief Slot 0 is the meta slot (version, shard count, stage plan);
  /// slot 1 + s*N + i is task (stage s, shard i)'s operator blob list.
  Result<std::vector<std::string>> SnapshotSlots() override;

  /// \brief Restores from a SnapshotSlots image. The stage plan must
  /// match; the shard count may differ (N→M re-shard): per logical node,
  /// KeyedStateBackend cells from all old shards are re-hashed to the new
  /// shards through the snapshot codec. Nodes with state that is not
  /// KeyedStateReshardable only restore shard-count-preserving images.
  Status RestoreSlots(const std::vector<std::string>& slots) override;

  /// \brief Stop-the-world checkpoint: quiesce + SnapshotSlots + offsets,
  /// encoded with the shared ft image codec.
  Result<std::string> Checkpoint(
      const std::map<std::string, int64_t>& source_offsets);

  /// \brief Restores from a Checkpoint image (possibly with a different
  /// shard count — see RestoreSlots); returns the recorded source offsets
  /// for replay. Call on a quiescent, started pipeline.
  Result<std::map<std::string, int64_t>> Restore(std::string_view image);

  // --- ft::BarrierInjectable ----------------------------------------------

  /// \brief Must be called before Start(). Task threads invoke the handler
  /// asynchronously until they are joined, so whatever the handler points
  /// into (e.g. a ft::CheckpointCoordinator) must outlive the pipeline, or
  /// the caller must Finish() the pipeline before destroying it.
  void SetBarrierHandler(ft::BarrierInjectable::BarrierHandler handler) override;

  /// \brief Injects an epoch barrier behind everything sent so far. The
  /// handler receives the meta slot (slot 0) synchronously, then one slot
  /// per task as the barrier fans through the grid. Epochs must be
  /// injected in increasing order; do not Finish with a barrier in flight.
  Status InjectBarrier(uint64_t epoch) override;

  /// \brief 1 meta slot + one slot per (stage, shard) task; exact from
  /// construction on.
  size_t BarrierFanIn() const override;

  // --- observability ------------------------------------------------------

  /// \brief Attaches `registry` to every task executor and channel, and
  /// creates the shard family: cq_shard_records_total{shard=i} (ingest
  /// routing), cq_shard_exchange_batches_total{shard=i} and
  /// cq_shard_exchange_bytes_total{shard=i} (ship units entering shard i
  /// through exchanges), and cq_shard_skew_ratio (max/mean ingest records
  /// per shard, 1.0 = perfectly balanced; refreshed on Flush/Finish).
  /// Call after Start(); nullptr detaches channels.
  void AttachMetrics(MetricsRegistry* registry);

  /// \brief Attaches `tracer` to every task executor and channel. Call
  /// after Start().
  void AttachTracer(TraceRecorder* tracer);

  size_t nshards() const { return nshards_; }
  /// \brief Stage plan (empty if planning failed; see Start()).
  const std::vector<ChainStage>& stages() const { return stages_; }
  size_t num_stages() const { return stages_.size(); }
  /// \brief Ingest records routed to shard `i` so far (producer thread).
  uint64_t records_routed(size_t shard) const { return routed_[shard]; }
  /// \brief Task executor access for tests/diagnostics.
  PipelineExecutor* task_executor(size_t stage, size_t shard) {
    return tasks_[stage][shard]->executor.get();
  }
  /// \brief The channel feeding task (stage, shard) from `producer`
  /// (stage 0 has a single producer slot 0).
  Channel* input_channel(size_t stage, size_t shard, size_t producer) {
    return tasks_[stage][shard]->inputs[producer].get();
  }

 private:
  struct Task {
    std::unique_ptr<PipelineExecutor> executor;
    NodeId source = 0;
    HashExchangeOperator* exchange = nullptr;  // tail of non-final stages
    std::unique_ptr<BoundedStream> output;     // sink of final-stage tasks
    std::vector<std::unique_ptr<Channel>> inputs;
    std::unique_ptr<ft::BarrierAligner> aligner;
    std::thread thread;

    // Task-thread-only consumer state.
    std::vector<char> barriered;      // input held at an epoch barrier
    std::vector<char> input_done;     // input closed and drained
    std::vector<Timestamp> producer_wm;
    Timestamp merged_wm = kMinTimestamp;
    uint64_t last_reported_epoch = 0;  // highest epoch slot-reported
    Status align_status;  // deferred error from alignment completion

    Status status;  // first error observed by the task; set before failed
    std::atomic<bool> failed{false};
  };

  /// Builds the (stage, shard) task: entry passthrough, chain ops
  /// [stage.begin, stage.end), exchange or collect-sink tail.
  Status BuildTask(size_t stage, size_t shard,
                   std::vector<std::unique_ptr<Operator>> chain);
  /// Plans the stages on a probe chain (constructor only).
  Status Plan();
  void TaskLoop(size_t stage, size_t shard);
  /// Delivers one popped envelope into the task executor (columnar payload
  /// or element runs with watermark merge / barrier alignment).
  Status ProcessEnvelope(size_t stage, size_t shard, size_t producer,
                         StreamBatch batch);
  /// Min-merges `ts` from `producer` into the task clock; pushes the
  /// merged watermark when it advances.
  Status MergeWatermark(Task& t, size_t producer, Timestamp ts);
  /// Recomputes the merged clock after an input closes (a closed producer
  /// no longer holds the minimum down).
  Status RecomputeMergedWatermark(Task& t);
  /// Alignment completion for (stage, shard): snapshot, report, forward
  /// the barrier downstream. Runs on the task's own thread (the thread
  /// that reported the last input). Errors land in align_status.
  void CompleteAlignment(size_t stage, size_t shard, uint64_t epoch);
  /// Ships everything the task's exchange has buffered into the next
  /// stage's channels (at this task's producer slot).
  Status DrainExchange(size_t stage, size_t shard);
  /// Records the failure and closes the task's inputs and downstream
  /// channels so neighbours unblock.
  void FailTask(size_t stage, size_t shard, Status status);
  /// Reports `error` for every injected epoch this task has not yet
  /// slot-reported, so a barrier in flight across a dying task still
  /// completes (with an error) at the coordinator instead of stalling.
  void ReportPendingEpochs(Task& t, size_t stage, size_t shard,
                           const Status& error);
  void CloseDownstream(size_t stage, size_t shard);
  Status FlushShard(size_t shard);
  Result<std::string> SnapshotTaskSlot(size_t stage, size_t shard);
  std::string EncodeMetaSlot() const;
  Status TaskStatus(size_t stage, size_t shard) const;
  void UpdateSkewGauge();

  size_t nshards_;
  ChainFactory factory_;
  std::vector<size_t> ingest_key_;
  ShardedPipelineOptions options_;
  ft::BarrierInjectable::BarrierHandler barrier_handler_;

  Status plan_status_;
  std::vector<ChainStage> stages_;
  std::vector<ShardPartitioner> stage_parts_;  // entry partitioner per stage
  std::vector<std::vector<std::unique_ptr<Task>>> tasks_;  // [stage][shard]

  // Producer-side state (single producer thread).
  std::vector<StreamBatch> pending_;
  std::vector<uint64_t> routed_;

  bool started_ = false;
  bool finished_ = false;
  std::atomic<uint64_t> last_injected_epoch_{0};

  MetricsRegistry* metrics_ = nullptr;
  std::vector<Counter*> shard_records_;
  std::vector<Counter*> exchange_batches_;
  std::vector<Counter*> exchange_bytes_;
  DoubleGauge* skew_gauge_ = nullptr;
};

}  // namespace cq::shard

#endif  // CQ_SHARD_SHARDED_PIPELINE_H_
