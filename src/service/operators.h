#ifndef CQ_SERVICE_OPERATORS_H_
#define CQ_SERVICE_OPERATORS_H_

/// \file operators.h
/// \brief Dataflow operators that execute registered continuous queries on
/// the shared graph (the Fig. 1 DSMS core of the service layer).
///
/// A registered query compiles into a per-slot *prefix chain* — source ->
/// (lifted filters) -> window — shared across queries via fingerprints, and
/// a per-plan suffix — residual R2R plan + R2S — fanning out to per-query
/// subscriptions. Between window and plan the stream changes meaning: it
/// carries *relation deltas* instead of raw records. A delta record is the
/// original tuple with one trailing INT64 sign column (+n / -n); the window
/// operator produces deltas (insertions on arrival, expirations on
/// watermark), the plan operator folds them through an
/// IncrementalPlanExecutor and emits the query's output stream. On the
/// batched path the deltas stay columns from the window to the plan's
/// output: the window emits each run as a columnar batch (data columns
/// plus the sign column), the plan folds it from the columns, and tuples
/// are built only for the rows the query emits.

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cql/continuous_query.h"
#include "cql/r2s.h"
#include "cql/s2r.h"
#include "dataflow/operator.h"
#include "runtime/channel.h"

namespace cq {

/// \brief Appends the delta sign column to a tuple.
Tuple MakeDeltaTuple(const Tuple& t, int64_t sign);

/// \brief Splits a delta tuple into (tuple, sign); InvalidArgument when the
/// trailing column is missing or not INT64.
Result<std::pair<Tuple, int64_t>> SplitDeltaTuple(const Tuple& t);

/// \brief S2R as a streaming operator: converts raw records into window
/// content deltas.
///
/// On each record the tuple enters the window (+1 delta); its exit is
/// scheduled by window kind: Range/Now windows expire by validity interval
/// when the watermark passes (TupleValidity), Rows/PartitionedRows windows
/// evict the oldest tuple immediately when a partition exceeds `n`,
/// Unbounded windows never expire. Expiration deltas (-1) are emitted in
/// OnWatermark, as one columnar run, before the watermark is forwarded
/// downstream, so a downstream plan operator firing on that watermark sees
/// a consistent window image. Records whose validity already fully precedes the
/// watermark are dropped as late (counted).
class WindowDeltaOperator : public Operator {
 public:
  WindowDeltaOperator(std::string name, S2RSpec spec);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  /// \brief Columnar kernel for time-based windows (Range/Now/Unbounded):
  /// validity comes straight off the timestamp column, so late rows drop
  /// without ever materialising a tuple; the admitted rows leave as one
  /// columnar delta run, and a Range/Now row materialises once, for its
  /// expiry entry. Row-based windows (Rows/PartitionedRows) decline via
  /// *handled=false.
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kConsume;
  }
  bool CanProcessColumnar(const std::vector<ValueType>&,
                          std::vector<ValueType>*) const override {
    return spec_.kind == S2RKind::kRange || spec_.kind == S2RKind::kNow ||
           spec_.kind == S2RKind::kUnbounded;
  }
  Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext& ctx, Collector* out,
                                bool* handled) override;

  Result<std::string> SnapshotState() const override;
  Status RestoreState(std::string_view snapshot) override;
  size_t StateSize() const override;
  size_t StateBytesApprox() const override;
  void AttachMetrics(MetricsRegistry* registry,
                     const LabelSet& labels) override;

  uint64_t dropped_late() const { return dropped_late_; }

 private:
  S2RSpec spec_;
  /// Range/Now: tuples pending expiration, keyed by expiry instant
  /// (validity.end); multiset per instant preserves duplicates.
  std::multimap<Timestamp, Tuple> expiry_;
  /// Rows / PartitionedRows: per-partition FIFO of resident tuples (key ""
  /// for the unpartitioned kRows form).
  std::map<std::string, std::deque<Tuple>> rows_;
  uint64_t dropped_late_ = 0;
  Counter* late_drop_counter_ = nullptr;
};

/// \brief Residual R2R plan + R2S output as a streaming operator.
///
/// Consumes per-slot window deltas (one input port per slot), buffers them
/// in hashed per-slot delta buffers (a +1 and a -1 for the same tuple
/// cancel on arrival), and on each watermark advance moves the batch
/// through an IncrementalPlanExecutor — per-update cost proportional to what
/// the update touches — then emits the R2S rendering of the output change at
/// that instant, in ascending tuple order: IStream emits insertions, DStream
/// deletions, RStream the whole instantaneous result, and kRelation a signed
/// changefeed (delta tuples with the trailing sign column, like its inputs).
/// Only RStream reads the accumulated result, so only an RStream operator
/// has its executor maintain it.
///
/// Two paths fill the buffer. ProcessElement, the reference, adds delta
/// tuples to a slot's DeltaBuffer. For a one-slot Select/Project plan with
/// at most one Aggregate, the columnar kernel adds the rows of a window's
/// columnar delta run to a ColumnarDeltaBuffer instead, and at the
/// watermark the executor folds them straight from the columns
/// (IncrementalPlanExecutor::ApplyColumnar); a tuple is built only for a
/// row that leaves the plan. Within one watermark interval the slot stays
/// on one buffer: the kernel declines a run that arrives after rows, or
/// whose column types differ from the runs before it, and a row arriving
/// after runs first moves the buffered runs into the DeltaBuffer, in order.
/// Plans of other shapes (joins, theta-joins, Distinct/Except/Intersect)
/// and runs whose expressions do not vectorize take no columns: the
/// executor renders them to rows for ProcessElement.
class PlanDeltaOperator : public Operator {
 public:
  PlanDeltaOperator(std::string name, RelOpPtr plan, size_t num_slots,
                    R2SKind output);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  /// \brief Columnar kernel: buffers a delta run (data columns plus the
  /// trailing INT64 sign column) without building tuples. Offered only for
  /// plans ApplyColumnar folds, and only runs whose types it folds.
  ColumnarSupport columnar_support() const override {
    return exec_.HasColumnarShape() ? ColumnarSupport::kConsume
                                    : ColumnarSupport::kNone;
  }
  bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                          std::vector<ValueType>*) const override {
    return !in_types.empty() && in_types.back() == ValueType::kInt64 &&
           exec_.CanApplyColumnar(
               std::span(in_types).first(in_types.size() - 1));
  }
  Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext& ctx, Collector* out,
                                bool* handled) override;

  /// The full incremental state round-trips: per-slot pending delta
  /// buffers plus the IncrementalPlanExecutor's accumulated output, node
  /// caches, join indexes, and aggregation groups (keyed by plan preorder
  /// index, so the restored operator may hold a different — but
  /// structurally identical — plan tree).
  Result<std::string> SnapshotState() const override;
  Status RestoreState(std::string_view snapshot) override;
  size_t StateSize() const override;
  size_t StateBytesApprox() const override;

 private:
  /// Moves the buffered runs into slot 0's DeltaBuffer, in order.
  void SpillColumnar();

  R2SKind output_;
  size_t num_slots_;
  IncrementalPlanExecutor exec_;
  std::vector<DeltaBuffer> pending_;  // per-slot buffered delta tuples
  ColumnarDeltaBuffer columnar_;  // slot 0's buffered runs
  bool has_pending_ = false;
};

/// \brief One client's result feed: a bounded runtime::Channel the pipeline
/// pushes output batches into. The subscriber drains from its own thread
/// (or inline) via Poll/TryPoll; the pipeline never blocks on a slow
/// subscriber — once the subscription's credits are exhausted further
/// batches are dropped and counted, so one stalled client cannot stall the
/// shared plan or its co-subscribers.
class Subscription {
 public:
  Subscription(uint64_t query_id, uint64_t sub_id, size_t credits)
      : query_id_(query_id), sub_id_(sub_id), channel_(credits) {}

  uint64_t query_id() const { return query_id_; }
  uint64_t sub_id() const { return sub_id_; }

  /// \brief Blocking pop (acknowledged internally); false once the
  /// subscription is closed and drained.
  bool Poll(StreamBatch* out);

  /// \brief Non-blocking pop; false when nothing is queued right now.
  bool TryPoll(StreamBatch* out);

  /// \brief Queued batches not yet consumed.
  size_t depth() const { return channel_.depth(); }

  /// \brief Batches dropped because the subscriber's credits ran dry.
  uint64_t dropped() const;

  bool closed() const { return channel_.closed(); }

  /// \brief Detaches the subscriber: closes the channel; the sink garbage
  /// collects the subscription on its next delivery.
  void Cancel() { channel_.Close(); }

 private:
  friend class SubscriptionSinkOperator;
  friend class QueryService;  // wires the drops counter at Subscribe time

  uint64_t query_id_;
  uint64_t sub_id_;
  Channel channel_;
  std::atomic<uint64_t> dropped_{0};
  Counter* drops_counter_ = nullptr;  // service-attached, may stay null
};

using SubscriptionPtr = std::shared_ptr<Subscription>;

/// \brief Terminal node of a registered query: fans the query's output out
/// to its subscriptions. Records accumulate per watermark interval and ship
/// as one batch (with the watermark appended) per subscription when the
/// watermark arrives — TryPush only, so a full subscription drops the batch
/// rather than exerting backpressure on the shared pipeline.
class SubscriptionSinkOperator : public Operator {
 public:
  explicit SubscriptionSinkOperator(std::string name)
      : Operator(std::move(name)) {}

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  /// \brief Wires the per-query instruments (any may be null). On each
  /// watermark flush the sink observes end-to-end latency (now minus the
  /// ingest timestamp the service stamped on the push), counts output
  /// records, and counts fan-out pushes dropped on exhausted credits. With
  /// a tracer, the fan-out is recorded as a publish-kind span nested under
  /// the sink's operator span, and outgoing batches are re-stamped so
  /// subscription queue-wait spans parent under it.
  void AttachQueryInstruments(Histogram* latency_us, Counter* output_records,
                              Counter* dropped_pushes, TraceRecorder* tracer) {
    latency_us_ = latency_us;
    output_records_ = output_records;
    dropped_pushes_ = dropped_pushes;
    tracer_ = tracer;
  }

  /// Subscription list mutations happen under the service lock, the same
  /// lock every pipeline push holds — no extra synchronisation here.
  void AddSubscription(SubscriptionPtr sub) {
    subs_.push_back(std::move(sub));
  }

  /// \brief Closes every subscription (DropQuery teardown).
  void CloseAll();

  size_t num_subscriptions() const { return subs_.size(); }
  uint64_t total_emitted() const { return total_emitted_; }

 private:
  std::vector<SubscriptionPtr> subs_;
  std::vector<StreamElement> pending_;
  uint64_t total_emitted_ = 0;
  Histogram* latency_us_ = nullptr;
  Counter* output_records_ = nullptr;
  Counter* dropped_pushes_ = nullptr;
  TraceRecorder* tracer_ = nullptr;
};

}  // namespace cq

#endif  // CQ_SERVICE_OPERATORS_H_
