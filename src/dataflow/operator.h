#ifndef CQ_DATAFLOW_OPERATOR_H_
#define CQ_DATAFLOW_OPERATOR_H_

/// \file operator.h
/// \brief Dataflow operators: the computational nodes of Fig. 5.
///
/// Streaming-system computations are DAGs of operators exchanging
/// timestamped records and watermarks (§4.1.1). An operator consumes
/// elements on input ports, emits through a Collector, reacts to event-time
/// watermarks and processing-time sweeps, and exposes its state for
/// checkpointing.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/stream.h"

namespace cq {

class ColumnarBatch;

/// \brief How an operator participates in columnar (vectorized) delivery.
///
/// The executor ships ColumnarBatches down the graph as long as operators
/// can consume them; the first operator that cannot (kNone) receives the
/// batch re-materialised as rows (the row-fallback shim) and processes them
/// through ProcessElement, as does everything downstream of it. Each
/// operator thus has at most two paths: ProcessElement, the reference, and
/// one columnar kernel that must match it.
enum class ColumnarSupport : uint8_t {
  /// Row path only: the batch is converted to rows before this operator.
  kNone,
  /// Forwards batches untouched (identity / source injection points).
  kPassthrough,
  /// Mutates the columnar batch in place (filter narrows the selection,
  /// projection swaps the column set). Single-input operators only.
  kTransform,
  /// Consumes columns (windows, aggregations, plans): the executor feeds
  /// watermark-delimited segments to the kernel. Emissions are rows, or
  /// one columnar record run per call (Collector::EmitColumnar) that the
  /// executor ships on as columns to every child that can consume it.
  kConsume,
};

/// \brief Downstream emission interface handed to operators.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Emit(StreamElement element) = 0;

  /// \brief Emits a run of records held as columns (no watermarks), in
  /// row order: the same elements as Emit on each selected row. The
  /// default materialises the rows and Emits them one by one.
  virtual void EmitColumnar(ColumnarBatch run);
};

/// \brief Collector that buffers emissions into a vector — the building
/// block of batch-at-a-time delivery (the executor routes the buffered run
/// downstream as one unit). With a `run` slot, a call's first emission may
/// stay columnar there; any further emission turns the buffer into rows,
/// in emission order.
class VectorCollector : public Collector {
 public:
  explicit VectorCollector(std::vector<StreamElement>* out,
                           ColumnarBatch* run = nullptr)
      : out_(out), run_(run) {}
  void Emit(StreamElement element) override {
    if (held_) SpillRun();
    out_->push_back(std::move(element));
  }
  void EmitColumnar(ColumnarBatch run) override;

 private:
  /// Moves the held columnar run into `out_` as rows.
  void SpillRun();

  std::vector<StreamElement>* out_;
  ColumnarBatch* run_;
  bool held_ = false;  // *run_ holds this collector's emission
};

/// \brief Per-invocation context.
struct OperatorContext {
  /// Current processing time.
  Timestamp processing_time = 0;
  /// The operator's current (min-combined) input watermark.
  Timestamp watermark = kMinTimestamp;
  /// Trace context of the element being delivered, or nullptr when the
  /// executor has no active trace. `trace->parent_span` is the delivering
  /// node's own span, so operator-recorded sub-spans (e.g. a sink's publish
  /// fan-out) nest correctly; `trace->ingest_ns` drives end-to-end latency
  /// attribution even for unsampled elements.
  const TraceContext* trace = nullptr;
};

/// \brief Base class for dataflow operators.
class Operator {
 public:
  explicit Operator(std::string name, size_t num_input_ports = 1)
      : name_(std::move(name)), num_input_ports_(num_input_ports) {}
  virtual ~Operator() = default;

  const std::string& name() const { return name_; }
  size_t num_input_ports() const { return num_input_ports_; }

  /// \brief Handles one data record arriving on `port`.
  virtual Status ProcessElement(size_t port, const StreamElement& element,
                                const OperatorContext& ctx, Collector* out) = 0;

  /// \brief The operator's combined input watermark advanced to
  /// `watermark`. The executor forwards the watermark downstream after this
  /// returns; the hook is for firing event-time timers and emitting results.
  virtual Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                             Collector* out) {
    (void)watermark;
    (void)ctx;
    (void)out;
    return Status::OK();
  }

  /// \brief Processing time advanced (processing-time trigger sweep).
  virtual Status OnProcessingTime(const OperatorContext& ctx, Collector* out) {
    (void)ctx;
    (void)out;
    return Status::OK();
  }

  /// \brief Serializes operator state for a checkpoint (empty = stateless).
  virtual Result<std::string> SnapshotState() const { return std::string(); }

  /// \brief Called by the executor after every node in the pipeline has
  /// serialized its state for a checkpoint — i.e. the moment ownership of
  /// the captured image passes from live operators to the checkpoint.
  /// Operators whose SnapshotState *moves* state into the image (two-phase
  /// staging, e.g. an epoch-fenced sink handing its pending buffer to the
  /// snapshot) drop the live copy here so the next epoch starts clean. The
  /// default keeps live state untouched.
  virtual Status OnSnapshotStaged() { return Status::OK(); }

  /// \brief Restores from a SnapshotState payload.
  virtual Status RestoreState(std::string_view snapshot) {
    if (!snapshot.empty()) {
      return Status::Internal("operator '" + name_ +
                              "' received state but is stateless");
    }
    return Status::OK();
  }

  /// \brief Resident state cells (for memory-shape reporting).
  virtual size_t StateSize() const { return 0; }

  /// \brief Approximate resident state bytes (keys + payloads). May walk the
  /// state, so callers poll it at dump/checkpoint cadence, not per element.
  virtual size_t StateBytesApprox() const { return 0; }

  /// \brief Called by the executor when a metrics registry is attached to
  /// the pipeline. `labels` identifies this node (node name + id).
  /// Operators that maintain their own instruments (e.g. late-drop
  /// counters) override this to create them; the default keeps none.
  virtual void AttachMetrics(MetricsRegistry* registry,
                             const LabelSet& labels) {
    (void)registry;
    (void)labels;
  }

  // --- Partitioned (sharded) execution ---------------------------------

  /// \brief Input-schema columns this operator's state is keyed by on
  /// `port` (empty = no key requirement; the operator is safe on any
  /// shard). The ShardPlanner places hash exchanges where a stream's
  /// current partitioning does not satisfy this requirement.
  virtual std::vector<size_t> PartitionKeyColumns(size_t port) const {
    (void)port;
    return {};
  }

  /// \brief Whether output rows keep the input partitioning: same columns,
  /// same positions (record-wise operators that never reshape or reorder
  /// key columns — filters, passthroughs). Conservative default: no.
  virtual bool PreservesPartitioning() const { return false; }

  /// \brief Output-schema columns the operator *guarantees* its emissions
  /// are partitioned by, given inputs partitioned per PartitionKeyColumns
  /// (e.g. keyed window aggregation emits key columns first). Empty =
  /// unknown.
  virtual std::vector<size_t> OutputPartitionColumns() const { return {}; }

  /// \brief Whether SnapshotState() is exactly a KeyedStateBackend cell
  /// image — (key, namespace, value) triples whose key bytes are the
  /// serde-encoded partition-key projection — so a recovery can re-hash
  /// the cells across a different shard count (N→M re-shard). Operators
  /// with any other state layout must leave this false.
  virtual bool KeyedStateReshardable() const { return false; }

  // --- Columnar (vectorized) delivery ---------------------------------

  /// \brief Static columnar capability of this operator. kNone (the
  /// default) keeps the operator on ProcessElement; overrides MUST also
  /// override the matching hook(s) below.
  virtual ColumnarSupport columnar_support() const {
    return ColumnarSupport::kNone;
  }

  /// \brief Per-batch capability check for kTransform/kConsume operators:
  /// given the batch's column types, can the vectorized kernel handle it
  /// with semantics identical to the row path? For kTransform, also
  /// reports the post-transform column types (chaining pre-checks them).
  /// Returning false routes the batch to the row fallback.
  virtual bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                                  std::vector<ValueType>* out_types) const {
    (void)in_types;
    (void)out_types;
    return false;
  }

  /// \brief kTransform hook: mutates `batch` in place (all rows, selected
  /// or not; row indexes and watermark positions must stay stable).
  /// Precondition: CanProcessColumnar accepted the batch's column types —
  /// the transform cannot fail, which is what makes in-place chains safe.
  virtual void ProcessColumnarTransform(ColumnarBatch* batch,
                                        const OperatorContext& ctx) {
    (void)batch;
    (void)ctx;
  }

  /// \brief kConsume hook: consumes the selected rows of one
  /// watermark-delimited segment [begin, end) of `batch` arriving on
  /// `port` (ctx.watermark is constant across the segment). Emissions must
  /// match what per-element processing would emit, in the same order.
  /// Setting *handled = false (before any emission or state change) makes
  /// the executor re-materialise the segment and run ProcessElement on each
  /// row instead — the escape hatch for configurations the kernel does not
  /// cover.
  virtual Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                        size_t begin, size_t end,
                                        const OperatorContext& ctx,
                                        Collector* out, bool* handled) {
    (void)port;
    (void)batch;
    (void)begin;
    (void)end;
    (void)ctx;
    (void)out;
    *handled = false;
    return Status::OK();
  }

 private:
  std::string name_;
  size_t num_input_ports_;
};

}  // namespace cq

#endif  // CQ_DATAFLOW_OPERATOR_H_
