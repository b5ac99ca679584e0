#ifndef CQ_DATAFLOW_EXECUTOR_H_
#define CQ_DATAFLOW_EXECUTOR_H_

/// \file executor.h
/// \brief Synchronous dataflow executor with checkpoint/restore.
///
/// Drives a DataflowGraph deterministically: pushed elements propagate
/// depth-first through the DAG; watermarks are min-combined per node before
/// being delivered and forwarded (out-of-order handling, §4). Checkpoints
/// capture every operator's state plus caller-provided source positions, so
/// a restored pipeline replayed from those positions reproduces exactly the
/// post-checkpoint outputs — the aligned-snapshot fault-tolerance model of
/// the systems the survey describes (Flink's consistent checkpoints).
///
/// Delivery comes in two granularities. Push delivers one element at a
/// time through Operator::ProcessElement — the reference path. PushBatch
/// and PushColumnar deliver batch-at-a-time: the batch travels as columns
/// through every operator with a columnar kernel, and wherever it cannot
/// (no kernel, or a kernel declines a segment) the executor materialises
/// rows and runs ProcessElement over each maximal record run (watermarks
/// split runs). On every path an operator call's emissions — a record
/// run's ProcessElement calls, one OnWatermark, one OnProcessingTime — are
/// buffered and forwarded downstream as one run, so a node opens one frame
/// per run it receives, not one per element. A consume kernel or an
/// OnWatermark may emit its run as columns (Collector::EmitColumnar): the
/// run then stays columnar for every child that can consume it, and is
/// rendered to rows once for the others. For linear pipelines the
/// granularities are output-identical; on fan-out each run is delivered
/// whole to each downstream edge in edge order, so destinations see
/// identical sequences but the interleaving *between* them follows runs,
/// not elements.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "dataflow/graph.h"
#include "ft/checkpointable.h"
#include "obs/metrics.h"
#include "runtime/batch.h"
#include "runtime/columnar_batch.h"

namespace cq {

class PipelineExecutor : public ft::Checkpointable {
 public:
  /// \brief Takes ownership of the graph. `clock` (optional) supplies
  /// processing time; defaults to a manual clock at 0 advanced by
  /// AdvanceProcessingTime.
  explicit PipelineExecutor(std::unique_ptr<DataflowGraph> graph,
                            ProcessingTimeSource* clock = nullptr);

  DataflowGraph* graph() { return graph_.get(); }

  /// \brief Re-syncs executor-side per-node state (watermark arrays, metric
  /// instruments) after the graph was mutated (nodes added or removed).
  /// Newly added nodes start at the minimum watermark and catch up on the
  /// next watermark delivery; removed nodes keep tombstoned slots because
  /// node ids are never reused. Call after every splice into a live graph.
  void SyncWithGraph();

  /// \brief Injects a data record into `source` (must be a node, normally a
  /// source node) on port 0 and runs it through the DAG to completion.
  Status PushRecord(NodeId source, Tuple tuple, Timestamp ts);

  /// \brief Injects a watermark at `source`; propagates with min-combining.
  Status PushWatermark(NodeId source, Timestamp watermark);

  /// \brief Injects a pre-built element.
  Status Push(NodeId source, const StreamElement& element);

  /// \brief Injects a batch at `source` and runs it through the DAG
  /// batch-at-a-time.
  ///
  /// When the subgraph under `source` has vectorized kernels, the batch is
  /// converted to columns once at the edge and shipped columnar (the
  /// row-fallback shim): it flows through kPassthrough/kTransform operators
  /// as a ColumnarBatch and is re-materialised to rows at the first
  /// operator that cannot consume it. Rows run through ProcessElement one
  /// record run at a time, watermarks through the watermark path. Batches
  /// the converter rejects (ragged arity, mixed-type columns, in-band
  /// barriers) stay on rows unchanged.
  Status PushBatch(NodeId source, const StreamBatch& batch);

  /// \brief Injects an already-columnar batch at `source` (the broker-edge
  /// driver accumulates straight into columns). Falls back to rows when
  /// nothing under `source` can consume columns.
  Status PushColumnar(NodeId source, ColumnarBatch batch);

  /// \brief Whether a columnar batch delivered at `node` would be consumed
  /// vectorized there or somewhere downstream (false -> immediate fallback).
  bool ColumnarReach(NodeId node) const {
    return node < columnar_reach_.size() && columnar_reach_[node] != 0;
  }

  /// \brief Advances the internal manual clock (if no external clock) and
  /// sweeps processing-time timers on every node in topological order.
  Status AdvanceProcessingTime(Timestamp now);

  /// \brief ft::Checkpointable traversal: one state slot per graph node.
  /// A synchronous executor is always quiescent between pushes, so the
  /// default QuiesceForSnapshot no-op applies.
  Result<std::vector<std::string>> SnapshotSlots() override;

  /// \brief Restores per-node state from a SnapshotSlots image (slot count
  /// must equal the node count).
  Status RestoreSlots(const std::vector<std::string>& slots) override;

  /// \brief Serializes all operator state + source offsets into a
  /// checkpoint image (the shared ft codec over SnapshotSlots).
  Result<std::string> Checkpoint(
      const std::map<std::string, int64_t>& source_offsets);

  /// \brief Restores operator state from a checkpoint image; returns the
  /// recorded source offsets for replay.
  Result<std::map<std::string, int64_t>> Restore(std::string_view image);

  /// \brief Sum of operator state sizes.
  size_t TotalStateSize() const;

  /// \brief Current combined watermark of a node.
  Timestamp NodeWatermark(NodeId id) const;

  /// \brief Attaches a metrics registry: creates per-node instruments
  /// (`cq_dataflow_records_in_total{node=...,id=...}`, records_out,
  /// watermarks_in, a process-latency histogram, a selectivity EWMA gauge,
  /// and event-time-lag / state gauges) and forwards the registry to every
  /// operator. With no registry attached the execution hot path pays one
  /// pointer test.
  void AttachMetrics(MetricsRegistry* registry);

  MetricsRegistry* metrics() const { return metrics_; }

  /// \brief Attaches a span recorder: while an active trace is set, every
  /// node delivery records an op-kind span of its *self* time (downstream
  /// excluded) with parent/child links mirroring the delivery recursion.
  /// nullptr detaches.
  void AttachTracer(TraceRecorder* tracer);

  TraceRecorder* tracer() const { return tracer_; }

  /// \brief Sets the trace context for subsequent pushes (the executor is
  /// synchronous, so the caller scopes this around Push/PushBatch). Span
  /// recording happens only while the active context is sampled; an
  /// unsampled context with a non-zero ingest_ns still flows to operators
  /// for latency attribution.
  void SetActiveTrace(const TraceContext& trace);
  void ClearActiveTrace();

  /// \brief Re-reads every node's StateSize()/StateBytesApprox() into the
  /// state gauges. Walks operator state; call at dump cadence.
  void RefreshStateMetrics();

  /// \brief RefreshStateMetrics() + serialized registry contents. Empty
  /// string when no registry is attached.
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kJson);

 private:
  /// Creates the per-node instruments for one (live) node.
  void InitNodeMetrics(NodeId id);

  /// Per-node cached instrument pointers; only populated (and only read)
  /// when metrics_ != nullptr.
  struct NodeMetrics {
    Counter* records_in = nullptr;
    Counter* records_out = nullptr;
    Counter* watermarks_in = nullptr;
    // Columnar coverage: batches this node handled vectorized vs batches
    // that fell back to row materialisation at this node.
    Counter* vectorized_batches = nullptr;
    Counter* row_fallback_batches = nullptr;
    Histogram* process_latency_us = nullptr;  // self time, excludes downstream
    Gauge* event_time_lag = nullptr;          // max event ts - node watermark
    Gauge* state_entries = nullptr;
    Gauge* state_bytes = nullptr;
    DoubleGauge* selectivity = nullptr;  // records_out/records_in EWMA
    Timestamp max_event_ts = kMinTimestamp;
    double selectivity_ewma = -1.0;  // <0 = no observation yet
  };

  /// Updates a node's observed-selectivity EWMA with one delivery's
  /// out/in ratio and publishes it to the gauge.
  static void ObserveSelectivity(NodeMetrics* m, size_t records_in,
                                 size_t records_out);

  Status DeliverWatermark(NodeId node, size_t port, Timestamp wm);
  /// DeliverWatermark with downstream forwarding optional: columnar chain
  /// nodes apply watermark bookkeeping locally (the batch itself carries
  /// the marks downstream), so they skip the forwarding recursion.
  Status DeliverWatermarkImpl(NodeId node, size_t port, Timestamp wm,
                              bool forward);
  /// Splits a mixed element sequence into record runs and watermarks.
  Status DeliverSequence(NodeId node, size_t port, const StreamElement* data,
                         size_t count);
  /// Runs ProcessElement over one record run and routes the buffered
  /// emissions downstream, batch-at-a-time.
  Status DeliverBatch(NodeId node, size_t port, const StreamElement* data,
                      size_t count);
  /// Charges a run's records_out and its out/in selectivity (none for
  /// `records_in` 0), hands the node's buffered emissions — rows in
  /// `emitted`, or one columnar `run` — to every downstream edge and clears
  /// them. Call inside the node's frame.
  Status ForwardRun(NodeId node, NodeMetrics* m, size_t records_in,
                    std::vector<StreamElement>* emitted, ColumnarBatch* run);
  /// Columnar delivery: dispatches on the node's ColumnarSupport, falling
  /// back to row materialisation (ToRows + DeliverSequence) when the node
  /// cannot consume the batch vectorized. With `owned` the callee may move
  /// from `*batch`; otherwise a chain node works on a copy.
  Status DeliverColumnar(NodeId node, size_t port, ColumnarBatch* batch,
                         bool owned);
  /// kPassthrough/kTransform nodes: in-place transform, local watermark
  /// bookkeeping, whole-batch forwarding (columnar where reachable).
  Status DeliverColumnarChain(NodeId node, size_t port, ColumnarBatch batch,
                              bool is_transform);
  /// kConsume nodes: watermark-delimited segments through the kernel,
  /// emissions routed as rows, full watermark delivery in between.
  Status DeliverColumnarConsume(NodeId node, size_t port,
                                const ColumnarBatch& batch);
  /// Materialises the batch to rows at `node` (counts a row fallback).
  Status FallbackToRows(NodeId node, size_t port, const ColumnarBatch& batch);
  /// Recomputes columnar_reach_ (reverse-topological pass over the graph).
  void RecomputeColumnarReach();
  OperatorContext ContextFor(NodeId node) const;

  /// Scoped bookkeeping for one node invocation: self time into the node's
  /// latency histogram and, while tracing, an op span that downstream
  /// deliveries parent to. Every delivery function opens exactly one.
  class NodeFrame;

  std::unique_ptr<DataflowGraph> graph_;
  ProcessingTimeSource* clock_;
  ManualClock manual_clock_;
  // Per node: per-port watermarks and the combined (min) watermark.
  std::vector<std::vector<Timestamp>> port_watermarks_;
  std::vector<Timestamp> node_watermarks_;

  // Columnar delivery: whether a batch arriving at node n would be consumed
  // vectorized at n or downstream of it (recomputed on graph changes).
  std::vector<char> columnar_reach_;
  // Column types of the batch DeliverColumnar is checking.
  std::vector<ValueType> in_types_;

  MetricsRegistry* metrics_ = nullptr;
  std::vector<NodeMetrics> node_metrics_;
  // Stack of open NodeFrames: each slot accumulates nanoseconds spent in
  // downstream (child) deliveries so a node's latency histogram records
  // self time only. Unused unless metrics or an active trace require
  // per-delivery timing.
  std::vector<int64_t> child_time_ns_;
  // When non-zero, the start of the next NodeFrame to open: PushBatch's
  // row-to-column transpose is charged to the source node's frame.
  int64_t frame_start_ns_ = 0;

  TraceRecorder* tracer_ = nullptr;
  // Context handed to operators via OperatorContext::trace. parent_span
  // tracks the span of the node currently delivering (innermost NodeFrame), so
  // operator-recorded sub-spans and batches re-stamped at sinks nest under
  // the right operator span.
  TraceContext active_trace_;
  bool trace_active_ = false;

  bool TracingNow() const {
    return tracer_ != nullptr && trace_active_ && active_trace_.sampled();
  }
};

}  // namespace cq

#endif  // CQ_DATAFLOW_EXECUTOR_H_
