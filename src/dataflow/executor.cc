#include "dataflow/executor.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "types/serde.h"

namespace cq {

namespace {

/// The per-element reference path over a run of records.
Status ProcessEach(Operator* op, size_t port, const StreamElement* data,
                   size_t count, const OperatorContext& ctx, Collector* out) {
  for (size_t i = 0; i < count; ++i) {
    CQ_RETURN_NOT_OK(op->ProcessElement(port, data[i], ctx, out));
  }
  return Status::OK();
}

}  // namespace

/// Frames nest like the delivery recursion. Each pushes a child-time slot;
/// on close it charges self time (its total minus the totals of the frames
/// opened inside it) to the node's latency histogram, records the op span
/// when traced, and adds its total to the enclosing frame's slot. The span
/// name is built only when traced, so an untraced frame never allocates.
class PipelineExecutor::NodeFrame {
 public:
  NodeFrame(PipelineExecutor* exec, NodeMetrics* m, const Operator* op,
            bool traced, bool watermark = false)
      : exec_(exec),
        m_(m),
        op_(op),
        traced_(traced),
        watermark_(watermark),
        saved_parent_(exec->active_trace_.parent_span) {
    if (traced_) {
      span_id_ = NextSpanId();
      exec_->active_trace_.parent_span = span_id_;
    }
    if (m_ != nullptr || traced_) {
      exec_->child_time_ns_.push_back(0);
      t0_ = exec_->frame_start_ns_ != 0
                ? std::exchange(exec_->frame_start_ns_, 0)
                : MonotonicNanos();
    }
  }
  NodeFrame(const NodeFrame&) = delete;
  NodeFrame& operator=(const NodeFrame&) = delete;

  ~NodeFrame() {
    if (m_ == nullptr && !traced_) return;
    std::vector<int64_t>& child_time = exec_->child_time_ns_;
    const int64_t total = MonotonicNanos() - t0_;
    const int64_t self = total - child_time.back();
    child_time.pop_back();
    if (m_ != nullptr) {
      m_->process_latency_us->Observe(static_cast<double>(self) / 1e3);
    }
    if (traced_) {
      Span span;
      span.trace_id = exec_->active_trace_.trace_id;
      span.span_id = span_id_;
      span.parent_id = saved_parent_;
      span.kind = SpanKind::kOp;
      span.name = watermark_ ? op_->name() + ":wm" : op_->name();
      span.start_ns = t0_;
      span.duration_ns = self;
      exec_->tracer_->Record(std::move(span));
      exec_->active_trace_.parent_span = saved_parent_;
    }
    if (!child_time.empty()) child_time.back() += total;
  }

 private:
  PipelineExecutor* exec_;
  NodeMetrics* m_;
  const Operator* op_;
  const bool traced_;
  const bool watermark_;
  const uint64_t saved_parent_;
  uint64_t span_id_ = 0;
  int64_t t0_ = 0;
};

PipelineExecutor::PipelineExecutor(std::unique_ptr<DataflowGraph> graph,
                                   ProcessingTimeSource* clock)
    : graph_(std::move(graph)), clock_(clock) {
  if (clock_ == nullptr) clock_ = &manual_clock_;
  port_watermarks_.resize(graph_->num_nodes());
  node_watermarks_.assign(graph_->num_nodes(), kMinTimestamp);
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i)) continue;
    port_watermarks_[i].assign(graph_->node(i)->num_input_ports(),
                               kMinTimestamp);
  }
  RecomputeColumnarReach();
}

void PipelineExecutor::SyncWithGraph() {
  size_t n = graph_->num_nodes();
  size_t old = port_watermarks_.size();
  if (n <= old) {
    RecomputeColumnarReach();  // edge rewires can change reach without growth
    return;  // removal keeps tombstoned slots; only growth syncs
  }
  port_watermarks_.resize(n);
  node_watermarks_.resize(n, kMinTimestamp);
  for (NodeId i = old; i < n; ++i) {
    if (!graph_->is_live(i)) continue;
    port_watermarks_[i].assign(graph_->node(i)->num_input_ports(),
                               kMinTimestamp);
  }
  if (metrics_ != nullptr) {
    node_metrics_.resize(n);
    for (NodeId i = old; i < n; ++i) {
      if (graph_->is_live(i)) InitNodeMetrics(i);
    }
  }
  RecomputeColumnarReach();
}

void PipelineExecutor::RecomputeColumnarReach() {
  size_t n = graph_->num_nodes();
  columnar_reach_.assign(n, 0);
  Result<std::vector<NodeId>> order = graph_->TopologicalOrder();
  if (!order.ok()) return;  // ill-formed graph: keep everything on rows
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    NodeId id = *it;
    if (!graph_->is_live(id)) continue;
    Operator* op = graph_->node(id);
    switch (op->columnar_support()) {
      case ColumnarSupport::kTransform:
        // In-place transforms only make sense on single-input nodes: the
        // batch carries this port's watermarks, and a second port would
        // need cross-port ordering the chain path does not model.
        columnar_reach_[id] = op->num_input_ports() == 1 ? 1 : 0;
        break;
      case ColumnarSupport::kConsume:
        columnar_reach_[id] = 1;
        break;
      case ColumnarSupport::kPassthrough: {
        bool any = false;
        for (const auto& e : graph_->outputs(id)) {
          any = any || (e.to < n && columnar_reach_[e.to] != 0);
        }
        columnar_reach_[id] = any ? 1 : 0;
        break;
      }
      case ColumnarSupport::kNone:
        break;
    }
  }
}

void PipelineExecutor::InitNodeMetrics(NodeId id) {
  Operator* op = graph_->node(id);
  LabelSet labels{{"node", op->name()}, {"id", std::to_string(id)}};
  NodeMetrics& m = node_metrics_[id];
  m.records_in = metrics_->GetCounter("cq_dataflow_records_in_total", labels);
  m.records_out =
      metrics_->GetCounter("cq_dataflow_records_out_total", labels);
  m.watermarks_in =
      metrics_->GetCounter("cq_dataflow_watermarks_in_total", labels);
  m.vectorized_batches =
      metrics_->GetCounter("cq_dataflow_vectorized_batches_total", labels);
  m.row_fallback_batches =
      metrics_->GetCounter("cq_dataflow_row_fallback_batches_total", labels);
  m.process_latency_us =
      metrics_->GetHistogram("cq_dataflow_process_latency_us", labels);
  m.event_time_lag = metrics_->GetGauge("cq_dataflow_event_time_lag", labels);
  m.state_entries = metrics_->GetGauge("cq_dataflow_state_entries", labels);
  m.state_bytes = metrics_->GetGauge("cq_dataflow_state_bytes", labels);
  m.selectivity = metrics_->GetDoubleGauge("cq_dataflow_selectivity", labels);
  op->AttachMetrics(metrics_, labels);
}

void PipelineExecutor::AttachTracer(TraceRecorder* tracer) {
  tracer_ = tracer;
  trace_active_ = false;
  active_trace_ = TraceContext{};
}

void PipelineExecutor::SetActiveTrace(const TraceContext& trace) {
  active_trace_ = trace;
  trace_active_ = true;
}

void PipelineExecutor::ClearActiveTrace() {
  trace_active_ = false;
  active_trace_ = TraceContext{};
}

void PipelineExecutor::ObserveSelectivity(NodeMetrics* m, size_t records_in,
                                          size_t records_out) {
  if (m == nullptr || m->selectivity == nullptr || records_in == 0) return;
  // EWMA (alpha 0.1) of per-delivery out/in; first observation seeds it.
  double ratio =
      static_cast<double>(records_out) / static_cast<double>(records_in);
  m->selectivity_ewma = m->selectivity_ewma < 0.0
                            ? ratio
                            : 0.1 * ratio + 0.9 * m->selectivity_ewma;
  m->selectivity->Set(m->selectivity_ewma);
}

void PipelineExecutor::AttachMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  node_metrics_.clear();
  child_time_ns_.clear();
  if (registry == nullptr) return;
  node_metrics_.resize(graph_->num_nodes());
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (graph_->is_live(i)) InitNodeMetrics(i);
  }
}

void PipelineExecutor::RefreshStateMetrics() {
  if (metrics_ == nullptr) return;
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i) || i >= node_metrics_.size()) continue;
    const Operator* op = graph_->node(i);
    node_metrics_[i].state_entries->Set(static_cast<int64_t>(op->StateSize()));
    node_metrics_[i].state_bytes->Set(
        static_cast<int64_t>(op->StateBytesApprox()));
  }
}

std::string PipelineExecutor::DumpMetrics(MetricsFormat format) {
  if (metrics_ == nullptr) return "";
  RefreshStateMetrics();
  return metrics_->Dump(format);
}

OperatorContext PipelineExecutor::ContextFor(NodeId node) const {
  OperatorContext ctx;
  ctx.processing_time = clock_->Now();
  ctx.watermark = node_watermarks_[node];
  // active_trace_.parent_span tracks the delivering node's own span (set
  // around each operator invocation below), so operator-recorded sub-spans
  // nest under it.
  ctx.trace = trace_active_ ? &active_trace_ : nullptr;
  return ctx;
}

Status PipelineExecutor::PushRecord(NodeId source, Tuple tuple, Timestamp ts) {
  return Push(source, StreamElement::Record(std::move(tuple), ts));
}

Status PipelineExecutor::PushWatermark(NodeId source, Timestamp watermark) {
  return Push(source, StreamElement::Watermark(watermark));
}

Status PipelineExecutor::Push(NodeId source, const StreamElement& element) {
  if (!graph_->is_live(source)) {
    return Status::InvalidArgument("no such node");
  }
  // Barriers are a channel-level protocol; the runtime consumes them
  // before delivery (ShardedPipeline task loop, BarrierAligner), so
  // DeliverSequence rejects one that leaks this far.
  return DeliverSequence(source, 0, &element, 1);
}

Status PipelineExecutor::PushBatch(NodeId source, const StreamBatch& batch) {
  if (!graph_->is_live(source)) {
    return Status::InvalidArgument("no such node");
  }
  Status st;
  if (ColumnarReach(source)) {
    // The transpose is the source's work: its frame starts here.
    if (metrics_ != nullptr || TracingNow()) {
      frame_start_ns_ = MonotonicNanos();
    }
    Result<ColumnarBatch> columnar = ColumnarBatch::FromRows(batch);
    if (columnar.ok()) {
      st = DeliverColumnar(source, 0, &*columnar, /*owned=*/true);
      frame_start_ns_ = 0;
      return st;
    }
    // Ragged arity / mixed-type columns / in-band barrier: the converter
    // refused, so this batch rides the row path unchanged.
    if (metrics_ != nullptr) {
      node_metrics_[source].row_fallback_batches->Increment();
    }
  }
  st = DeliverSequence(source, 0, batch.elements().data(), batch.size());
  frame_start_ns_ = 0;
  return st;
}

Status PipelineExecutor::PushColumnar(NodeId source, ColumnarBatch batch) {
  if (!graph_->is_live(source)) {
    return Status::InvalidArgument("no such node");
  }
  if (!ColumnarReach(source)) {
    return FallbackToRows(source, 0, batch);
  }
  return DeliverColumnar(source, 0, &batch, /*owned=*/true);
}

Status PipelineExecutor::FallbackToRows(NodeId node, size_t port,
                                        const ColumnarBatch& batch) {
  if (metrics_ != nullptr) {
    node_metrics_[node].row_fallback_batches->Increment();
  }
  StreamBatch rows = batch.ToRows();
  return DeliverSequence(node, port, rows.elements().data(), rows.size());
}

Status PipelineExecutor::DeliverColumnar(NodeId node, size_t port,
                                         ColumnarBatch* batch, bool owned) {
  Operator* op = graph_->node(node);
  const ColumnarSupport support = op->columnar_support();
  // A chain node rewrites the batch in place: it takes an owned batch and
  // a copy of a shared one. A consume node reads it where it lies.
  auto chain_input = [&] {
    return owned ? std::move(*batch) : ColumnarBatch(*batch);
  };
  if (support == ColumnarSupport::kPassthrough) {
    return DeliverColumnarChain(node, port, chain_input(),
                                /*is_transform=*/false);
  }
  if (support != ColumnarSupport::kNone) {
    // Scratch reused across calls: the check finishes before any delivery
    // below recurses into this function.
    in_types_.clear();
    for (const Column& c : batch->columns()) in_types_.push_back(c.type());
    if (op->CanProcessColumnar(in_types_, nullptr)) {
      if (support == ColumnarSupport::kConsume) {
        return DeliverColumnarConsume(node, port, *batch);
      }
      if (op->num_input_ports() == 1) {
        return DeliverColumnarChain(node, port, chain_input(),
                                    /*is_transform=*/true);
      }
    }
  }
  return FallbackToRows(node, port, *batch);
}

Status PipelineExecutor::DeliverColumnarChain(NodeId node, size_t port,
                                              ColumnarBatch batch,
                                              bool is_transform) {
  NodeMetrics* m = metrics_ != nullptr ? &node_metrics_[node] : nullptr;
  Operator* op = graph_->node(node);
  NodeFrame frame(this, m, op, TracingNow());

  const auto& marks = batch.watermarks();
  size_t input_selected = batch.SelectedCount();
  // Input bookkeeping against the *pre-transform* selection: per-mark
  // prefix maxima reproduce the row path's running max_event_ts, so the
  // event-time-lag gauge sees the same values at each watermark.
  std::vector<Timestamp> mark_prefix_max;
  Timestamp input_max = kMinTimestamp;
  if (m != nullptr) {
    m->records_in->Increment(input_selected);
    mark_prefix_max.reserve(marks.size());
    size_t k = 0;
    Timestamp run_max = kMinTimestamp;
    size_t n = batch.num_rows();
    for (size_t i = 0; i <= n; ++i) {
      while (k < marks.size() && marks[k].pos == i) {
        mark_prefix_max.push_back(run_max);
        ++k;
      }
      if (i < n && batch.IsSelected(i) && batch.timestamp(i) > run_max) {
        run_max = batch.timestamp(i);
      }
    }
    input_max = run_max;
  }

  if (is_transform) {
    // Cannot fail: CanProcessColumnar vetted the column types, and
    // vectorizable expressions are rejected up front if any row could
    // error — that guarantee is what makes in-place chains rollback-free.
    op->ProcessColumnarTransform(&batch, ContextFor(node));
  }
  if (m != nullptr) {
    m->vectorized_batches->Increment();
    size_t out = batch.SelectedCount();
    m->records_out->Increment(out);
    ObserveSelectivity(m, input_selected, out);
  }

  // Apply the batch's watermarks to this node without forwarding them —
  // the batch itself carries the marks to the children below. Chain
  // operators are watermark-insensitive (stateless transforms), so
  // applying marks after the whole-batch transform is unobservable.
  Status st = Status::OK();
  for (size_t j = 0; j < marks.size(); ++j) {
    if (m != nullptr && mark_prefix_max[j] > m->max_event_ts) {
      m->max_event_ts = mark_prefix_max[j];
    }
    st = DeliverWatermarkImpl(node, port, marks[j].ts, /*forward=*/false);
    if (!st.ok()) break;
  }
  if (m != nullptr && input_max > m->max_event_ts) {
    m->max_event_ts = input_max;
  }

  if (st.ok() && !(batch.SelectedCount() == 0 && marks.empty())) {
    const auto& edges = graph_->outputs(node);
    StreamBatch rows;
    bool rows_built = false;
    for (size_t ei = 0; ei < edges.size(); ++ei) {
      const auto& e = edges[ei];
      if (ColumnarReach(e.to)) {
        st = DeliverColumnar(e.to, e.port, &batch,
                             /*owned=*/ei + 1 == edges.size());
      } else {
        if (!rows_built) {
          rows = batch.ToRows();
          rows_built = true;
          if (m != nullptr) m->row_fallback_batches->Increment();
        }
        st = DeliverSequence(e.to, e.port, rows.elements().data(),
                             rows.size());
      }
      if (!st.ok()) break;
    }
  }

  return st;
}

Status PipelineExecutor::DeliverColumnarConsume(NodeId node, size_t port,
                                                const ColumnarBatch& batch) {
  NodeMetrics* m = metrics_ != nullptr ? &node_metrics_[node] : nullptr;
  Operator* op = graph_->node(node);
  NodeFrame frame(this, m, op, TracingNow());

  const auto& marks = batch.watermarks();
  Status st = Status::OK();
  bool all_handled = true;
  std::vector<StreamElement> emitted;
  ColumnarBatch run;
  size_t begin = 0;
  size_t mark_idx = 0;
  // Watermark-delimited segments through the kernel, full watermark
  // delivery (min-combining + downstream forwarding) in between — the
  // exact interleaving the row path produces.
  while (st.ok() && (begin < batch.num_rows() || mark_idx < marks.size())) {
    size_t end =
        mark_idx < marks.size() ? marks[mark_idx].pos : batch.num_rows();
    size_t seg_selected = 0;
    Timestamp seg_max = kMinTimestamp;
    for (size_t i = begin; i < end; ++i) {
      if (!batch.IsSelected(i)) continue;
      ++seg_selected;
      if (batch.timestamp(i) > seg_max) seg_max = batch.timestamp(i);
    }
    if (seg_selected > 0) {
      if (m != nullptr) {
        m->records_in->Increment(seg_selected);
        if (seg_max > m->max_event_ts) m->max_event_ts = seg_max;
      }
      VectorCollector collector(&emitted, &run);
      bool handled = false;
      st = op->ProcessColumnarSegment(port, batch, begin, end,
                                      ContextFor(node), &collector, &handled);
      if (st.ok() && !handled) {
        // Kernel declined this segment (unsupported configuration):
        // re-materialise just the segment and run it per element.
        all_handled = false;
        std::vector<StreamElement> rows;
        batch.AppendRowsTo(&rows, begin, end);
        st = ProcessEach(op, port, rows.data(), rows.size(), ContextFor(node),
                         &collector);
      }
      if (st.ok()) st = ForwardRun(node, m, seg_selected, &emitted, &run);
    }
    if (st.ok() && mark_idx < marks.size()) {
      st = DeliverWatermark(node, port, marks[mark_idx].ts);
      ++mark_idx;
    }
    begin = end;
    if (begin >= batch.num_rows() && mark_idx >= marks.size()) break;
  }
  if (m != nullptr) {
    (all_handled ? m->vectorized_batches : m->row_fallback_batches)
        ->Increment();
  }

  return st;
}

Status PipelineExecutor::DeliverSequence(NodeId node, size_t port,
                                         const StreamElement* data,
                                         size_t count) {
  size_t i = 0;
  while (i < count) {
    if (data[i].is_barrier()) {
      return Status::Internal("checkpoint barrier leaked into the dataflow");
    }
    if (data[i].is_watermark()) {
      CQ_RETURN_NOT_OK(DeliverWatermark(node, port, data[i].timestamp));
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < count && data[j].is_record()) ++j;
    CQ_RETURN_NOT_OK(DeliverBatch(node, port, data + i, j - i));
    i = j;
  }
  return Status::OK();
}

Status PipelineExecutor::ForwardRun(NodeId node, NodeMetrics* m,
                                    size_t records_in,
                                    std::vector<StreamElement>* emitted,
                                    ColumnarBatch* run) {
  const bool columnar = run->num_rows() > 0;
  if (m != nullptr) {
    size_t records_out = run->SelectedCount();
    for (const auto& e : *emitted) {
      if (e.is_record()) ++records_out;
    }
    m->records_out->Increment(records_out);
    ObserveSelectivity(m, records_in, records_out);
  }
  // Each edge receives the full run, preserving per-element order along
  // every path. A columnar run goes to each child in columnar reach as
  // columns (handed over whole to the last); the others share one row
  // rendering of it. Downstream spans parent to this node's span (the
  // caller's open frame holds it as the active parent).
  Status st;
  const auto& edges = graph_->outputs(node);
  bool rows_built = false;
  for (size_t ei = 0; ei < edges.size(); ++ei) {
    const auto& e = edges[ei];
    if (columnar && ColumnarReach(e.to)) {
      st = DeliverColumnar(e.to, e.port, run, /*owned=*/ei + 1 == edges.size());
    } else {
      if (columnar && !rows_built) {
        run->AppendRowsTo(emitted, 0, run->num_rows());
        rows_built = true;
      }
      if (emitted->empty()) break;
      st = DeliverSequence(e.to, e.port, emitted->data(), emitted->size());
    }
    if (!st.ok()) break;
  }
  // Destroy the run inside the caller's frame: with large runs the element
  // destructors are a real cost, and it belongs to this node, not to
  // whatever the caller does next (a trailing watermark would otherwise see
  // the whole unwind as unattributed latency).
  emitted->clear();
  if (columnar) *run = ColumnarBatch();
  return st;
}

Status PipelineExecutor::DeliverBatch(NodeId node, size_t port,
                                      const StreamElement* data,
                                      size_t count) {
  if (count == 0) return Status::OK();
  NodeMetrics* m = metrics_ != nullptr ? &node_metrics_[node] : nullptr;
  Operator* op = graph_->node(node);
  std::vector<StreamElement> emitted;
  ColumnarBatch run;
  VectorCollector collector(&emitted, &run);
  // Self time covers the per-node metric bookkeeping (O(count) scans) and
  // the routing glue.
  NodeFrame frame(this, m, op, TracingNow());
  if (m != nullptr) {
    m->records_in->Increment(count);
    for (size_t i = 0; i < count; ++i) {
      if (data[i].timestamp > m->max_event_ts) {
        m->max_event_ts = data[i].timestamp;
      }
    }
  }
  // ctx.watermark is constant across the run: watermarks split runs.
  Status st = ProcessEach(op, port, data, count, ContextFor(node), &collector);
  if (st.ok()) st = ForwardRun(node, m, count, &emitted, &run);
  return st;
}

Status PipelineExecutor::DeliverWatermark(NodeId node, size_t port,
                                          Timestamp wm) {
  return DeliverWatermarkImpl(node, port, wm, /*forward=*/true);
}

Status PipelineExecutor::DeliverWatermarkImpl(NodeId node, size_t port,
                                              Timestamp wm, bool forward) {
  auto& ports = port_watermarks_[node];
  if (port >= ports.size()) {
    return Status::InvalidArgument("watermark delivered to unknown port");
  }
  NodeMetrics* m = metrics_ != nullptr ? &node_metrics_[node] : nullptr;
  if (m != nullptr) m->watermarks_in->Increment();
  if (wm <= ports[port]) return Status::OK();  // watermarks are monotonic
  ports[port] = wm;
  Timestamp combined = *std::min_element(ports.begin(), ports.end());
  if (combined <= node_watermarks_[node]) return Status::OK();
  node_watermarks_[node] = combined;
  if (m != nullptr && m->max_event_ts != kMinTimestamp) {
    int64_t lag = m->max_event_ts - combined;
    m->event_time_lag->Set(lag > 0 ? lag : 0);
  }

  Operator* op = graph_->node(node);
  std::vector<StreamElement> emitted;
  ColumnarBatch run;
  VectorCollector collector(&emitted, &run);
  NodeFrame frame(this, m, op, TracingNow(), /*watermark=*/true);
  Status st = op->OnWatermark(combined, ContextFor(node), &collector);
  // What the watermark released travels as one run, ahead of the mark.
  if (st.ok()) st = ForwardRun(node, m, /*records_in=*/0, &emitted, &run);
  if (st.ok() && forward) {
    // Forward the combined watermark downstream.
    for (const auto& e : graph_->outputs(node)) {
      st = DeliverWatermark(e.to, e.port, combined);
      if (!st.ok()) break;
    }
  }
  return st;
}

Status PipelineExecutor::AdvanceProcessingTime(Timestamp now) {
  if (clock_ == &manual_clock_) manual_clock_.Set(now);
  CQ_ASSIGN_OR_RETURN(std::vector<NodeId> order, graph_->TopologicalOrder());
  for (NodeId id : order) {
    NodeMetrics* m = metrics_ != nullptr ? &node_metrics_[id] : nullptr;
    Operator* op = graph_->node(id);
    std::vector<StreamElement> emitted;
    ColumnarBatch run;
    VectorCollector collector(&emitted, &run);
    // Timing only: processing-time sweeps record no span of their own.
    NodeFrame frame(this, m, op, /*traced=*/false);
    CQ_RETURN_NOT_OK(op->OnProcessingTime(ContextFor(id), &collector));
    CQ_RETURN_NOT_OK(ForwardRun(id, m, /*records_in=*/0, &emitted, &run));
  }
  return Status::OK();
}

Result<std::vector<std::string>> PipelineExecutor::SnapshotSlots() {
  std::vector<std::string> slots;
  slots.reserve(graph_->num_nodes());
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i)) {
      slots.emplace_back();  // tombstoned slot: keep ids aligned
      continue;
    }
    CQ_ASSIGN_OR_RETURN(std::string state, graph_->node(i)->SnapshotState());
    slots.push_back(std::move(state));
  }
  // Second pass, only after every node captured cleanly: the image now owns
  // the staged state, so staging sinks may drop their live copies. A failure
  // here aborts the epoch — the caller must recover from the previous
  // durable epoch, since part of the live state moved into the (discarded)
  // image.
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i)) continue;
    CQ_RETURN_NOT_OK(graph_->node(i)->OnSnapshotStaged());
  }
  return slots;
}

Status PipelineExecutor::RestoreSlots(const std::vector<std::string>& slots) {
  if (slots.size() != graph_->num_nodes()) {
    return Status::InvalidArgument(
        "checkpoint image is for a graph with " +
        std::to_string(slots.size()) + " nodes, this graph has " +
        std::to_string(graph_->num_nodes()));
  }
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i)) {
      if (!slots[i].empty()) {
        return Status::InvalidArgument(
            "checkpoint image carries state for removed node " +
            std::to_string(i));
      }
      continue;
    }
    CQ_RETURN_NOT_OK(graph_->node(i)->RestoreState(slots[i]));
  }
  return Status::OK();
}

Result<std::string> PipelineExecutor::Checkpoint(
    const std::map<std::string, int64_t>& source_offsets) {
  CQ_ASSIGN_OR_RETURN(std::vector<std::string> slots, SnapshotSlots());
  return ft::EncodeCheckpointImage(slots, source_offsets);
}

Result<std::map<std::string, int64_t>> PipelineExecutor::Restore(
    std::string_view image) {
  CQ_ASSIGN_OR_RETURN(ft::CheckpointImage decoded,
                      ft::DecodeCheckpointImage(image));
  CQ_RETURN_NOT_OK(RestoreSlots(decoded.slots));
  return decoded.source_offsets;
}

size_t PipelineExecutor::TotalStateSize() const {
  size_t n = 0;
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (graph_->is_live(i)) n += graph_->node(i)->StateSize();
  }
  return n;
}

Timestamp PipelineExecutor::NodeWatermark(NodeId id) const {
  return node_watermarks_[id];
}

}  // namespace cq
