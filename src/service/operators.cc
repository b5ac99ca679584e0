#include "service/operators.h"

#include <algorithm>

#include "runtime/columnar_batch.h"
#include "types/serde.h"

namespace cq {

Tuple MakeDeltaTuple(const Tuple& t, int64_t sign) {
  Tuple d = t;
  d.Append(Value(sign));
  return d;
}

Result<std::pair<Tuple, int64_t>> SplitDeltaTuple(const Tuple& t) {
  if (t.empty() || !t.at(t.size() - 1).is_int64()) {
    return Status::InvalidArgument(
        "delta tuple is missing its trailing INT64 sign column");
  }
  int64_t sign = t.at(t.size() - 1).int64_value();
  std::vector<Value> vals(t.values().begin(), t.values().end() - 1);
  return std::make_pair(Tuple(std::move(vals)), sign);
}

// --- WindowDeltaOperator ---

WindowDeltaOperator::WindowDeltaOperator(std::string name, S2RSpec spec)
    : Operator(std::move(name)), spec_(std::move(spec)) {}

Status WindowDeltaOperator::ProcessElement(size_t, const StreamElement& element,
                                           const OperatorContext& ctx,
                                           Collector* out) {
  const Tuple& t = element.tuple;
  const Timestamp ts = element.timestamp;
  switch (spec_.kind) {
    case S2RKind::kRange:
    case S2RKind::kNow: {
      CQ_ASSIGN_OR_RETURN(TimeInterval validity, TupleValidity(spec_, ts));
      if (validity.Empty() || validity.end <= ctx.watermark) {
        // The tuple's entire visibility lies behind the watermark: the
        // instants at which it was in the window have already been emitted.
        ++dropped_late_;
        if (late_drop_counter_ != nullptr) late_drop_counter_->Increment();
        return Status::OK();
      }
      out->Emit(StreamElement::Record(MakeDeltaTuple(t, 1), ts));
      expiry_.emplace(validity.end, t);
      return Status::OK();
    }
    case S2RKind::kUnbounded:
      out->Emit(StreamElement::Record(MakeDeltaTuple(t, 1), ts));
      return Status::OK();
    case S2RKind::kRows:
    case S2RKind::kPartitionedRows: {
      std::string key;
      if (spec_.kind == S2RKind::kPartitionedRows) {
        key = TupleToBytes(t.Project(spec_.partition_keys));
      }
      std::deque<Tuple>& part = rows_[key];
      part.push_back(t);
      out->Emit(StreamElement::Record(MakeDeltaTuple(t, 1), ts));
      if (part.size() > spec_.rows) {
        out->Emit(StreamElement::Record(MakeDeltaTuple(part.front(), -1), ts));
        part.pop_front();
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown S2R kind");
}

Status WindowDeltaOperator::ProcessColumnarSegment(
    size_t, const ColumnarBatch& batch, size_t begin, size_t end,
    const OperatorContext& ctx, Collector* out, bool* handled) {
  *handled = false;
  if (spec_.kind != S2RKind::kRange && spec_.kind != S2RKind::kNow &&
      spec_.kind != S2RKind::kUnbounded) {
    return Status::OK();  // row-based windows: per-partition FIFO, row path
  }
  *handled = true;
  for (size_t i = begin; i < end; ++i) {
    if (!batch.IsSelected(i)) continue;
    const Timestamp ts = batch.timestamp(i);
    if (spec_.kind == S2RKind::kUnbounded) {
      out->Emit(StreamElement::Record(MakeDeltaTuple(batch.RowAt(i), 1), ts));
      continue;
    }
    CQ_ASSIGN_OR_RETURN(TimeInterval validity, TupleValidity(spec_, ts));
    if (validity.Empty() || validity.end <= ctx.watermark) {
      ++dropped_late_;
      if (late_drop_counter_ != nullptr) late_drop_counter_->Increment();
      continue;
    }
    Tuple t = batch.RowAt(i);
    out->Emit(StreamElement::Record(MakeDeltaTuple(t, 1), ts));
    expiry_.emplace(validity.end, std::move(t));
  }
  return Status::OK();
}

Status WindowDeltaOperator::OnWatermark(Timestamp watermark,
                                        const OperatorContext&,
                                        Collector* out) {
  // Expire every tuple whose validity interval [start, end) has fully
  // passed: end <= watermark. Emitted before the executor forwards the
  // watermark, so downstream sees the expirations within the same instant.
  auto it = expiry_.begin();
  while (it != expiry_.end() && it->first <= watermark) {
    out->Emit(StreamElement::Record(MakeDeltaTuple(it->second, -1), watermark));
    it = expiry_.erase(it);
  }
  return Status::OK();
}

Result<std::string> WindowDeltaOperator::SnapshotState() const {
  std::string out;
  EncodeU64(static_cast<uint64_t>(expiry_.size()), &out);
  for (const auto& [ts, tuple] : expiry_) {
    EncodeI64(ts, &out);
    EncodeTuple(tuple, &out);
  }
  EncodeU64(static_cast<uint64_t>(rows_.size()), &out);
  for (const auto& [key, part] : rows_) {
    EncodeString(key, &out);
    EncodeU64(static_cast<uint64_t>(part.size()), &out);
    for (const Tuple& t : part) EncodeTuple(t, &out);
  }
  EncodeU64(dropped_late_, &out);
  return out;
}

Status WindowDeltaOperator::RestoreState(std::string_view snapshot) {
  expiry_.clear();
  rows_.clear();
  dropped_late_ = 0;
  if (snapshot.empty()) return Status::OK();
  std::string_view in = snapshot;
  CQ_ASSIGN_OR_RETURN(uint64_t n_expiry, DecodeU64(&in));
  for (uint64_t i = 0; i < n_expiry; ++i) {
    CQ_ASSIGN_OR_RETURN(int64_t ts, DecodeI64(&in));
    CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&in));
    expiry_.emplace(ts, std::move(t));
  }
  CQ_ASSIGN_OR_RETURN(uint64_t n_parts, DecodeU64(&in));
  for (uint64_t i = 0; i < n_parts; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string key, DecodeString(&in));
    CQ_ASSIGN_OR_RETURN(uint64_t n_rows, DecodeU64(&in));
    std::deque<Tuple>& part = rows_[key];
    for (uint64_t j = 0; j < n_rows; ++j) {
      CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&in));
      part.push_back(std::move(t));
    }
  }
  CQ_ASSIGN_OR_RETURN(dropped_late_, DecodeU64(&in));
  return Status::OK();
}

size_t WindowDeltaOperator::StateSize() const {
  size_t n = expiry_.size();
  for (const auto& [key, part] : rows_) n += part.size();
  return n;
}

size_t WindowDeltaOperator::StateBytesApprox() const {
  // Cheap shape estimate: entries times a nominal tuple footprint.
  return StateSize() * 48;
}

void WindowDeltaOperator::AttachMetrics(MetricsRegistry* registry,
                                        const LabelSet& labels) {
  if (registry == nullptr) {
    late_drop_counter_ = nullptr;
    return;
  }
  late_drop_counter_ =
      registry->GetCounter("cq_dataflow_late_records_dropped_total", labels);
}

// --- PlanDeltaOperator ---

PlanDeltaOperator::PlanDeltaOperator(std::string name, RelOpPtr plan,
                                     size_t num_slots, R2SKind output)
    : Operator(std::move(name), num_slots),
      output_(output),
      num_slots_(num_slots),
      exec_(std::move(plan), num_slots,
            /*maintain_output=*/output == R2SKind::kRStream),
      pending_(num_slots) {}

Status PlanDeltaOperator::ProcessElement(size_t port,
                                         const StreamElement& element,
                                         const OperatorContext&, Collector*) {
  if (port >= num_slots_) {
    return Status::InvalidArgument("plan operator has no slot " +
                                   std::to_string(port));
  }
  CQ_ASSIGN_OR_RETURN(auto split, SplitDeltaTuple(element.tuple));
  pending_[port].Add(std::move(split.first), split.second);
  has_pending_ = true;
  return Status::OK();
}

Status PlanDeltaOperator::OnWatermark(Timestamp watermark,
                                      const OperatorContext&, Collector* out) {
  if (!has_pending_) return Status::OK();
  std::vector<DeltaList> batch;
  batch.reserve(num_slots_);
  for (DeltaBuffer& p : pending_) batch.push_back(p.Take());
  has_pending_ = false;
  // Consolidated and in ascending tuple order: emission order is the
  // tuple order, as the R2S operators define it over ordered relations.
  CQ_ASSIGN_OR_RETURN(DeltaList delta, exec_.Apply(std::move(batch)));
  switch (output_) {
    case R2SKind::kIStream:
      for (const auto& [row, mult] : delta) {
        for (int64_t i = 0; i < mult; ++i) {
          out->Emit(StreamElement::Record(row, watermark));
        }
      }
      return Status::OK();
    case R2SKind::kDStream:
      for (const auto& [row, mult] : delta) {
        for (int64_t i = 0; i < -mult; ++i) {
          out->Emit(StreamElement::Record(row, watermark));
        }
      }
      return Status::OK();
    case R2SKind::kRStream:
      for (const auto& [row, mult] : exec_.current_output().entries()) {
        for (int64_t i = 0; i < mult; ++i) {
          out->Emit(StreamElement::Record(row, watermark));
        }
      }
      return Status::OK();
    case R2SKind::kRelation:
      // No R2S operator: deliver the result as a signed changefeed so the
      // subscriber can maintain the relation (InvaliDB-style push view).
      for (auto& [row, mult] : delta) {
        row.Append(Value(mult));
        out->Emit(StreamElement::Record(std::move(row), watermark));
      }
      return Status::OK();
  }
  return Status::Internal("unknown R2S kind");
}

Result<std::string> PlanDeltaOperator::SnapshotState() const {
  std::string out;
  EncodeU32(static_cast<uint32_t>(num_slots_), &out);
  for (const DeltaBuffer& p : pending_) {
    // Net-nonzero rows in tuple order: the bytes do not depend on the
    // order the deltas arrived in.
    std::vector<const std::pair<Tuple, int64_t>*> rows;
    for (const auto& row : p.rows()) {
      if (row.second != 0) rows.push_back(&row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    EncodeU32(static_cast<uint32_t>(rows.size()), &out);
    for (const auto* row : rows) {
      EncodeTuple(row->first, &out);
      EncodeI64(row->second, &out);
    }
  }
  out.push_back(has_pending_ ? 1 : 0);
  CQ_ASSIGN_OR_RETURN(std::string exec_blob, exec_.SnapshotState());
  EncodeString(exec_blob, &out);
  return out;
}

Status PlanDeltaOperator::RestoreState(std::string_view snapshot) {
  std::string_view in = snapshot;
  CQ_ASSIGN_OR_RETURN(uint32_t slots, DecodeU32(&in));
  if (slots != num_slots_) {
    return Status::InvalidArgument(
        "plan operator '" + name() + "' snapshot has " +
        std::to_string(slots) + " slots, operator has " +
        std::to_string(num_slots_));
  }
  for (DeltaBuffer& p : pending_) {
    p.Take();
    CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(&in));
    for (uint32_t i = 0; i < n; ++i) {
      CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&in));
      CQ_ASSIGN_OR_RETURN(int64_t c, DecodeI64(&in));
      p.Add(std::move(t), c);
    }
  }
  if (in.empty()) {
    return Status::IOError("plan operator snapshot truncated");
  }
  has_pending_ = in.front() != 0;
  in.remove_prefix(1);
  CQ_ASSIGN_OR_RETURN(std::string exec_blob, DecodeString(&in));
  if (!in.empty()) {
    return Status::IOError("trailing bytes after plan operator snapshot");
  }
  return exec_.RestoreState(exec_blob);
}

size_t PlanDeltaOperator::StateSize() const {
  size_t n = exec_.StateSize();
  for (const DeltaBuffer& p : pending_) {
    for (const auto& row : p.rows()) n += row.second != 0 ? 1 : 0;
  }
  return n;
}

size_t PlanDeltaOperator::StateBytesApprox() const {
  return StateSize() * 48;
}

// --- Subscription / SubscriptionSinkOperator ---

bool Subscription::Poll(StreamBatch* out) {
  if (!channel_.Pop(out)) return false;
  channel_.Acknowledge();
  return true;
}

bool Subscription::TryPoll(StreamBatch* out) {
  if (!channel_.TryPop(out)) return false;
  channel_.Acknowledge();
  return true;
}

uint64_t Subscription::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

Status SubscriptionSinkOperator::ProcessElement(size_t,
                                                const StreamElement& element,
                                                const OperatorContext&,
                                                Collector*) {
  pending_.push_back(element);
  return Status::OK();
}

Status SubscriptionSinkOperator::OnWatermark(Timestamp watermark,
                                             const OperatorContext& ctx,
                                             Collector*) {
  if (output_records_ != nullptr && !pending_.empty()) {
    output_records_->Increment(pending_.size());
  }
  total_emitted_ += pending_.size();
  pending_.push_back(StreamElement::Watermark(watermark));
  // Publish-kind span for the fan-out, nested under this sink's operator
  // span; outgoing batches are re-stamped so subscription queue-wait spans
  // parent under the publish.
  const bool tracing = tracer_ != nullptr && ctx.trace != nullptr &&
                       ctx.trace->sampled();
  Span publish;
  TraceContext out_tc;
  if (tracing) {
    publish.trace_id = ctx.trace->trace_id;
    publish.span_id = NextSpanId();
    publish.parent_id = ctx.trace->parent_span;
    publish.kind = SpanKind::kPublish;
    publish.name = "publish:" + name();
    publish.start_ns = MonotonicNanos();
    out_tc = *ctx.trace;
    out_tc.parent_span = publish.span_id;
  }
  bool any_closed = false;
  for (size_t i = 0; i < subs_.size(); ++i) {
    const SubscriptionPtr& sub = subs_[i];
    // Every subscription but the last gets a copy; the last takes pending_.
    StreamBatch batch = i + 1 < subs_.size() ? StreamBatch(pending_)
                                             : StreamBatch(std::move(pending_));
    if (tracing) batch.set_trace(out_tc);
    Status st;
    if (!sub->channel_.TryPush(&batch, &st)) {
      if (st.ok()) {
        // Credits exhausted: this subscriber falls behind alone.
        sub->dropped_.fetch_add(1, std::memory_order_relaxed);
        if (sub->drops_counter_ != nullptr) sub->drops_counter_->Increment();
        if (dropped_pushes_ != nullptr) dropped_pushes_->Increment();
      } else {
        any_closed = true;  // cancelled subscriber; collect below
      }
    }
  }
  if (tracing) {
    publish.duration_ns = MonotonicNanos() - publish.start_ns;
    tracer_->Record(std::move(publish));
  }
  // End-to-end latency: ingest stamp (service push / broker poll) to
  // publish complete. Attributed even on unsampled pushes.
  if (latency_us_ != nullptr && ctx.trace != nullptr &&
      ctx.trace->ingest_ns != 0) {
    latency_us_->Observe(
        static_cast<double>(MonotonicNanos() - ctx.trace->ingest_ns) / 1e3);
  }
  if (any_closed) {
    subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                               [](const SubscriptionPtr& s) {
                                 return s->closed();
                               }),
                subs_.end());
  }
  pending_.clear();
  return Status::OK();
}

void SubscriptionSinkOperator::CloseAll() {
  for (const SubscriptionPtr& sub : subs_) sub->Cancel();
  subs_.clear();
}

}  // namespace cq
