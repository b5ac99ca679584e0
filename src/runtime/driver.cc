#include "runtime/driver.h"

#include <algorithm>

#include "ft/fault.h"

namespace cq {

BrokerSourceDriver::BrokerSourceDriver(Broker* broker, std::string topic,
                                       std::string group,
                                       BrokerSourceDriverOptions options)
    : broker_(broker),
      topic_(std::move(topic)),
      group_(std::move(group)),
      options_(options) {}

Status BrokerSourceDriver::EnsureInitialized() {
  if (initialized_) return Status::OK();
  CQ_ASSIGN_OR_RETURN(Topic * t, broker_->GetTopic(topic_));
  partition_watermarks_.assign(
      t->num_partitions(),
      BoundedOutOfOrdernessWatermark(options_.max_out_of_orderness));
  // Read positions resume from the broker's committed offsets — everything
  // past them was not covered by a durable checkpoint and gets replayed.
  positions_.resize(t->num_partitions());
  for (size_t p = 0; p < t->num_partitions(); ++p) {
    positions_[p] = broker_->CommittedOffset(group_, topic_, p);
    // Re-derive the generator's state from the consumed prefix: watermark
    // state is a pure function of (partition contents, position), so this
    // restores it exactly. Without it a partition that was fully consumed
    // before the commit would never observe another record after a seek and
    // would hold the min-across-partitions watermark at kMinTimestamp
    // forever — a recovered run could then never flush its windows.
    if (positions_[p] > 0) {
      CQ_ASSIGN_OR_RETURN(
          std::vector<Message> prefix,
          broker_->PollAt(topic_, p, 0,
                          static_cast<size_t>(positions_[p])));
      for (const auto& msg : prefix) {
        partition_watermarks_[p].Observe(msg.timestamp);
      }
    }
  }
  // The run that committed these offsets had already emitted the watermark
  // they imply; replay emits only genuine advances past it, keeping the
  // watermark cadence identical to the uninterrupted run.
  last_emitted_wm_ = CurrentWatermark();
  initialized_ = true;
  return Status::OK();
}

Result<StreamBatch> BrokerSourceDriver::PollBatch(size_t max_per_partition) {
  CQ_RETURN_NOT_OK(EnsureInitialized());
  CQ_ASSIGN_OR_RETURN(Topic * t, broker_->GetTopic(topic_));
  const size_t limit =
      max_per_partition == 0 ? options_.max_poll_records : max_per_partition;
  const bool sample =
      options_.tracer != nullptr && options_.trace_sample_every != 0 &&
      (polls_++ % options_.trace_sample_every) == 0;
  const int64_t poll_start_ns = sample ? MonotonicNanos() : 0;
  StreamBatch batch;
  for (size_t p = 0; p < t->num_partitions(); ++p) {
    CQ_ASSIGN_OR_RETURN(std::vector<Message> msgs,
                        broker_->PollAt(topic_, p, positions_[p], limit));
    if (msgs.empty()) continue;
    for (auto& msg : msgs) {
      partition_watermarks_[p].Observe(msg.timestamp);
      batch.AddRecord(std::move(msg.value), msg.timestamp);
    }
    // Advance the in-memory position only; the broker offset is committed
    // by CommitThrough once a checkpoint covering this window is durable.
    positions_[p] = msgs.back().offset + 1;
  }
  // Source watermark = min across partitions (a stalled partition holds the
  // watermark back, exactly as in production systems). Appended only when it
  // advanced, so batches stay watermark-monotonic.
  Timestamp wm = CurrentWatermark();
  if (wm != kMinTimestamp && wm > last_emitted_wm_) {
    last_emitted_wm_ = wm;
    batch.AddWatermark(wm);
  }
  if (sample && !batch.empty()) {
    // Root the batch's trace at this poll: the ingest span covers broker
    // fetch + watermark derivation, and downstream spans (queue wait,
    // operator self time) parent to it through the stamped context.
    Span span;
    span.trace_id = NextTraceId();
    span.span_id = NextSpanId();
    span.kind = SpanKind::kIngest;
    span.name = "poll:" + topic_;
    span.start_ns = poll_start_ns;
    span.duration_ns = MonotonicNanos() - poll_start_ns;
    TraceContext tc;
    tc.trace_id = span.trace_id;
    tc.parent_span = span.span_id;
    tc.ingest_ns = poll_start_ns;
    batch.set_trace(tc);
    options_.tracer->Record(std::move(span));
  }
  return batch;
}

Result<size_t> BrokerSourceDriver::PumpInto(Channel* out, bool* paused) {
  if (paused != nullptr) *paused = false;
  if (out->credits_available() == 0) {
    // Downstream is out of credits: pause polling so in-process queue depth
    // stays bounded; the backlog accumulates in the broker instead.
    if (paused != nullptr) *paused = true;
    return 0;
  }
  CQ_ASSIGN_OR_RETURN(StreamBatch batch, PollBatch());
  if (batch.empty()) return 0;
  size_t records = batch.num_records();
  CQ_RETURN_NOT_OK(out->Push(std::move(batch)));
  return records;
}

Timestamp BrokerSourceDriver::CurrentWatermark() const {
  if (partition_watermarks_.empty()) return kMinTimestamp;
  Timestamp wm = kMaxTimestamp;
  for (const auto& g : partition_watermarks_) {
    wm = std::min(wm, g.Current());
  }
  return wm == kMaxTimestamp ? kMinTimestamp : wm;
}

Result<Timestamp> BrokerSourceDriver::FinalWatermark() const {
  CQ_ASSIGN_OR_RETURN(Topic * t, broker_->GetTopic(topic_));
  Timestamp max_ts = kMinTimestamp;
  for (size_t p = 0; p < t->num_partitions(); ++p) {
    max_ts = std::max(max_ts, t->partition(p).MaxTimestamp());
  }
  if (max_ts == kMinTimestamp) return kMinTimestamp;
  return max_ts + 1;
}

Result<std::map<std::string, int64_t>> BrokerSourceDriver::Offsets() {
  CQ_RETURN_NOT_OK(EnsureInitialized());
  std::map<std::string, int64_t> out;
  for (size_t p = 0; p < positions_.size(); ++p) {
    out[topic_ + "/" + std::to_string(p)] = positions_[p];
  }
  return out;
}

Status BrokerSourceDriver::CommitThrough(
    const std::map<std::string, int64_t>& offsets) {
  CQ_RETURN_NOT_OK(
      ft::FaultInjector::Global().Hit(ft::faultpoint::kCommitOffsets));
  for (const auto& [key, offset] : offsets) {
    auto slash = key.rfind('/');
    if (slash == std::string::npos || key.substr(0, slash) != topic_) continue;
    size_t p = std::stoul(key.substr(slash + 1));
    CQ_RETURN_NOT_OK(broker_->Commit(group_, topic_, p, offset));
  }
  return Status::OK();
}

Result<std::map<std::string, int64_t>> BrokerSourceDriver::EndOffsets() const {
  CQ_ASSIGN_OR_RETURN(Topic * t, broker_->GetTopic(topic_));
  std::map<std::string, int64_t> out;
  for (size_t p = 0; p < t->num_partitions(); ++p) {
    out[topic_ + "/" + std::to_string(p)] = t->partition(p).EndOffset();
  }
  return out;
}

Status BrokerSourceDriver::SeekTo(
    const std::map<std::string, int64_t>& offsets) {
  for (const auto& [key, offset] : offsets) {
    auto slash = key.rfind('/');
    if (slash == std::string::npos || key.substr(0, slash) != topic_) continue;
    size_t p = std::stoul(key.substr(slash + 1));
    CQ_RETURN_NOT_OK(broker_->Commit(group_, topic_, p, offset));
  }
  // Watermark generators and read positions restart from the committed
  // offsets just written; replayed elements re-advance the watermark.
  initialized_ = false;
  return Status::OK();
}

}  // namespace cq
