#include "shard/exchange.h"

#include <utility>

namespace cq::shard {

std::vector<StreamBatch> SplitRowBatch(StreamBatch in,
                                       const ShardPartitioner& part) {
  std::vector<StreamBatch> out(part.nshards());
  const TraceContext trace = in.trace();
  for (StreamElement& e : in.TakeElements()) {
    if (e.is_record()) {
      out[part.ShardOfTuple(e.tuple)].Add(std::move(e));
    } else {
      // Watermarks and barriers are broadcast: every shard's event-time
      // clock (and barrier alignment) must advance even when the records
      // around them all hashed elsewhere.
      for (auto& shard_batch : out) shard_batch.Add(e);
    }
  }
  for (auto& shard_batch : out) shard_batch.set_trace(trace);
  return out;
}

Result<std::vector<ColumnarBatch>> SplitColumnarBatch(
    const ColumnarBatch& in, const ShardPartitioner& part) {
  const size_t n = part.nshards();
  const size_t rows = in.num_rows();
  const size_t words = (rows + 63) / 64;

  // Pass 1: one key hash per selected row -> per-shard selection bitmaps.
  std::vector<std::vector<uint64_t>> bitmaps(
      n, std::vector<uint64_t>(words, 0));
  std::vector<uint32_t> shard_of(rows, static_cast<uint32_t>(n));
  std::string scratch;
  for (size_t i = 0; i < rows; ++i) {
    if (!in.IsSelected(i)) continue;
    const size_t s = part.ShardOfRow(in, i, &scratch);
    shard_of[i] = static_cast<uint32_t>(s);
    bitmaps[s][i >> 6] |= uint64_t{1} << (i & 63);
  }

  // Pass 2: densify each shard's rows with a typed gather.
  std::vector<ColumnarBatch> out(n);
  for (size_t s = 0; s < n; ++s) {
    CQ_RETURN_NOT_OK(out[s].AppendGathered(in, bitmaps[s]));
    out[s].set_trace(in.trace());
  }

  // Pass 3: broadcast every watermark mark into each shard at the position
  // its prefix of rows gathered to (marks are ordered by pos, so the
  // per-shard positions stay ordered too).
  std::vector<uint32_t> prefix(n, 0);
  size_t row_cursor = 0;
  for (const WatermarkMark& mark : in.watermarks()) {
    while (row_cursor < mark.pos && row_cursor < rows) {
      const uint32_t s = shard_of[row_cursor];
      if (s < n) ++prefix[s];
      ++row_cursor;
    }
    for (size_t s = 0; s < n; ++s) out[s].AddWatermarkMark(prefix[s], mark.ts);
  }
  return out;
}

HashExchangeOperator::HashExchangeOperator(std::string name,
                                           ShardPartitioner part)
    : Operator(std::move(name)), part_(std::move(part)) {
  targets_.resize(part_.nshards());
}

void HashExchangeOperator::SealColumnar(size_t target) {
  TargetBuffer& t = targets_[target];
  if (t.cols == nullptr || t.cols->empty()) {
    t.cols.reset();
    return;
  }
  StreamBatch envelope;
  envelope.set_columnar(std::move(t.cols));
  t.ready.push_back(std::move(envelope));
  t.cols.reset();
}

void HashExchangeOperator::SealRows(size_t target) {
  TargetBuffer& t = targets_[target];
  if (t.rows.empty()) return;
  t.ready.push_back(std::move(t.rows));
  t.rows.clear();
}

Status HashExchangeOperator::ProcessElement(size_t, const StreamElement& element,
                                            const OperatorContext&,
                                            Collector*) {
  const size_t target = part_.ShardOfTuple(element.tuple);
  TargetBuffer& t = targets_[target];
  if (t.cols != nullptr) SealColumnar(target);  // keep stream order
  t.rows.Add(element);
  return Status::OK();
}

Status HashExchangeOperator::OnWatermark(Timestamp watermark,
                                         const OperatorContext&, Collector*) {
  // Broadcast: every shard learns event time advanced, in stream position.
  for (size_t target = 0; target < targets_.size(); ++target) {
    if (targets_[target].cols != nullptr) SealColumnar(target);
    targets_[target].rows.AddWatermark(watermark);
  }
  return Status::OK();
}

bool HashExchangeOperator::CanProcessColumnar(
    const std::vector<ValueType>& in_types, std::vector<ValueType>*) const {
  for (size_t c : part_.key_columns()) {
    if (c >= in_types.size()) return false;
  }
  return true;
}

Status HashExchangeOperator::ProcessColumnarSegment(
    size_t, const ColumnarBatch& batch, size_t begin, size_t end,
    const OperatorContext&, Collector*, bool* handled) {
  *handled = true;
  const size_t n = targets_.size();
  const size_t words = (batch.num_rows() + 63) / 64;
  // Per-shard selection bitmaps over the segment, then one gather each.
  std::vector<std::vector<uint64_t>> bitmaps(n);
  for (size_t i = begin; i < end; ++i) {
    if (!batch.IsSelected(i)) continue;
    const size_t s = part_.ShardOfRow(batch, i, &scratch_);
    if (bitmaps[s].empty()) bitmaps[s].resize(words, 0);
    bitmaps[s][i >> 6] |= uint64_t{1} << (i & 63);
  }
  for (size_t s = 0; s < n; ++s) {
    if (bitmaps[s].empty()) continue;
    TargetBuffer& t = targets_[s];
    if (!t.rows.empty()) SealRows(s);  // keep stream order
    if (t.cols == nullptr) t.cols = std::make_shared<ColumnarBatch>();
    CQ_RETURN_NOT_OK(t.cols->AppendGathered(batch, bitmaps[s]));
  }
  return Status::OK();
}

std::vector<StreamBatch> HashExchangeOperator::TakePending(size_t target) {
  // Seal whichever builder is open (at most one holds data; sealing both in
  // columnar-then-rows order preserves the stream order invariant).
  SealColumnar(target);
  SealRows(target);
  return std::exchange(targets_[target].ready, {});
}

}  // namespace cq::shard
