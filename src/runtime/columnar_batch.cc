#include "runtime/columnar_batch.h"

#include <algorithm>

namespace cq {

namespace {
size_t PopCount(uint64_t w) {
  return static_cast<size_t>(__builtin_popcountll(w));
}
}  // namespace

void ColumnarBatch::ReplaceColumns(std::vector<Column> cols) {
  columns_ = std::move(cols);
}

Status ColumnarBatch::AppendRow(const Tuple& tuple, Timestamp ts) {
  if (num_rows_ == 0 && columns_.empty()) {
    columns_.resize(tuple.size());
  }
  if (tuple.size() != columns_.size()) {
    return Status::TypeError("columnar batch: ragged row arity");
  }
  // Pre-check types so the row appends below cannot fail midway (a partial
  // row would break the equal-length column invariant).
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Value& v = tuple[c];
    if (!v.is_null() && columns_[c].type() != ValueType::kNull &&
        columns_[c].type() != v.type()) {
      return Status::TypeError("columnar batch: mixed-type column");
    }
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    Status s = columns_[c].Append(tuple[c]);
    (void)s;  // cannot fail: types pre-checked above
  }
  timestamps_.push_back(ts);
  if (!selection_.empty()) {
    if ((num_rows_ >> 6) == selection_.size()) selection_.push_back(0);
    selection_[num_rows_ >> 6] |= uint64_t{1} << (num_rows_ & 63);
    ++selected_count_;
  }
  ++num_rows_;
  return Status::OK();
}

void ColumnarBatch::MaterialiseSelection() {
  if (!selection_.empty() || num_rows_ == 0) return;
  selection_.assign((num_rows_ + 63) / 64, ~uint64_t{0});
  size_t tail = num_rows_ & 63;
  if (tail != 0) selection_.back() = ~uint64_t{0} >> (64 - tail);
  selected_count_ = num_rows_;
}

void ColumnarBatch::FilterSelection(const Column& keep) {
  if (num_rows_ == 0) return;
  if (keep.type() != ValueType::kBool) {
    // Untyped (all-NULL) predicate column: NULL matches nothing.
    ClearSelection();
    return;
  }
  MaterialiseSelection();
  const uint8_t* vals = keep.bool_data();
  for (size_t w = 0; w < selection_.size(); ++w) {
    if (selection_[w] == 0) continue;
    size_t base = w << 6;
    size_t n = std::min<size_t>(64, num_rows_ - base);
    uint64_t mask = 0;
    if (keep.has_nulls()) {
      for (size_t b = 0; b < n; ++b) {
        if (vals[base + b] != 0 && !keep.IsNull(base + b)) {
          mask |= uint64_t{1} << b;
        }
      }
    } else {
      for (size_t b = 0; b < n; ++b) {
        if (vals[base + b] != 0) mask |= uint64_t{1} << b;
      }
    }
    selection_[w] &= mask;
  }
  selected_count_ = 0;
  for (uint64_t w : selection_) selected_count_ += PopCount(w);
}

void ColumnarBatch::ClearSelection() {
  selection_.assign((num_rows_ + 63) / 64, 0);
  selected_count_ = 0;
  if (selection_.empty()) {
    // Zero rows: nothing to deselect; keep the "all selected" encoding.
    selection_.clear();
  }
}

Timestamp ColumnarBatch::MaxSelectedTimestamp() const {
  Timestamp m = kMinTimestamp;
  if (selection_.empty()) {
    for (Timestamp ts : timestamps_) {
      if (ts > m) m = ts;
    }
    return m;
  }
  for (size_t i = 0; i < num_rows_; ++i) {
    if (IsSelected(i) && timestamps_[i] > m) m = timestamps_[i];
  }
  return m;
}

ColumnarBatch ColumnarBatch::FromColumns(std::vector<Column> columns,
                                         std::vector<Timestamp> timestamps) {
  ColumnarBatch out;
  out.num_rows_ = timestamps.size();
  out.columns_ = std::move(columns);
  out.timestamps_ = std::move(timestamps);
  return out;
}

Result<ColumnarBatch> ColumnarBatch::FromRows(const StreamBatch& rows) {
  ColumnarBatch out;
  out.timestamps_.reserve(rows.num_records());
  for (const StreamElement& e : rows) {
    if (e.is_record()) {
      CQ_RETURN_NOT_OK(out.AppendRow(e.tuple, e.timestamp));
    } else if (e.is_watermark()) {
      out.AppendWatermark(e.timestamp);
    } else {
      // Barriers are runtime punctuation consumed outside operators; batches
      // carrying them stay on the row path.
      return Status::InvalidArgument("columnar batch: in-band barrier");
    }
  }
  out.trace_ = rows.trace();
  out.enqueue_ns_ = rows.enqueue_ns();
  return out;
}

StreamBatch ColumnarBatch::ToRows() const {
  StreamBatch out;
  out.reserve(SelectedCount() + watermarks_.size());
  size_t k = 0;
  for (size_t i = 0; i < num_rows_; ++i) {
    while (k < watermarks_.size() && watermarks_[k].pos <= i) {
      out.AddWatermark(watermarks_[k].ts);
      ++k;
    }
    if (IsSelected(i)) out.AddRecord(RowAt(i), timestamps_[i]);
  }
  while (k < watermarks_.size()) {
    out.AddWatermark(watermarks_[k].ts);
    ++k;
  }
  out.set_trace(trace_);
  out.set_enqueue_ns(enqueue_ns_);
  return out;
}

void ColumnarBatch::AppendRowsTo(std::vector<StreamElement>* out,
                                 size_t begin, size_t end) const {
  for (size_t i = begin; i < end; ++i) {
    if (IsSelected(i)) {
      out->push_back(StreamElement::Record(RowAt(i), timestamps_[i]));
    }
  }
}

Status ColumnarBatch::AppendGathered(const ColumnarBatch& src,
                                     const std::vector<uint64_t>& take) {
  if (num_rows_ == 0 && columns_.empty()) columns_.resize(src.num_columns());
  if (src.num_columns() != columns_.size()) {
    return Status::TypeError("columnar gather: arity mismatch");
  }
  // Pre-check types so the typed appends below cannot fail midway (same
  // invariant-protection as AppendRow).
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ValueType st = src.columns_[c].type();
    const ValueType dt = columns_[c].type();
    if (st != ValueType::kNull && dt != ValueType::kNull && st != dt) {
      return Status::TypeError("columnar gather: mixed-type column");
    }
  }
  for (size_t w = 0; w < take.size(); ++w) {
    uint64_t bits = take[w];
    while (bits != 0) {
      const size_t i = (w << 6) + static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (i >= src.num_rows_) break;
      for (size_t c = 0; c < columns_.size(); ++c) {
        columns_[c].AppendFrom(src.columns_[c], i);
      }
      timestamps_.push_back(src.timestamps_[i]);
      if (!selection_.empty()) {
        if ((num_rows_ >> 6) == selection_.size()) selection_.push_back(0);
        selection_[num_rows_ >> 6] |= uint64_t{1} << (num_rows_ & 63);
        ++selected_count_;
      }
      ++num_rows_;
    }
  }
  return Status::OK();
}

Tuple ColumnarBatch::RowAt(size_t i) const {
  return TupleAt(columns_, columns_.size(), i);
}

size_t ColumnarBatch::ApproxBytes() const {
  size_t bytes = timestamps_.size() * sizeof(Timestamp) +
                 selection_.size() * sizeof(uint64_t) +
                 watermarks_.size() * sizeof(WatermarkMark);
  for (const Column& col : columns_) bytes += col.ApproxBytes();
  return bytes;
}

}  // namespace cq
