#ifndef CQ_RUNTIME_COLUMNAR_BATCH_H_
#define CQ_RUNTIME_COLUMNAR_BATCH_H_

/// \file columnar_batch.h
/// \brief ColumnarBatch: the columnar unit of exchange (survey §5).
///
/// Where StreamBatch ships rows of Value variants, a ColumnarBatch holds the
/// same run of stream elements decomposed by attribute: one typed Column per
/// tuple position, a parallel timestamp column, and an out-of-band watermark
/// list. Vectorized operator kernels run tight typed loops over the columns
/// instead of per-row std::variant dispatch, and filters narrow the batch by
/// flipping bits in a selection bitmap instead of materialising survivors.
///
/// Layout invariants:
///  - Every column has exactly num_rows() entries; so does timestamps().
///  - The selection bitmap is either empty (all rows selected) or holds one
///    bit per row (bit = 1 -> selected). Rows are never physically removed
///    by filtering, so row indexes — and the watermark positions below —
///    stay stable across kernels.
///  - Watermarks are out-of-band marks {pos, ts}: the watermark precedes the
///    row at index `pos` (pos == num_rows() -> after the last row). Marks
///    are ordered by pos, insertion order preserved within equal pos, so
///    ToRows() reproduces the original record/watermark interleaving.
///
/// Conversion is lossless in both directions for batches of fixed-arity,
/// consistently-typed records; FromRows() fails (and the caller stays on the
/// row path) for ragged arity, mixed-type columns, or in-band barriers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "obs/trace.h"
#include "runtime/batch.h"
#include "types/column.h"
#include "types/tuple.h"

namespace cq {

/// \brief An out-of-band watermark: precedes the row at index `pos`.
struct WatermarkMark {
  uint32_t pos = 0;
  Timestamp ts = 0;
};

/// \brief A run of stream elements in columnar layout.
class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool empty() const { return num_rows_ == 0 && watermarks_.empty(); }

  const Column& column(size_t c) const { return columns_[c]; }
  Column* mutable_column(size_t c) { return &columns_[c]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// \brief Swaps in a new column set (projection / expression kernels).
  /// Precondition: every new column has exactly num_rows() entries.
  void ReplaceColumns(std::vector<Column> cols);

  Timestamp timestamp(size_t i) const { return timestamps_[i]; }
  const std::vector<Timestamp>& timestamps() const { return timestamps_; }

  /// \brief Appends a record row. The first row fixes the batch arity;
  /// later rows must match it and per-column types (TypeError otherwise —
  /// the appender is expected to fall back to the row path).
  Status AppendRow(const Tuple& tuple, Timestamp ts);

  /// \brief Appends a watermark positioned after all rows appended so far.
  void AppendWatermark(Timestamp ts) {
    watermarks_.push_back({static_cast<uint32_t>(num_rows_), ts});
  }

  /// \brief Appends a watermark at an explicit row position (exchange
  /// split: the producer computes each shard's mark position from prefix
  /// counts). Preconditions: pos <= num_rows() and positions non-decreasing
  /// across calls — the mark-ordering invariant above.
  void AddWatermarkMark(uint32_t pos, Timestamp ts) {
    watermarks_.push_back({pos, ts});
  }

  /// \brief Gathers rows of `src` whose bit is set in `take` (one bit per
  /// src row, little-endian like the selection bitmap) onto the end of this
  /// batch: typed column-to-column copies plus the timestamp column — no
  /// Tuple is ever materialised. The destination must be empty or have
  /// matching arity and column types; src watermarks and selection are NOT
  /// carried over (the exchange broadcasts marks itself and `take` already
  /// folds selection in). TypeError on arity/type mismatch.
  Status AppendGathered(const ColumnarBatch& src,
                        const std::vector<uint64_t>& take);

  const std::vector<WatermarkMark>& watermarks() const { return watermarks_; }

  // --- Selection bitmap -----------------------------------------------

  /// \brief Whether a (possibly narrowing) selection bitmap exists. When
  /// false, every row is selected and kernels can skip per-row checks.
  bool has_selection() const { return !selection_.empty(); }
  bool IsSelected(size_t i) const {
    return selection_.empty() ||
           ((selection_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// \brief Number of selected rows (O(1); cached).
  size_t SelectedCount() const {
    return selection_.empty() ? num_rows_ : selected_count_;
  }

  /// \brief Narrows the selection: row i stays selected iff it was selected
  /// and `keep` is non-null true at i (filter kernel output). `keep` must
  /// have num_rows() entries and be of bool type — or untyped/all-null, in
  /// which case every row is deselected (NULL predicate -> no match).
  void FilterSelection(const Column& keep);

  /// \brief Deselects every row (watermarks still flow).
  void ClearSelection();

  /// \brief Largest selected-row timestamp (kMinTimestamp if none) — the
  /// columnar analogue of StreamBatch::MaxTimestamp().
  Timestamp MaxSelectedTimestamp() const;

  // --- Row interop -----------------------------------------------------

  /// \brief A record run from whole columns: row i is column values i at
  /// `timestamps[i]`, all selected, no watermarks. Precondition: every
  /// column has timestamps.size() entries.
  static ColumnarBatch FromColumns(std::vector<Column> columns,
                                   std::vector<Timestamp> timestamps);

  /// \brief Converts a row batch. Fails (TypeError / InvalidArgument) on
  /// ragged arity, mixed-type columns, or in-band barriers; the caller then
  /// keeps the original row batch on the fallback path.
  static Result<ColumnarBatch> FromRows(const StreamBatch& rows);

  /// \brief Materialises the batch back to rows: selected records and
  /// watermarks in their original interleaving. Lossless inverse of
  /// FromRows() for all-selected batches.
  StreamBatch ToRows() const;

  /// \brief Appends the selected records of row range [begin, end) to `out`
  /// (no watermarks) — used by consume-kernel fallbacks that re-materialise
  /// one watermark-delimited segment.
  void AppendRowsTo(std::vector<StreamElement>* out, size_t begin,
                    size_t end) const;

  /// \brief Materialises row `i` as a Tuple.
  Tuple RowAt(size_t i) const;

  // --- Bookkeeping (mirrors StreamBatch) -------------------------------

  const TraceContext& trace() const { return trace_; }
  void set_trace(const TraceContext& trace) { trace_ = trace; }
  int64_t enqueue_ns() const { return enqueue_ns_; }
  void set_enqueue_ns(int64_t ns) { enqueue_ns_ = ns; }

  size_t ApproxBytes() const;

 private:
  /// Materialises the implicit all-selected bitmap so bits can be cleared.
  void MaterialiseSelection();

  std::vector<Column> columns_;
  std::vector<Timestamp> timestamps_;
  std::vector<uint64_t> selection_;  // empty -> all selected; bit=1 selected
  size_t selected_count_ = 0;        // valid only when !selection_.empty()
  size_t num_rows_ = 0;
  std::vector<WatermarkMark> watermarks_;
  TraceContext trace_;
  int64_t enqueue_ns_ = 0;
};

}  // namespace cq

#endif  // CQ_RUNTIME_COLUMNAR_BATCH_H_
