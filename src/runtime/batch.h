#ifndef CQ_RUNTIME_BATCH_H_
#define CQ_RUNTIME_BATCH_H_

/// \file batch.h
/// \brief StreamBatch: the unit of exchange in the unified runtime core.
///
/// Modern engines moved from element-at-a-time shipping to batched exchange
/// (Fragkoulis et al.): a producer accumulates elements into a batch and the
/// batch travels as one unit through channels and operator hooks, amortising
/// queue synchronisation and virtual dispatch over many elements. A
/// StreamBatch is an ordered run of stream elements — records interleaved
/// with the watermarks that were current when they were produced — so
/// delivering a batch element-by-element and delivering it as a batch are
/// observably equivalent for linear pipelines.

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/trace.h"
#include "stream/stream.h"

namespace cq {

class ColumnarBatch;

/// \brief An ordered run of stream elements exchanged as one unit.
///
/// The rows live behind a shared_ptr, so copying a batch is a refcount bump:
/// a result fanned out to N subscriptions is one payload with N handles. The
/// first write through a handle whose payload is shared copies it (copy on
/// write); siblings never observe the change. Per-handle bookkeeping (trace,
/// enqueue stamp, cached record count) is not shared.
class StreamBatch {
 public:
  StreamBatch() = default;
  explicit StreamBatch(std::vector<StreamElement> elements)
      : rows_(std::make_shared<std::vector<StreamElement>>(
            std::move(elements))),
        cache_dirty_(true) {}

  void AddRecord(Tuple tuple, Timestamp ts) {
    ++num_records_;
    if (ts > max_ts_) max_ts_ = ts;
    MutableRows().push_back(StreamElement::Record(std::move(tuple), ts));
  }
  void AddWatermark(Timestamp ts) {
    MutableRows().push_back(StreamElement::Watermark(ts));
  }
  void Add(StreamElement element) {
    if (element.is_record()) {
      ++num_records_;
      if (element.timestamp > max_ts_) max_ts_ = element.timestamp;
    }
    MutableRows().push_back(std::move(element));
  }

  size_t size() const { return elements().size(); }
  bool empty() const { return elements().empty() && columnar_ == nullptr; }
  /// \brief Empties this handle. A shared payload is released, not
  /// cleared, so its siblings keep their rows.
  void clear() {
    rows_.reset();
    columnar_.reset();
    trace_ = TraceContext();
    enqueue_ns_ = 0;
    num_records_ = 0;
    max_ts_ = kMinTimestamp;
    cache_dirty_ = false;
  }
  void reserve(size_t n) { MutableRows().reserve(n); }

  /// \brief Moves the rows out and empties this handle. A payload shared
  /// with other handles is copied first, so its siblings keep their rows.
  std::vector<StreamElement> TakeElements() {
    std::vector<StreamElement> out;
    if (rows_ != nullptr) out = std::move(MutableRows());
    clear();
    return out;
  }

  const StreamElement& at(size_t i) const { return elements()[i]; }
  const StreamElement& operator[](size_t i) const { return elements()[i]; }

  auto begin() const { return elements().begin(); }
  auto end() const { return elements().end(); }

  const std::vector<StreamElement>& elements() const {
    return rows_ != nullptr ? *rows_ : EmptyRows();
  }

  /// \brief Number of data records (excludes watermarks). O(1): maintained
  /// on Add* and computed once, lazily, for a batch built from a vector —
  /// call it before copying such a batch so the copies inherit the count.
  size_t num_records() const {
    if (cache_dirty_) RecomputeCache();
    return num_records_;
  }

  /// \brief Largest record timestamp in the batch (kMinTimestamp if none).
  /// O(1) like num_records().
  Timestamp MaxTimestamp() const {
    if (cache_dirty_) RecomputeCache();
    return max_ts_;
  }

  /// \brief Sampled trace context stamped at the ingest edge (default:
  /// unsampled). Travels with the batch through channels and workers so
  /// spans recorded downstream join the batch's trace tree.
  const TraceContext& trace() const { return trace_; }
  void set_trace(const TraceContext& trace) { trace_ = trace; }

  /// \brief Channel bookkeeping: when the batch was enqueued (0 = never),
  /// stamped by Channel on push and consumed for the queue-wait histogram
  /// and queue spans on pop.
  int64_t enqueue_ns() const { return enqueue_ns_; }
  void set_enqueue_ns(int64_t ns) { enqueue_ns_ = ns; }

  /// \brief Optional columnar payload: a batch that travels through a
  /// Channel still in columnar layout (hash-exchange envelopes). A payload
  /// batch carries no row elements — producers ship either rows or a
  /// payload, never both — and the consumer hands the payload straight to
  /// PushColumnar, so columns cross the exchange without re-materialising
  /// rows. Channels treat the envelope as one opaque unit.
  const std::shared_ptr<ColumnarBatch>& columnar() const { return columnar_; }
  void set_columnar(std::shared_ptr<ColumnarBatch> payload) {
    columnar_ = std::move(payload);
  }

 private:
  void RecomputeCache() const {
    num_records_ = 0;
    max_ts_ = kMinTimestamp;
    for (const auto& e : elements()) {
      if (e.is_record()) {
        ++num_records_;
        if (e.timestamp > max_ts_) max_ts_ = e.timestamp;
      }
    }
    cache_dirty_ = false;
  }

  static const std::vector<StreamElement>& EmptyRows() {
    static const std::vector<StreamElement> kEmpty;
    return kEmpty;
  }

  /// The payload to append to: allocated on first write, copied first when
  /// another handle shares it.
  std::vector<StreamElement>& MutableRows() {
    if (rows_ == nullptr) {
      rows_ = std::make_shared<std::vector<StreamElement>>();
    } else if (rows_.use_count() != 1) {
      rows_ = std::make_shared<std::vector<StreamElement>>(*rows_);
    } else {
      // Sole owner. A sibling released on another thread did so with an
      // acq_rel decrement; the count load above is relaxed, so this fence
      // orders that thread's reads before the writes that follow.
      // ThreadSanitizer does not model fences, so its build omits it.
#if !defined(__SANITIZE_THREAD__)
      std::atomic_thread_fence(std::memory_order_acquire);
#endif
    }
    return *rows_;
  }

  std::shared_ptr<std::vector<StreamElement>> rows_;  // null = no rows
  std::shared_ptr<ColumnarBatch> columnar_;  // exchange envelope (or null)
  TraceContext trace_;
  int64_t enqueue_ns_ = 0;
  mutable size_t num_records_ = 0;
  mutable Timestamp max_ts_ = kMinTimestamp;
  mutable bool cache_dirty_ = false;
};

}  // namespace cq

#endif  // CQ_RUNTIME_BATCH_H_
