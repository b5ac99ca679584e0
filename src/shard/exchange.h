#ifndef CQ_SHARD_EXCHANGE_H_
#define CQ_SHARD_EXCHANGE_H_

/// \file exchange.h
/// \brief Hash exchange: batch splitting at repartition boundaries.
///
/// An exchange sits where a stream's current partitioning stops satisfying
/// the next operator's key requirement. It splits each batch by key hash
/// into one sub-batch per shard and ships them over the credit-based
/// Channels of the sharded pipeline. Two paths:
///
///  - Row path: records are routed tuple-by-tuple (the fallback that works
///    for every batch shape).
///  - Columnar path: a per-shard selection bitmap is built in one hash pass
///    over the key columns (Column::EncodeValueAt — no Tuple is ever
///    materialised), then each shard's rows are gathered column-to-column
///    into a dense ColumnarBatch that crosses the channel as a payload
///    envelope (StreamBatch::columnar()).
///
/// Watermark contract (the ordering fix this subsystem ships with): a
/// watermark entering an exchange is BROADCAST to every shard — a shard
/// that receives none of the preceding records must still learn that event
/// time advanced, or its windows never close. The receiving side holds one
/// watermark per producer and forwards only the minimum (min-merge), so a
/// fast producer can never advance a consumer's clock past records still
/// in flight from a slow one. Barriers broadcast the same way.

#include <memory>
#include <string>
#include <vector>

#include "dataflow/operator.h"
#include "runtime/batch.h"
#include "runtime/columnar_batch.h"
#include "shard/partitioner.h"

namespace cq::shard {

/// \brief Splits a row batch: records routed by key hash, watermarks and
/// barriers broadcast to every shard. Output order per shard preserves the
/// input interleaving. Records move out of `in` when it is the sole owner
/// of its rows.
std::vector<StreamBatch> SplitRowBatch(StreamBatch in,
                                       const ShardPartitioner& part);

/// \brief Splits a columnar batch: one hash pass assigns every selected row
/// to a shard bitmap, one gather per shard densifies its rows (typed
/// column-to-column copies, no row materialisation), and every watermark
/// mark is broadcast into each shard's batch at the position its prefix of
/// rows maps to. TypeError only if a gather hits a malformed batch.
Result<std::vector<ColumnarBatch>> SplitColumnarBatch(
    const ColumnarBatch& in, const ShardPartitioner& part);

/// \brief The in-graph repartition operator: tail node of every non-final
/// stage of a ShardedPipeline. It buffers its input — routed row batches
/// and gathered columnar batches per target shard, watermarks broadcast —
/// and the owning stage worker drains the buffered ship units into the next
/// stage's channels after every push (TakePending). The buffers are
/// transient routing state, never operator state: they are always drained
/// before a snapshot is taken, so the operator checkpoints as stateless.
class HashExchangeOperator : public Operator {
 public:
  HashExchangeOperator(std::string name, ShardPartitioner part);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  // Columnar path: consume segments straight into per-target gathers.
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kConsume;
  }
  bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                          std::vector<ValueType>* out_types) const override;
  Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext& ctx, Collector* out,
                                bool* handled) override;

  /// \brief Moves the ordered ship units buffered for `target` (row batches
  /// and columnar payload envelopes, in stream order). Called by the stage
  /// worker after each push and at barrier/finish flush points.
  std::vector<StreamBatch> TakePending(size_t target);

  size_t nshards() const { return part_.nshards(); }
  const ShardPartitioner& partitioner() const { return part_; }

 private:
  /// Seals the open columnar gather of `target` into a payload envelope.
  void SealColumnar(size_t target);
  /// Seals the open row builder of `target`.
  void SealRows(size_t target);

  ShardPartitioner part_;
  struct TargetBuffer {
    std::vector<StreamBatch> ready;        // sealed ship units, in order
    StreamBatch rows;                      // open row builder
    std::shared_ptr<ColumnarBatch> cols;   // open columnar gather (or null)
  };
  std::vector<TargetBuffer> targets_;
  std::string scratch_;  // key-bytes buffer reused across rows
};

}  // namespace cq::shard

#endif  // CQ_SHARD_EXCHANGE_H_
