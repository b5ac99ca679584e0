#ifndef CQ_DATAFLOW_JOIN_OPERATOR_H_
#define CQ_DATAFLOW_JOIN_OPERATOR_H_

/// \file join_operator.h
/// \brief Streaming interval equi-join: the two-input stateful operator.
///
/// Joins two keyed streams: elements a (left) and b (right) with equal join
/// keys match when |ts(a) - ts(b)| <= bound. Implemented as a symmetric hash
/// join — each side probes the other's buffered elements and then buffers
/// itself; watermark progress evicts elements that can no longer match
/// (bounded state over unbounded streams, §4). This is also the execution
/// strategy for CQL's windowed joins: a join over two [Range w] windows is
/// the interval join with bound w.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cql/expr.h"
#include "dataflow/operator.h"

namespace cq {

struct StreamJoinConfig {
  std::vector<size_t> left_keys;
  std::vector<size_t> right_keys;
  /// Max |timestamp difference| for a pair to join.
  Duration time_bound = 0;
  /// Optional residual predicate over the concatenated (left, right) tuple.
  ExprPtr residual;
};

class StreamJoinOperator : public Operator {
 public:
  StreamJoinOperator(std::string name, StreamJoinConfig config);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  /// \brief Columnar kernel: probe keys encode straight from column
  /// storage; a row's tuple is materialised lazily, only once it actually
  /// matches a buffered candidate within the time bound (plus once to
  /// buffer it). Emission order matches per-element delivery exactly.
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kConsume;
  }
  bool CanProcessColumnar(const std::vector<ValueType>&,
                          std::vector<ValueType>*) const override {
    // Key-index arity is port-specific; checked in the kernel (which can
    // still decline via *handled = false).
    return true;
  }
  Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext& ctx, Collector* out,
                                bool* handled) override;

  Result<std::string> SnapshotState() const override;
  Status RestoreState(std::string_view snapshot) override;
  size_t StateSize() const override;
  size_t StateBytesApprox() const override;

  /// Both inputs must be co-partitioned: matches exist only between rows
  /// whose join-key bytes are equal, so hashing each side by its own key
  /// columns lands every potential pair on the same shard.
  std::vector<size_t> PartitionKeyColumns(size_t port) const override {
    return port == 0 ? config_.left_keys : config_.right_keys;
  }

 private:
  struct BufferedElement {
    Tuple tuple;
    Timestamp ts;
  };
  // key bytes -> time-ordered buffer (append order == ts order for in-order
  // streams; eviction tolerates bounded disorder by scanning).
  using SideBuffer = std::map<std::string, std::deque<BufferedElement>>;

  Status Probe(const BufferedElement& elem, const std::string& key,
               bool from_left, const SideBuffer& other, Collector* out);
  void Evict(SideBuffer* side, Timestamp watermark);

  StreamJoinConfig config_;
  SideBuffer left_;
  SideBuffer right_;
};

}  // namespace cq

#endif  // CQ_DATAFLOW_JOIN_OPERATOR_H_
