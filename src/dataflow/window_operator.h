#ifndef CQ_DATAFLOW_WINDOW_OPERATOR_H_
#define CQ_DATAFLOW_WINDOW_OPERATOR_H_

/// \file window_operator.h
/// \brief Keyed windowed aggregation: GroupByKey + Window + Trigger.
///
/// The Dataflow Model's core stateful primitive (paper §4.1.1): elements are
/// keyed, assigned to event-time windows, accumulated into per-(key, window)
/// aggregate state, and emitted when the window's trigger fires. Supports
/// out-of-order input up to the watermark, allowed lateness with refinement
/// firings, accumulating vs. discarding panes, and pluggable state backends.
///
/// Output records have schema (key columns..., window_start, window_end,
/// aggregate columns...) and timestamp window.end - 1.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cql/r2r.h"
#include "dataflow/operator.h"
#include "dataflow/state.h"
#include "dataflow/trigger.h"
#include "window/aggregate.h"
#include "window/window.h"

namespace cq {

/// \brief Configuration of a WindowedAggregateOperator.
struct WindowedAggregateConfig {
  std::shared_ptr<WindowAssigner> assigner;
  std::vector<size_t> key_indexes;
  std::vector<AggSpec> aggs;
  std::shared_ptr<TriggerFactory> trigger;  // default AfterWatermark
  AccumulationMode accumulation = AccumulationMode::kAccumulating;
  Duration allowed_lateness = 0;
  /// External state backend; nullptr uses an internal in-memory backend.
  KeyedStateBackend* state = nullptr;
};

class WindowedAggregateOperator : public Operator {
 public:
  WindowedAggregateOperator(std::string name, WindowedAggregateConfig config);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;
  Status OnProcessingTime(const OperatorContext& ctx, Collector* out) override;

  /// \brief Columnar kernel: consumes the timestamp column and vectorized
  /// aggregate-input columns directly — group keys are encoded straight
  /// from column storage (no tuple materialisation), aggregate inputs are
  /// evaluated once per batch as typed loops, and cells fold into dense
  /// per-key slots over the tumbling/sliding window grid. It needs a
  /// passive trigger (the default AfterWatermark), a grid assigner, no late
  /// rows, no already-fired cells and a segment whose timestamp spread
  /// fits the slot array; anything else sets *handled = false and the
  /// executor runs the segment through ProcessElement.
  ColumnarSupport columnar_support() const override {
    return ColumnarSupport::kConsume;
  }
  bool CanProcessColumnar(const std::vector<ValueType>& in_types,
                          std::vector<ValueType>* out_types) const override;
  Status ProcessColumnarSegment(size_t port, const ColumnarBatch& batch,
                                size_t begin, size_t end,
                                const OperatorContext& ctx, Collector* out,
                                bool* handled) override;

  Result<std::string> SnapshotState() const override;
  Status RestoreState(std::string_view snapshot) override;
  size_t StateSize() const override { return state_->Size(); }
  size_t StateBytesApprox() const override { return state_->ApproxBytes(); }

  /// State cells are keyed by TupleToBytes(tuple.Project(key_indexes)), so
  /// the operator must see every record of a group key on one shard …
  std::vector<size_t> PartitionKeyColumns(size_t port) const override {
    (void)port;
    return config_.key_indexes;
  }
  /// … and its output schema (key columns..., window bounds, aggregates)
  /// leads with those keys, so emissions stay partitioned by them.
  std::vector<size_t> OutputPartitionColumns() const override {
    std::vector<size_t> cols(config_.key_indexes.size());
    for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
    return cols;
  }
  /// SnapshotState() is exactly state_->Snapshot(): cell images keyed by
  /// the encoded partition-key projection — re-hashable across shard
  /// counts (RestoreState rebuilds the trigger index from the cells).
  bool KeyedStateReshardable() const override { return true; }
  void AttachMetrics(MetricsRegistry* registry,
                     const LabelSet& labels) override;

  /// \brief Elements dropped because they arrived past the allowed lateness.
  uint64_t dropped_late() const { return dropped_late_; }
  /// \brief Total pane firings emitted.
  uint64_t panes_emitted() const { return panes_emitted_; }

 private:
  struct Cell {
    std::vector<AggState> states;
    int64_t since_fire = 0;  // elements accumulated since the last firing
    bool fired = false;      // has this window ever fired?
  };

  std::string WindowNamespace(const TimeInterval& w) const;
  Result<Cell> LoadCell(const std::string& key, const TimeInterval& w) const;
  Status StoreCell(const std::string& key, const TimeInterval& w,
                   const Cell& cell);
  Status HandleTriggerAction(TriggerAction action, const std::string& key,
                             const TimeInterval& w, Collector* out);
  /// Emits the current pane for (key, w); resets per accumulation mode.
  Status FirePane(const std::string& key, const TimeInterval& w,
                  Collector* out, bool purge);
  Trigger* GetOrCreateTrigger(const std::string& key, const TimeInterval& w,
                              bool primed_fired);

  WindowedAggregateConfig config_;
  std::vector<std::unique_ptr<AggregateFunction>> funcs_;
  std::unique_ptr<InMemoryStateBackend> owned_state_;
  KeyedStateBackend* state_;

  // Active (key, window) index ordered by window end for watermark sweeps.
  using ActiveKey = std::tuple<Timestamp /*end*/, Timestamp /*start*/,
                               std::string /*key bytes*/>;
  std::map<ActiveKey, std::unique_ptr<Trigger>> active_;

  uint64_t dropped_late_ = 0;
  uint64_t panes_emitted_ = 0;
  Counter* late_drop_counter_ = nullptr;  // set when metrics are attached
};

}  // namespace cq

#endif  // CQ_DATAFLOW_WINDOW_OPERATOR_H_
