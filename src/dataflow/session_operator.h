#ifndef CQ_DATAFLOW_SESSION_OPERATOR_H_
#define CQ_DATAFLOW_SESSION_OPERATOR_H_

/// \file session_operator.h
/// \brief Keyed session-window aggregation (paper §4.1.3's richer window
/// variants: data-driven, merging windows).
///
/// Session windows cannot use a stateless assigner: each element opens a
/// proto-window [ts, ts + gap) and overlapping/touching windows merge, so
/// the operator migrates and combines per-session aggregate state on merge.
/// A session closes — and its single result pane is emitted — when the
/// event-time watermark passes its end.
///
/// Output records have schema (key columns..., session_start, session_end,
/// aggregate columns...) with timestamp session_end - 1.

#include <map>
#include <memory>
#include <vector>

#include "cql/r2r.h"
#include "dataflow/operator.h"
#include "window/aggregate.h"
#include "window/window.h"

namespace cq {

struct SessionAggregateConfig {
  /// Two elements belong to the same session when their proto-windows
  /// overlap or touch — i.e. they are at most `gap` apart.
  Duration gap = 0;
  std::vector<size_t> key_indexes;
  std::vector<AggSpec> aggs;
};

class SessionWindowOperator : public Operator {
 public:
  SessionWindowOperator(std::string name, SessionAggregateConfig config);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  Result<std::string> SnapshotState() const override;
  Status RestoreState(std::string_view snapshot) override;
  size_t StateSize() const override;
  size_t StateBytesApprox() const override;
  void AttachMetrics(MetricsRegistry* registry,
                     const LabelSet& labels) override;

  uint64_t dropped_late() const { return dropped_late_; }
  uint64_t sessions_emitted() const { return sessions_emitted_; }
  /// \brief Currently open sessions across all keys.
  size_t open_sessions() const;

 private:
  struct KeyState {
    SessionWindowMerger merger;
    // Session interval -> per-aggregate partials.
    std::map<TimeInterval, std::vector<AggState>> cells;

    explicit KeyState(Duration gap) : merger(gap) {}
  };

  std::vector<AggState> IdentityStates() const;

  SessionAggregateConfig config_;
  std::vector<std::unique_ptr<AggregateFunction>> funcs_;
  std::map<std::string, KeyState> keys_;  // key bytes -> state
  uint64_t dropped_late_ = 0;
  uint64_t sessions_emitted_ = 0;
  Counter* late_drop_counter_ = nullptr;  // set when metrics are attached
};

}  // namespace cq

#endif  // CQ_DATAFLOW_SESSION_OPERATOR_H_
