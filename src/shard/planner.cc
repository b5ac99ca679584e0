#include "shard/planner.h"

#include <optional>

namespace cq::shard {
namespace {

/// Partitioning of one stream edge: nullopt = unknown/unpartitioned.
using Partitioning = std::optional<std::vector<size_t>>;

/// Partitioning of `op`'s output given the partitioning of its (single)
/// input after any exchange the planner placed.
Partitioning Propagate(const Operator& op, const Partitioning& input) {
  std::vector<size_t> guaranteed = op.OutputPartitionColumns();
  if (!guaranteed.empty()) return guaranteed;
  if (op.PreservesPartitioning()) return input;
  return std::nullopt;
}

bool Satisfies(const Partitioning& have, const std::vector<size_t>& need) {
  return have.has_value() && *have == need;
}

}  // namespace

Result<std::vector<ChainStage>> ShardPlanner::PlanChain(
    const std::vector<const Operator*>& ops,
    const std::vector<size_t>& ingest_key) {
  if (ops.empty()) return Status::InvalidArgument("empty operator chain");
  for (const Operator* op : ops) {
    if (op->num_input_ports() > 1) {
      return Status::PlanError(
          "operator '" + op->name() +
          "' has multiple input ports; sharded chains are linear "
          "(shard DAG plans through the service replica path)");
    }
  }

  std::vector<ChainStage> stages;
  stages.push_back({0, 0, ingest_key});
  Partitioning current;
  if (!ingest_key.empty()) current = ingest_key;
  // While the ingest key is still undecided, a key requirement found behind
  // partition-preserving (record-wise) operators is hoisted to the ingest
  // split instead of costing an exchange.
  bool ingest_open = ingest_key.empty();

  for (size_t i = 0; i < ops.size(); ++i) {
    const Operator& op = *ops[i];
    std::vector<size_t> need = op.PartitionKeyColumns(0);
    if (!need.empty() && !Satisfies(current, need)) {
      if (ingest_open || i == 0) {
        // Nothing runs before this op yet: re-key the ingest split rather
        // than paying an exchange into an empty first stage.
        stages.front().partition_key = need;
      } else {
        stages.back().end = i;
        stages.push_back({i, 0, need});
      }
      current = need;
    }
    if (ingest_open && !op.PreservesPartitioning()) ingest_open = false;
    current = Propagate(op, current);
  }
  stages.back().end = ops.size();
  return stages;
}

}  // namespace cq::shard
