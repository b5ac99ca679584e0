#ifndef CQ_SHARD_PLANNER_H_
#define CQ_SHARD_PLANNER_H_

/// \file planner.h
/// \brief ShardPlanner: decides where exchanges go.
///
/// PlanChain walks a linear operator chain tracking how each edge's stream
/// is currently partitioned, and places a hash exchange on every edge whose
/// partitioning does not satisfy the consuming operator's key requirement
/// (Operator::PartitionKeyColumns). Partitioning is propagated through
/// operators via two more hooks: PreservesPartitioning (record-wise,
/// schema-preserving operators pass partitioning through) and
/// OutputPartitionColumns (keyed operators guarantee their output leads
/// with the group key). Everything else conservatively destroys
/// partitioning, which can only add exchanges, never miss one. The result
/// is the executable stage list a ShardedPipeline runs — stage boundaries
/// are exactly the exchange placements.

#include <vector>

#include "common/status.h"
#include "dataflow/operator.h"

namespace cq::shard {

/// \brief One executable stage of a sharded chain: ops [begin, end) of the
/// logical chain, entered partitioned by `partition_key` (empty for an
/// unkeyed single-stage plan).
struct ChainStage {
  size_t begin = 0;
  size_t end = 0;
  std::vector<size_t> partition_key;
};

class ShardPlanner {
 public:
  /// \brief Cuts a linear operator chain into stages. `ingest_key` is the
  /// partitioning the producer splits by at ingest; when empty, the first
  /// key requirement reachable through partition-preserving operators is
  /// hoisted to the ingest split (splitting before a record-wise filter is
  /// equivalent to splitting after it, and saves an exchange). Operators
  /// with more than one input port are rejected — DAG-shaped plans shard
  /// through the service's replica path instead.
  static Result<std::vector<ChainStage>> PlanChain(
      const std::vector<const Operator*>& ops,
      const std::vector<size_t>& ingest_key);
};

}  // namespace cq::shard

#endif  // CQ_SHARD_PLANNER_H_
