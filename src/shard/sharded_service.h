#ifndef CQ_SHARD_SHARDED_SERVICE_H_
#define CQ_SHARD_SHARDED_SERVICE_H_

/// \file sharded_service.h
/// \brief ShardedQueryService: the service graph scaled out by key hash.
///
/// N full QueryService replicas, each owning the shard of every stream's
/// key space that hashes to it. Queries register on all replicas (same SQL,
/// same deterministic QueryId, shared-subplan fingerprints unchanged —
/// refcounts are per logical node and must agree across replicas); records
/// route to the replica owning their stream's shard key; watermarks
/// broadcast. This is sound only when every query's result decomposes by
/// the shard key, so registration validates: on >1 shards, an aggregate
/// query over a stream with a non-empty shard key must GROUP BY (at least)
/// that key, and multi-stream queries over sharded streams are rejected —
/// cross-key plans belong on one shard (empty shard key) or on a
/// ShardedPipeline with explicit exchanges.
///
/// Durability: slot 0 is a meta blob (shard count + per-stream keys), then
/// one blob-list slot per replica. The shard count must match on restore;
/// pipeline-level N->M re-shard (ShardedPipeline::RestoreSlots) is the
/// re-scaling path. Barrier checkpoints fan in 1 + N slots: the meta slot
/// reported synchronously by InjectBarrier, then each replica's aligned
/// snapshot (the replica's service lock is its alignment point).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ft/checkpointable.h"
#include "service/service.h"
#include "shard/partitioner.h"

namespace cq::shard {

/// \brief Merged view over one query's per-replica subscriptions. Poll
/// order across replicas is arrival order, not global timestamp order —
/// collect and sort when comparing against unsharded output.
class ShardedSubscription {
 public:
  explicit ShardedSubscription(std::vector<SubscriptionPtr> subs)
      : subs_(std::move(subs)) {}

  /// \brief Blocking round-robin poll; false once every replica
  /// subscription is closed and drained.
  bool Poll(StreamBatch* out);

  /// \brief Non-blocking round-robin poll.
  bool TryPoll(StreamBatch* out);

  void Cancel();

  uint64_t query_id() const {
    return subs_.empty() ? 0 : subs_[0]->query_id();
  }
  size_t num_replicas() const { return subs_.size(); }
  const SubscriptionPtr& replica(size_t i) const { return subs_[i]; }

 private:
  std::vector<SubscriptionPtr> subs_;
  size_t cursor_ = 0;
};

using ShardedSubscriptionPtr = std::shared_ptr<ShardedSubscription>;

class ShardedQueryService : public ft::Checkpointable,
                            public ft::BarrierInjectable {
 public:
  /// \brief `config` applies to every replica. With config.metrics set the
  /// replicas share the registry (per-node instruments aggregate across
  /// shards) and the service exports cq_shard_records_total{shard=i}.
  explicit ShardedQueryService(size_t nshards, ServiceConfig config = {});

  /// \brief Registers `name` on every replica. `shard_key` (column indexes
  /// into `schema`) partitions the stream's records across replicas; empty
  /// pins the whole stream to shard 0, making any query shape valid.
  Status RegisterStream(const std::string& name, SchemaPtr schema,
                        std::vector<size_t> shard_key);

  /// \brief Validates `sql` against the shard keys (see file comment),
  /// then registers it on every replica; replica QueryIds are asserted
  /// identical and the common id is returned.
  Result<QueryId> RegisterQuery(const std::string& sql);

  Status DropQuery(QueryId id);

  /// \brief Subscribes on every replica; returns the merged feed.
  Result<ShardedSubscriptionPtr> Subscribe(QueryId id);

  Status PushRecord(const std::string& stream, Tuple tuple, Timestamp ts);
  Status PushWatermark(const std::string& stream, Timestamp watermark);
  /// \brief Splits the batch with the stream's partitioner (records routed,
  /// watermarks broadcast) and pushes each replica's slice. Records move
  /// into the slices when `batch` is the sole owner of its rows.
  Status PushBatch(const std::string& stream, StreamBatch batch);

  // --- ft::Checkpointable -------------------------------------------------

  Result<std::vector<std::string>> SnapshotSlots() override;
  Status RestoreSlots(const std::vector<std::string>& slots) override;

  // --- ft::BarrierInjectable ----------------------------------------------

  void SetBarrierHandler(ft::BarrierInjectable::BarrierHandler handler) override;
  Status InjectBarrier(uint64_t epoch) override;
  size_t BarrierFanIn() const override { return 1 + nshards_; }

  // --- inspection ---------------------------------------------------------

  size_t nshards() const { return nshards_; }
  QueryService* replica(size_t i) { return replicas_[i].get(); }
  size_t NumActiveQueries() const {
    return replicas_[0]->NumActiveQueries();
  }
  /// \brief Replica 0's refcounts (tests assert replica agreement).
  std::map<std::string, size_t> SharedRefCounts() const {
    return replicas_[0]->SharedRefCounts();
  }
  /// \brief Records routed to shard `i` so far.
  uint64_t records_routed(size_t shard) const { return routed_[shard]; }

  /// \brief Query state attributed across all replicas (the per-tenant
  /// quota measurement: a query registers on every replica, so its resident
  /// footprint is the sum of the per-replica footprints).
  Result<size_t> QueryStateBytes(QueryId id) const {
    size_t total = 0;
    for (const auto& replica : replicas_) {
      CQ_ASSIGN_OR_RETURN(size_t bytes, replica->QueryStateBytes(id));
      total += bytes;
    }
    return total;
  }

 private:
  struct StreamInfo {
    SchemaPtr schema;
    std::vector<size_t> shard_key;
    ShardPartitioner partitioner;
  };

  Status ValidateQueryShape(const std::string& sql) const;
  std::string EncodeMetaSlot() const;
  Result<const StreamInfo*> FindStream(const std::string& name) const;

  size_t nshards_;
  std::vector<std::unique_ptr<QueryService>> replicas_;
  std::map<std::string, StreamInfo> streams_;
  ft::BarrierInjectable::BarrierHandler barrier_handler_;
  std::vector<uint64_t> routed_;
  std::vector<Counter*> shard_records_;  // with config.metrics only
};

}  // namespace cq::shard

#endif  // CQ_SHARD_SHARDED_SERVICE_H_
