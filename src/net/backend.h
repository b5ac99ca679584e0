#ifndef CQ_NET_BACKEND_H_
#define CQ_NET_BACKEND_H_

/// \file backend.h
/// \brief ServiceBackend: the front door's view of a query service.
///
/// net::Server speaks one protocol whether it fronts a single QueryService
/// or a ShardedQueryService — the two differ in registration signatures
/// (shard keys), subscription types (SubscriptionPtr vs the merged
/// ShardedSubscription) and inspection plumbing. ServiceBackend flattens
/// both behind the handful of verbs the wire protocol needs; SubscriberFeed
/// is the matching abstraction over "a drainable result feed". The server
/// layer holds these interfaces only, so neither src/service nor src/shard
/// depends on src/net (or vice versa at the type level).

#include <memory>
#include <string>
#include <vector>

#include "service/service.h"
#include "shard/sharded_service.h"

namespace cq::net {

/// \brief One query's drainable output feed (local or shard-merged).
class SubscriberFeed {
 public:
  virtual ~SubscriberFeed() = default;
  /// \brief Non-blocking pop of the next queued batch.
  virtual bool TryPoll(StreamBatch* out) = 0;
  /// \brief Detaches the feed; the sink garbage collects it.
  virtual void Cancel() = 0;
  /// \brief True once the producing query closed the feed (DropQuery).
  virtual bool Closed() const = 0;
  /// \brief Queued batches not yet drained.
  virtual size_t Depth() const = 0;
  virtual uint64_t QueryId() const = 0;
};

/// \brief The service verbs the wire protocol dispatches into.
class ServiceBackend {
 public:
  virtual ~ServiceBackend() = default;

  /// \brief `shard_key` is column indexes into `schema`; must be empty on a
  /// backend without sharding.
  virtual Status RegisterStream(const std::string& name, SchemaPtr schema,
                                std::vector<size_t> shard_key) = 0;
  virtual Result<cq::QueryId> RegisterQuery(const std::string& sql) = 0;
  virtual Status DropQuery(cq::QueryId id) = 0;
  virtual Result<std::unique_ptr<SubscriberFeed>> Subscribe(cq::QueryId id) = 0;
  virtual Status PushRecord(const std::string& stream, Tuple tuple,
                            Timestamp ts) = 0;
  virtual Status PushWatermark(const std::string& stream,
                               Timestamp watermark) = 0;
  /// \brief Pushes a run of `stream`'s records and watermarks in order.
  /// The default pushes element by element through PushRecord and
  /// PushWatermark and stops at the first error; backends override it to
  /// hand the run to their service as one batch.
  virtual Status PushBatch(const std::string& stream, StreamBatch batch);

  virtual Result<SchemaPtr> StreamSchema(const std::string& name) const = 0;
  /// \brief Resident state attributed to one query (tenant quota input).
  virtual Result<size_t> QueryStateBytes(cq::QueryId id) const = 0;
  virtual std::vector<QueryInfo> ListQueries() const = 0;
  virtual size_t NumOperators() const = 0;
  virtual size_t NumActiveQueries() const = 0;
};

/// \brief Backend over one QueryService.
class LocalBackend : public ServiceBackend {
 public:
  explicit LocalBackend(QueryService* svc) : svc_(svc) {}

  Status RegisterStream(const std::string& name, SchemaPtr schema,
                        std::vector<size_t> shard_key) override;
  Result<cq::QueryId> RegisterQuery(const std::string& sql) override;
  Status DropQuery(cq::QueryId id) override;
  Result<std::unique_ptr<SubscriberFeed>> Subscribe(cq::QueryId id) override;
  Status PushRecord(const std::string& stream, Tuple tuple,
                    Timestamp ts) override;
  Status PushWatermark(const std::string& stream, Timestamp watermark) override;
  Status PushBatch(const std::string& stream, StreamBatch batch) override;
  Result<SchemaPtr> StreamSchema(const std::string& name) const override;
  Result<size_t> QueryStateBytes(cq::QueryId id) const override;
  std::vector<QueryInfo> ListQueries() const override;
  size_t NumOperators() const override;
  size_t NumActiveQueries() const override;

 private:
  QueryService* svc_;  // not owned
};

/// \brief Backend over a ShardedQueryService: records route by shard key,
/// subscriptions merge across replicas, inspection reads replica 0 (the
/// registry is asserted identical across replicas).
class ShardedBackend : public ServiceBackend {
 public:
  explicit ShardedBackend(shard::ShardedQueryService* svc) : svc_(svc) {}

  Status RegisterStream(const std::string& name, SchemaPtr schema,
                        std::vector<size_t> shard_key) override;
  Result<cq::QueryId> RegisterQuery(const std::string& sql) override;
  Status DropQuery(cq::QueryId id) override;
  Result<std::unique_ptr<SubscriberFeed>> Subscribe(cq::QueryId id) override;
  Status PushRecord(const std::string& stream, Tuple tuple,
                    Timestamp ts) override;
  Status PushWatermark(const std::string& stream, Timestamp watermark) override;
  Status PushBatch(const std::string& stream, StreamBatch batch) override;
  Result<SchemaPtr> StreamSchema(const std::string& name) const override;
  Result<size_t> QueryStateBytes(cq::QueryId id) const override;
  std::vector<QueryInfo> ListQueries() const override;
  size_t NumOperators() const override;
  size_t NumActiveQueries() const override;

 private:
  shard::ShardedQueryService* svc_;  // not owned
};

}  // namespace cq::net

#endif  // CQ_NET_BACKEND_H_
