#include "net/backend.h"

namespace cq::net {

namespace {

/// SubscriberFeed over a single-service subscription.
class LocalFeed : public SubscriberFeed {
 public:
  explicit LocalFeed(SubscriptionPtr sub) : sub_(std::move(sub)) {}
  bool TryPoll(StreamBatch* out) override { return sub_->TryPoll(out); }
  void Cancel() override { sub_->Cancel(); }
  bool Closed() const override { return sub_->closed(); }
  size_t Depth() const override { return sub_->depth(); }
  uint64_t QueryId() const override { return sub_->query_id(); }

 private:
  SubscriptionPtr sub_;
};

/// SubscriberFeed over a shard-merged subscription.
class ShardedFeed : public SubscriberFeed {
 public:
  explicit ShardedFeed(shard::ShardedSubscriptionPtr sub)
      : sub_(std::move(sub)) {}
  bool TryPoll(StreamBatch* out) override { return sub_->TryPoll(out); }
  void Cancel() override { sub_->Cancel(); }
  bool Closed() const override {
    for (size_t i = 0; i < sub_->num_replicas(); ++i) {
      if (!sub_->replica(i)->closed()) return false;
    }
    return true;
  }
  size_t Depth() const override {
    size_t total = 0;
    for (size_t i = 0; i < sub_->num_replicas(); ++i) {
      total += sub_->replica(i)->depth();
    }
    return total;
  }
  uint64_t QueryId() const override { return sub_->query_id(); }

 private:
  shard::ShardedSubscriptionPtr sub_;
};

}  // namespace

Status ServiceBackend::PushBatch(const std::string& stream, StreamBatch batch) {
  for (StreamElement& e : batch.TakeElements()) {
    CQ_RETURN_NOT_OK(e.is_watermark()
                         ? PushWatermark(stream, e.timestamp)
                         : PushRecord(stream, std::move(e.tuple), e.timestamp));
  }
  return Status::OK();
}

// --- LocalBackend -----------------------------------------------------------

Status LocalBackend::RegisterStream(const std::string& name, SchemaPtr schema,
                                    std::vector<size_t> shard_key) {
  if (!shard_key.empty()) {
    return Status::InvalidArgument(
        "stream '" + name +
        "' declares a shard key but the server runs unsharded (use --shards)");
  }
  return svc_->RegisterStream(name, std::move(schema));
}

Result<cq::QueryId> LocalBackend::RegisterQuery(const std::string& sql) {
  return svc_->RegisterQuery(sql);
}

Status LocalBackend::DropQuery(cq::QueryId id) { return svc_->DropQuery(id); }

Result<std::unique_ptr<SubscriberFeed>> LocalBackend::Subscribe(
    cq::QueryId id) {
  CQ_ASSIGN_OR_RETURN(SubscriptionPtr sub, svc_->Subscribe(id));
  return std::unique_ptr<SubscriberFeed>(new LocalFeed(std::move(sub)));
}

Status LocalBackend::PushRecord(const std::string& stream, Tuple tuple,
                                Timestamp ts) {
  return svc_->PushRecord(stream, std::move(tuple), ts);
}

Status LocalBackend::PushWatermark(const std::string& stream,
                                   Timestamp watermark) {
  return svc_->PushWatermark(stream, watermark);
}

Status LocalBackend::PushBatch(const std::string& stream, StreamBatch batch) {
  return svc_->PushBatch(stream, batch);
}

Result<SchemaPtr> LocalBackend::StreamSchema(const std::string& name) const {
  return svc_->catalog().GetStream(name);
}

Result<size_t> LocalBackend::QueryStateBytes(cq::QueryId id) const {
  return svc_->QueryStateBytes(id);
}

std::vector<QueryInfo> LocalBackend::ListQueries() const {
  return svc_->ListQueries();
}

size_t LocalBackend::NumOperators() const { return svc_->NumOperators(); }

size_t LocalBackend::NumActiveQueries() const {
  return svc_->NumActiveQueries();
}

// --- ShardedBackend ---------------------------------------------------------

Status ShardedBackend::RegisterStream(const std::string& name, SchemaPtr schema,
                                      std::vector<size_t> shard_key) {
  return svc_->RegisterStream(name, std::move(schema), std::move(shard_key));
}

Result<cq::QueryId> ShardedBackend::RegisterQuery(const std::string& sql) {
  return svc_->RegisterQuery(sql);
}

Status ShardedBackend::DropQuery(cq::QueryId id) { return svc_->DropQuery(id); }

Result<std::unique_ptr<SubscriberFeed>> ShardedBackend::Subscribe(
    cq::QueryId id) {
  CQ_ASSIGN_OR_RETURN(shard::ShardedSubscriptionPtr sub, svc_->Subscribe(id));
  return std::unique_ptr<SubscriberFeed>(new ShardedFeed(std::move(sub)));
}

Status ShardedBackend::PushRecord(const std::string& stream, Tuple tuple,
                                  Timestamp ts) {
  return svc_->PushRecord(stream, std::move(tuple), ts);
}

Status ShardedBackend::PushWatermark(const std::string& stream,
                                     Timestamp watermark) {
  return svc_->PushWatermark(stream, watermark);
}

Status ShardedBackend::PushBatch(const std::string& stream,
                                 StreamBatch batch) {
  return svc_->PushBatch(stream, std::move(batch));
}

Result<SchemaPtr> ShardedBackend::StreamSchema(const std::string& name) const {
  return svc_->replica(0)->catalog().GetStream(name);
}

Result<size_t> ShardedBackend::QueryStateBytes(cq::QueryId id) const {
  return svc_->QueryStateBytes(id);
}

std::vector<QueryInfo> ShardedBackend::ListQueries() const {
  return svc_->replica(0)->ListQueries();
}

size_t ShardedBackend::NumOperators() const {
  return svc_->replica(0)->NumOperators();
}

size_t ShardedBackend::NumActiveQueries() const {
  return svc_->NumActiveQueries();
}

}  // namespace cq::net
