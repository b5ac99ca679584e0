#include "shard/sharded_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "shard/exchange.h"
#include "sql/parser.h"

namespace cq::shard {

namespace {
constexpr uint32_t kMetaVersion = 1;
}  // namespace

// --- ShardedSubscription ----------------------------------------------------

bool ShardedSubscription::TryPoll(StreamBatch* out) {
  const size_t n = subs_.size();
  for (size_t k = 0; k < n; ++k) {
    const size_t r = (cursor_ + k) % n;
    if (subs_[r]->TryPoll(out)) {
      cursor_ = r + 1;
      return true;
    }
  }
  return false;
}

bool ShardedSubscription::Poll(StreamBatch* out) {
  size_t spins = 0;
  while (true) {
    if (TryPoll(out)) return true;
    bool all_closed = true;
    for (const auto& s : subs_) {
      if (!s->closed()) {
        all_closed = false;
        break;
      }
    }
    // Closed channels may still have drained above; one more sweep after
    // observing every channel closed catches the race.
    if (all_closed) return TryPoll(out);
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void ShardedSubscription::Cancel() {
  for (auto& s : subs_) s->Cancel();
}

// --- ShardedQueryService ----------------------------------------------------

ShardedQueryService::ShardedQueryService(size_t nshards, ServiceConfig config)
    : nshards_(nshards == 0 ? 1 : nshards) {
  replicas_.reserve(nshards_);
  for (size_t r = 0; r < nshards_; ++r) {
    replicas_.push_back(std::make_unique<QueryService>(Catalog(), config));
  }
  routed_.assign(nshards_, 0);
  if (config.metrics != nullptr) {
    for (size_t r = 0; r < nshards_; ++r) {
      shard_records_.push_back(config.metrics->GetCounter(
          "cq_shard_records_total", {{"shard", std::to_string(r)}}));
    }
  }
}

Status ShardedQueryService::RegisterStream(const std::string& name,
                                           SchemaPtr schema,
                                           std::vector<size_t> shard_key) {
  if (streams_.count(name) != 0) {
    return Status::AlreadyExists("stream '" + name + "' already registered");
  }
  for (size_t c : shard_key) {
    if (c >= schema->num_fields()) {
      return Status::InvalidArgument("shard key column out of range");
    }
  }
  for (auto& r : replicas_) {
    CQ_RETURN_NOT_OK(r->RegisterStream(name, schema));
  }
  StreamInfo info;
  info.schema = schema;
  info.partitioner = ShardPartitioner(nshards_, shard_key);
  info.shard_key = std::move(shard_key);
  streams_.emplace(name, std::move(info));
  return Status::OK();
}

Status ShardedQueryService::ValidateQueryShape(const std::string& sql) const {
  if (nshards_ <= 1) return Status::OK();
  // Non-single-SELECT text (compound queries) falls through to the replica
  // frontend unvalidated; the header documents the limitation.
  Result<AstSelect> parsed = ParseQuery(sql);
  if (!parsed.ok()) return Status::OK();
  const AstSelect& ast = parsed.value();

  bool any_sharded = false;
  for (const AstTableRef& tr : ast.from) {
    auto it = streams_.find(tr.name);
    if (it != streams_.end() && !it->second.shard_key.empty()) {
      any_sharded = true;
    }
  }
  if (!any_sharded) return Status::OK();
  if (ast.from.size() > 1) {
    return Status::InvalidArgument(
        "multi-stream query over sharded stream(s): co-partitioning is not "
        "guaranteed; register the streams with an empty shard key or run on "
        "a ShardedPipeline with explicit exchanges");
  }

  bool aggregating = ast.distinct;
  for (const AstSelectItem& item : ast.items) {
    if (item.expr && item.expr->kind == AstExpr::Kind::kAggregate) {
      aggregating = true;
    }
  }
  if (!aggregating) return Status::OK();  // record-wise: decomposes trivially

  const StreamInfo& info = streams_.at(ast.from[0].name);
  for (size_t c : info.shard_key) {
    const std::string& col = info.schema->field(c).name;
    bool grouped = false;
    for (const AstExpr& g : ast.group_by) {
      if (g.kind == AstExpr::Kind::kColumn && g.column == col) {
        grouped = true;
        break;
      }
    }
    if (!grouped) {
      return Status::InvalidArgument(
          "aggregate over sharded stream '" + ast.from[0].name +
          "' must GROUP BY shard key column '" + col +
          "' (or register the stream with an empty shard key)");
    }
  }
  return Status::OK();
}

Result<QueryId> ShardedQueryService::RegisterQuery(const std::string& sql) {
  CQ_RETURN_NOT_OK(ValidateQueryShape(sql));
  QueryId id = 0;
  for (size_t r = 0; r < nshards_; ++r) {
    Result<QueryId> rid = replicas_[r]->RegisterQuery(sql);
    if (!rid.ok()) {
      for (size_t k = 0; k < r; ++k) (void)replicas_[k]->DropQuery(id);
      return rid.status();
    }
    if (r == 0) {
      id = rid.value();
    } else if (rid.value() != id) {
      return Status::Internal("replica query ids diverged");
    }
  }
  return id;
}

Status ShardedQueryService::DropQuery(QueryId id) {
  Status first;
  for (auto& r : replicas_) {
    Status st = r->DropQuery(id);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

Result<ShardedSubscriptionPtr> ShardedQueryService::Subscribe(QueryId id) {
  std::vector<SubscriptionPtr> subs;
  subs.reserve(nshards_);
  for (auto& r : replicas_) {
    CQ_ASSIGN_OR_RETURN(SubscriptionPtr sub, r->Subscribe(id));
    subs.push_back(std::move(sub));
  }
  return std::make_shared<ShardedSubscription>(std::move(subs));
}

Result<const ShardedQueryService::StreamInfo*> ShardedQueryService::FindStream(
    const std::string& name) const {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    return Status::NotFound("stream '" + name + "' not registered");
  }
  return &it->second;
}

Status ShardedQueryService::PushRecord(const std::string& stream, Tuple tuple,
                                       Timestamp ts) {
  CQ_ASSIGN_OR_RETURN(const StreamInfo* info, FindStream(stream));
  const size_t shard = info->partitioner.ShardOfTuple(tuple);
  ++routed_[shard];
  if (!shard_records_.empty()) shard_records_[shard]->Increment();
  return replicas_[shard]->PushRecord(stream, std::move(tuple), ts);
}

Status ShardedQueryService::PushWatermark(const std::string& stream,
                                          Timestamp watermark) {
  for (auto& r : replicas_) {
    CQ_RETURN_NOT_OK(r->PushWatermark(stream, watermark));
  }
  return Status::OK();
}

Status ShardedQueryService::PushBatch(const std::string& stream,
                                      StreamBatch batch) {
  if (batch.columnar() != nullptr) {
    return Status::InvalidArgument(
        "service ingest is row-based; push columnar batches through a "
        "ShardedPipeline");
  }
  CQ_ASSIGN_OR_RETURN(const StreamInfo* info, FindStream(stream));
  std::vector<StreamBatch> splits =
      SplitRowBatch(std::move(batch), info->partitioner);
  for (size_t r = 0; r < nshards_; ++r) {
    if (splits[r].empty()) continue;
    const size_t records = splits[r].num_records();
    routed_[r] += records;
    if (!shard_records_.empty() && records > 0) {
      shard_records_[r]->Increment(records);
    }
    CQ_RETURN_NOT_OK(replicas_[r]->PushBatch(stream, splits[r]));
  }
  return Status::OK();
}

// --- durability -------------------------------------------------------------

std::string ShardedQueryService::EncodeMetaSlot() const {
  std::string out;
  EncodeU32(kMetaVersion, &out);
  EncodeU32(static_cast<uint32_t>(nshards_), &out);
  EncodeU32(static_cast<uint32_t>(streams_.size()), &out);
  for (const auto& [name, info] : streams_) {
    EncodeString(name, &out);
    EncodeU32(static_cast<uint32_t>(info.shard_key.size()), &out);
    for (size_t c : info.shard_key) EncodeU32(static_cast<uint32_t>(c), &out);
  }
  return out;
}

Result<std::vector<std::string>> ShardedQueryService::SnapshotSlots() {
  std::vector<std::string> slots;
  slots.reserve(1 + nshards_);
  slots.push_back(EncodeMetaSlot());
  for (auto& r : replicas_) {
    CQ_ASSIGN_OR_RETURN(std::vector<std::string> replica_slots,
                        r->SnapshotSlots());
    std::string blob;
    ft::EncodeBlobList(replica_slots, &blob);
    slots.push_back(std::move(blob));
  }
  return slots;
}

Status ShardedQueryService::RestoreSlots(const std::vector<std::string>& slots) {
  if (slots.size() != 1 + nshards_) {
    // Distinguish the shard-count mismatch for a clear operator error.
    if (!slots.empty()) {
      std::string_view meta = slots[0];
      Result<uint32_t> version = DecodeU32(&meta);
      Result<uint32_t> old_shards =
          version.ok() ? DecodeU32(&meta) : Result<uint32_t>(version.status());
      if (old_shards.ok() && old_shards.value() != nshards_) {
        return Status::InvalidArgument(
            "sharded service image was taken at " +
            std::to_string(old_shards.value()) + " shards, service runs " +
            std::to_string(nshards_) +
            "; service-level re-shard is unsupported (re-scale through "
            "ShardedPipeline N->M restore)");
      }
    }
    return Status::InvalidArgument("sharded service slot count mismatch");
  }
  std::string_view meta = slots[0];
  CQ_ASSIGN_OR_RETURN(uint32_t version, DecodeU32(&meta));
  if (version != kMetaVersion) {
    return Status::InvalidArgument("unknown sharded service image version");
  }
  CQ_ASSIGN_OR_RETURN(uint32_t old_shards, DecodeU32(&meta));
  if (old_shards != nshards_) {
    return Status::InvalidArgument(
        "sharded service image shard count mismatch");
  }
  CQ_ASSIGN_OR_RETURN(uint32_t num_streams, DecodeU32(&meta));
  for (uint32_t i = 0; i < num_streams; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string name, DecodeString(&meta));
    CQ_ASSIGN_OR_RETURN(uint32_t key_len, DecodeU32(&meta));
    std::vector<size_t> key(key_len);
    for (uint32_t k = 0; k < key_len; ++k) {
      CQ_ASSIGN_OR_RETURN(uint32_t c, DecodeU32(&meta));
      key[k] = c;
    }
    auto it = streams_.find(name);
    if (it == streams_.end() || it->second.shard_key != key) {
      return Status::InvalidArgument(
          "sharded service image stream '" + name +
          "' does not match the registered shard key");
    }
  }
  for (size_t r = 0; r < nshards_; ++r) {
    std::string_view blob = slots[1 + r];
    CQ_ASSIGN_OR_RETURN(std::vector<std::string> replica_slots,
                        ft::DecodeBlobList(&blob));
    CQ_RETURN_NOT_OK(replicas_[r]->RestoreSlots(replica_slots));
  }
  return Status::OK();
}

void ShardedQueryService::SetBarrierHandler(
    ft::BarrierInjectable::BarrierHandler handler) {
  barrier_handler_ = std::move(handler);
  for (size_t r = 0; r < nshards_; ++r) {
    // Remap each replica's single slot to 1 + r, wrapped as a one-blob list
    // so barrier-collected epochs decode exactly like SnapshotSlots images.
    replicas_[r]->SetBarrierHandler(
        [this, r](uint64_t epoch, size_t, Result<std::string> snapshot) {
          if (!barrier_handler_) return;
          if (!snapshot.ok()) {
            barrier_handler_(epoch, 1 + r, std::move(snapshot));
            return;
          }
          std::string blob;
          ft::EncodeBlobList({std::move(snapshot).value()}, &blob);
          barrier_handler_(epoch, 1 + r, std::move(blob));
        });
  }
}

Status ShardedQueryService::InjectBarrier(uint64_t epoch) {
  if (barrier_handler_) barrier_handler_(epoch, 0, EncodeMetaSlot());
  for (auto& r : replicas_) {
    CQ_RETURN_NOT_OK(r->InjectBarrier(epoch));
  }
  return Status::OK();
}

}  // namespace cq::shard
