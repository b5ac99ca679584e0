#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "dataflow/operators.h"
#include "obs/flight_recorder.h"
#include "sql/fingerprint.h"
#include "sql/planner.h"

namespace cq {

const char* QueryStateToString(QueryState state) {
  switch (state) {
    case QueryState::kRegistering:
      return "registering";
    case QueryState::kRunning:
      return "running";
    case QueryState::kDraining:
      return "draining";
    case QueryState::kDropped:
      return "dropped";
  }
  return "unknown";
}

namespace {

/// True when the window commutes with per-tuple filters: a tuple's presence
/// in a time-based window depends only on its own timestamp, so
/// window(filter(S)) == filter(window(S)) and the filter may run before the
/// (shared) window. Tuple-count windows do NOT commute — the last n of the
/// filtered stream is not the filtered last n.
bool WindowCommutesWithFilter(const S2RSpec& spec) {
  switch (spec.kind) {
    case S2RKind::kRange:
    case S2RKind::kNow:
    case S2RKind::kUnbounded:
      return true;
    case S2RKind::kRows:
    case S2RKind::kPartitionedRows:
      return false;
  }
  return false;
}

/// Rewrites the plan by stripping Select chains that sit directly on a Scan
/// of a liftable slot, collecting the predicates per slot (innermost
/// first). The lifted predicates become pre-window FilterOperators in the
/// shared chain; the residual plan scans the already-filtered slot.
RelOpPtr StripLiftableFilters(const RelOpPtr& op,
                              const std::set<size_t>& liftable,
                              std::map<size_t, std::vector<ExprPtr>>* lifted) {
  if (op->kind() == RelOpKind::kSelect) {
    std::vector<ExprPtr> preds;
    RelOpPtr cur = op;
    while (cur->kind() == RelOpKind::kSelect) {
      preds.push_back(cur->predicate());
      cur = cur->children()[0];
    }
    if (cur->kind() == RelOpKind::kScan &&
        liftable.count(cur->input_index()) > 0) {
      auto& out = (*lifted)[cur->input_index()];
      // Collected top-down; the innermost filter (closest to the scan) runs
      // first in the lifted chain.
      out.insert(out.end(), preds.rbegin(), preds.rend());
      return cur;
    }
  }
  if (op->children().empty()) return op;
  std::vector<RelOpPtr> kids;
  kids.reserve(op->children().size());
  bool changed = false;
  for (const RelOpPtr& c : op->children()) {
    RelOpPtr nc = StripLiftableFilters(c, liftable, lifted);
    changed = changed || nc != c;
    kids.push_back(std::move(nc));
  }
  return changed ? op->WithChildren(std::move(kids)) : op;
}

/// Short hex rendering of a plan fingerprint for metric labels.
std::string FingerprintLabel(const std::string& fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(FingerprintHash(fp)));
  return buf;
}

}  // namespace

QueryService::QueryService(Catalog catalog, ServiceConfig config)
    : catalog_(std::move(catalog)), config_(config) {
  auto graph = std::make_unique<DataflowGraph>();
  graph_ = graph.get();
  executor_ = std::make_unique<PipelineExecutor>(std::move(graph));
  if (config_.tracer != nullptr) executor_->AttachTracer(config_.tracer);
  if (config_.metrics != nullptr) {
    executor_->AttachMetrics(config_.metrics);
    MetricsRegistry* m = config_.metrics;
    registered_total_ = m->GetCounter("cq_service_queries_registered_total");
    dropped_total_ = m->GetCounter("cq_service_queries_dropped_total");
    rejected_total_ = m->GetCounter("cq_service_queries_rejected_total");
    nodes_created_total_ = m->GetCounter("cq_service_nodes_created_total");
    nodes_reused_total_ = m->GetCounter("cq_service_nodes_reused_total");
    active_gauge_ = m->GetGauge("cq_service_queries_active");
    live_nodes_gauge_ = m->GetGauge("cq_service_nodes_live");
    subscriptions_gauge_ = m->GetGauge("cq_service_subscriptions_active");
  }
}

Status QueryService::RegisterStream(const std::string& name,
                                    SchemaPtr schema) {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.RegisterStream(name, std::move(schema));
}

Result<NodeId> QueryService::AcquireNode(
    const std::string& fp,
    const std::function<std::unique_ptr<Operator>()>& factory, NodeId parent,
    size_t port, QueryRecord* rec) {
  ++rec->nodes_total;
  auto it = shared_.find(fp);
  if (it != shared_.end()) {
    ++it->second.refs;
    ++rec->nodes_reused;
    rec->ref_order.push_back(fp);
    if (nodes_reused_total_ != nullptr) nodes_reused_total_->Increment();
    return it->second.node;
  }
  NodeId id = graph_->AddNode(factory());
  if (parent != kNoParent) {
    CQ_RETURN_NOT_OK(graph_->Connect(parent, id, port));
  }
  shared_.emplace(fp, SharedNode{id, 1});
  rec->ref_order.push_back(fp);
  if (nodes_created_total_ != nullptr) nodes_created_total_->Increment();
  return id;
}

Status QueryService::ReleaseNode(const std::string& fp) {
  auto it = shared_.find(fp);
  if (it == shared_.end()) {
    return Status::Internal("shared-node index lost fingerprint '" + fp + "'");
  }
  if (--it->second.refs > 0) return Status::OK();
  NodeId id = it->second.node;
  shared_.erase(it);
  // Sources are also listed in the per-stream routing table.
  for (auto& [stream, nodes] : sources_) {
    nodes.erase(std::remove(nodes.begin(), nodes.end(), id), nodes.end());
  }
  return graph_->RemoveNode(id).status();
}

void QueryService::ReleaseAll(const std::vector<std::string>& ref_order) {
  for (auto it = ref_order.rbegin(); it != ref_order.rend(); ++it) {
    // Internal-inconsistency errors only; teardown continues regardless.
    (void)ReleaseNode(*it);
  }
}

Result<QueryId> QueryService::RegisterQuery(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mu_);
  return RegisterQueryLocked(sql);
}

Result<QueryId> QueryService::RegisterQueryLocked(const std::string& sql) {
  // --- Admission control ---
  if (NumActiveQueriesLocked() >= config_.max_queries) {
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    FlightRecorder::Global().Record(
        "service", "reject_query", "max_queries",
        static_cast<int64_t>(config_.max_queries));
    return Status::OutOfRange(
        "query admission rejected: " + std::to_string(config_.max_queries) +
        " queries already registered");
  }
  if (config_.max_state_bytes != 0 &&
      ApproxStateBytes() >= config_.max_state_bytes) {
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    FlightRecorder::Global().Record(
        "service", "reject_query", "max_state_bytes",
        static_cast<int64_t>(ApproxStateBytes()),
        static_cast<int64_t>(config_.max_state_bytes));
    return Status::OutOfRange(
        "query admission rejected: service state is " +
        std::to_string(ApproxStateBytes()) + " bytes, cap is " +
        std::to_string(config_.max_state_bytes));
  }

  // --- Plan + optimise through the existing SQL frontend ---
  CQ_ASSIGN_OR_RETURN(PlannedQuery planned, PlanSql(sql, catalog_));
  CQ_ASSIGN_OR_RETURN(
      RelOpPtr plan, OptimizePlan(planned.query.plan, config_.optimizer));
  const std::vector<S2RSpec>& windows = planned.query.input_windows;
  const size_t num_slots = windows.size();
  if (planned.input_streams.size() != num_slots) {
    return Status::Internal("planner slot/stream binding mismatch");
  }

  // --- Filter lifting: move scan-local predicates below the window so
  // they join the shared prefix. Only when the window commutes with
  // filtering and the slot is scanned exactly once (a second scan of the
  // same slot must not observe the first scan's filters). ---
  std::vector<size_t> scan_slots;
  plan->CollectInputs(&scan_slots);
  std::set<size_t> liftable;
  for (size_t i = 0; i < num_slots; ++i) {
    if (WindowCommutesWithFilter(windows[i]) &&
        std::count(scan_slots.begin(), scan_slots.end(), i) == 1) {
      liftable.insert(i);
    }
  }
  std::map<size_t, std::vector<ExprPtr>> lifted;
  RelOpPtr residual = StripLiftableFilters(plan, liftable, &lifted);

  QueryId qid = next_query_id_++;
  QueryRecord rec;
  rec.id = qid;
  rec.state = QueryState::kRegistering;
  rec.sql = sql;
  rec.output_schema = planned.output_schema;

  // With sharing disabled every fingerprint is salted with the query id, so
  // the index never matches and each query gets a private chain (the bench
  // ablation baseline).
  const std::string salt =
      config_.share_subplans ? "" : "#q" + std::to_string(qid);

  // --- Per-slot prefix chains: source -> lifted filters -> window ---
  auto splice = [&]() -> Status {
    std::vector<std::string> slot_chains(num_slots);
    std::vector<NodeId> slot_nodes(num_slots);
    for (size_t i = 0; i < num_slots; ++i) {
      const std::string& stream = planned.input_streams[i];
      std::string fp = ComposeSourceStage(stream) + salt;
      bool source_created = shared_.find(fp) == shared_.end();
      CQ_ASSIGN_OR_RETURN(
          NodeId node,
          AcquireNode(
              fp,
              [&] {
                return std::make_unique<PassThroughOperator>("src:" + stream);
              },
              kNoParent, 0, &rec));
      if (source_created) sources_[stream].push_back(node);
      auto lit = lifted.find(i);
      if (lit != lifted.end()) {
        for (const ExprPtr& pred : lit->second) {
          fp = ComposeFilterStage(fp, *pred);
          CQ_ASSIGN_OR_RETURN(
              node, AcquireNode(
                        fp,
                        [&] {
                          return std::make_unique<FilterOperator>(
                              "flt:" + std::to_string(FingerprintHash(fp) &
                                                      0xffffff),
                              pred);
                        },
                        node, 0, &rec));
        }
      }
      fp = ComposeWindowStage(fp, windows[i]);
      CQ_ASSIGN_OR_RETURN(
          node, AcquireNode(
                    fp,
                    [&] {
                      return std::make_unique<WindowDeltaOperator>(
                          "win:" + windows[i].ToString(), windows[i]);
                    },
                    node, 0, &rec));
      slot_chains[i] = fp;
      slot_nodes[i] = node;
    }

    // --- Shared residual plan stage ---
    std::string plan_fp =
        ComposePlanStage(slot_chains, *residual, planned.query.output);
    bool plan_created = shared_.find(plan_fp) == shared_.end();
    CQ_ASSIGN_OR_RETURN(
        NodeId plan_node,
        AcquireNode(
            plan_fp,
            [&] {
              return std::make_unique<PlanDeltaOperator>(
                  "plan:q" + std::to_string(qid), residual, num_slots,
                  planned.query.output);
            },
            kNoParent, 0, &rec));
    if (plan_created) {
      for (size_t i = 0; i < num_slots; ++i) {
        CQ_RETURN_NOT_OK(graph_->Connect(slot_nodes[i], plan_node, i));
      }
    }

    // --- Per-query subscription sink (never shared) ---
    auto sink = std::make_unique<SubscriptionSinkOperator>(
        "sink:q" + std::to_string(qid));
    rec.sink = sink.get();
    rec.sink_node = graph_->AddNode(std::move(sink));
    ++rec.nodes_total;
    CQ_RETURN_NOT_OK(graph_->Connect(plan_node, rec.sink_node, 0));

    // --- Per-query durable fence sink (only with an attached log) ---
    if (output_log_ != nullptr) {
      auto fence = std::make_unique<ft::EpochSinkOperator>(
          "fence:q" + std::to_string(qid), output_log_,
          /*part=*/static_cast<size_t>(qid));
      rec.fence = fence.get();
      rec.fence_node = graph_->AddNode(std::move(fence));
      ++rec.nodes_total;
      CQ_RETURN_NOT_OK(graph_->Connect(plan_node, rec.fence_node, 0));
    }

    CQ_RETURN_NOT_OK(graph_->Validate());
    executor_->SyncWithGraph();
    return Status::OK();
  };

  Status st = splice();
  if (!st.ok()) {
    // Roll back: drop the sinks (if they made it into the graph) and unref
    // every acquired fingerprint so the graph is exactly as before.
    if (rec.sink != nullptr && graph_->is_live(rec.sink_node)) {
      (void)graph_->RemoveNode(rec.sink_node);
    }
    if (rec.fence != nullptr && graph_->is_live(rec.fence_node)) {
      (void)graph_->RemoveNode(rec.fence_node);
    }
    ReleaseAll(rec.ref_order);
    if (rejected_total_ != nullptr) rejected_total_->Increment();
    FlightRecorder::Global().Record("service", "reject_query", st.ToString(),
                                    static_cast<int64_t>(qid));
    return st;
  }

  // Per-query instruments, labeled by id and plan-stage fingerprint so a
  // re-registered identical query aggregates under the same fingerprint.
  {
    Histogram* lat = nullptr;
    Counter* outc = nullptr;
    Counter* drops = nullptr;
    if (config_.metrics != nullptr && !rec.ref_order.empty()) {
      LabelSet qlabels{{"query", std::to_string(qid)},
                       {"fingerprint", FingerprintLabel(rec.ref_order.back())}};
      MetricsRegistry* m = config_.metrics;
      lat = m->GetHistogram("cq_query_latency_us", qlabels);
      outc = m->GetCounter("cq_query_output_records_total", qlabels);
      drops = m->GetCounter("cq_query_dropped_pushes_total", qlabels);
    }
    rec.sink->AttachQueryInstruments(lat, outc, drops, config_.tracer);
  }

  rec.state = QueryState::kRunning;
  FlightRecorder::Global().Record("service", "register_query", rec.sql,
                                  static_cast<int64_t>(qid),
                                  static_cast<int64_t>(rec.nodes_reused));
  queries_.emplace(qid, std::move(rec));
  if (registered_total_ != nullptr) registered_total_->Increment();
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<int64_t>(NumActiveQueriesLocked()));
  }
  if (live_nodes_gauge_ != nullptr) {
    live_nodes_gauge_->Set(static_cast<int64_t>(graph_->num_live_nodes()));
  }
  return qid;
}

Status QueryService::DropQuery(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  QueryRecord& rec = it->second;
  if (rec.state != QueryState::kRunning) {
    return Status::Closed("query " + std::to_string(id) + " is " +
                          QueryStateToString(rec.state));
  }
  rec.state = QueryState::kDraining;

  // Subscribers see the channel close once queued batches drain.
  rec.sink->CloseAll();
  CQ_RETURN_NOT_OK(graph_->RemoveNode(rec.sink_node).status());
  rec.sink = nullptr;
  if (rec.fence != nullptr) {
    // Un-checkpointed fence output dies with the query — dropping a query
    // ends its externally published stream at the last durable epoch.
    CQ_RETURN_NOT_OK(graph_->RemoveNode(rec.fence_node).status());
    rec.fence = nullptr;
  }

  // Downstream-first: the plan stage (last acquired) unrefs before the
  // windows, filters, and sources feeding it.
  ReleaseAll(rec.ref_order);
  rec.ref_order.clear();
  CQ_RETURN_NOT_OK(graph_->Validate());

  rec.state = QueryState::kDropped;
  FlightRecorder::Global().Record("service", "drop_query", "",
                                  static_cast<int64_t>(id));
  if (dropped_total_ != nullptr) dropped_total_->Increment();
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<int64_t>(NumActiveQueriesLocked()));
  }
  if (live_nodes_gauge_ != nullptr) {
    live_nodes_gauge_->Set(static_cast<int64_t>(graph_->num_live_nodes()));
  }
  return Status::OK();
}

Result<SubscriptionPtr> QueryService::Subscribe(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  QueryRecord& rec = it->second;
  if (rec.state != QueryState::kRunning) {
    return Status::Closed("query " + std::to_string(id) + " is " +
                          QueryStateToString(rec.state));
  }
  uint64_t sub_id = next_sub_id_++;
  auto sub = std::make_shared<Subscription>(id, sub_id,
                                            config_.subscription_credits);
  if (config_.metrics != nullptr) {
    LabelSet labels = {{"query", std::to_string(id)},
                       {"subscription", std::to_string(sub_id)}};
    sub->drops_counter_ =
        config_.metrics->GetCounter("cq_service_subscription_drops_total",
                                    labels);
    sub->channel_.AttachMetrics(
        config_.metrics, {{"channel", "sub-" + std::to_string(sub_id)}});
  }
  if (config_.tracer != nullptr) {
    sub->channel_.AttachTracer(config_.tracer,
                               "sub-" + std::to_string(sub_id));
  }
  rec.sink->AddSubscription(sub);
  if (subscriptions_gauge_ != nullptr) subscriptions_gauge_->Add(1);
  return sub;
}

Status QueryService::PushRecord(const std::string& stream, Tuple tuple,
                                Timestamp ts) {
  return Push(stream, StreamElement::Record(std::move(tuple), ts));
}

Status QueryService::PushWatermark(const std::string& stream,
                                   Timestamp watermark) {
  return Push(stream, StreamElement::Watermark(watermark));
}

TraceContext QueryService::BeginIngestLocked(const std::string& stream) {
  (void)stream;
  TraceContext tc;
  // The ingest timestamp alone drives end-to-end latency attribution, so
  // it is stamped whenever anything downstream can consume it.
  if (config_.metrics != nullptr || config_.tracer != nullptr) {
    tc.ingest_ns = MonotonicNanos();
  }
  if (config_.tracer != nullptr && config_.trace_sample_every != 0 &&
      (pushes_++ % config_.trace_sample_every) == 0) {
    tc.trace_id = NextTraceId();
    tc.parent_span = NextSpanId();  // the ingest span's id (FinishIngest)
  }
  if (tc.ingest_ns != 0) executor_->SetActiveTrace(tc);
  return tc;
}

void QueryService::FinishIngestLocked(const TraceContext& tc,
                                      const std::string& stream,
                                      int64_t dispatch_end_ns) {
  if (tc.ingest_ns != 0) executor_->ClearActiveTrace();
  if (!tc.sampled()) return;
  // Ingest span = dispatch overhead only; operator spans nest under it and
  // carry the execution time, so the critical-path sum does not double
  // count.
  Span span;
  span.trace_id = tc.trace_id;
  span.span_id = tc.parent_span;
  span.kind = SpanKind::kIngest;
  span.name = "push:" + stream;
  span.start_ns = tc.ingest_ns;
  span.duration_ns = dispatch_end_ns - tc.ingest_ns;
  config_.tracer->Record(std::move(span));
}

Status QueryService::Push(const std::string& stream,
                          const StreamElement& element) {
  std::lock_guard<std::mutex> lock(mu_);
  CQ_RETURN_NOT_OK(catalog_.GetStream(stream).status());
  auto it = sources_.find(stream);
  if (it == sources_.end()) return Status::OK();  // no interested query
  TraceContext tc = BeginIngestLocked(stream);
  const int64_t dispatch_end_ns = tc.sampled() ? MonotonicNanos() : 0;
  Status st;
  for (NodeId source : it->second) {
    st = executor_->Push(source, element);
    if (!st.ok()) break;
  }
  FinishIngestLocked(tc, stream, dispatch_end_ns);
  return st;
}

Status QueryService::PushBatch(const std::string& stream,
                               const StreamBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  CQ_RETURN_NOT_OK(catalog_.GetStream(stream).status());
  auto it = sources_.find(stream);
  if (it == sources_.end()) return Status::OK();
  // A batch already stamped upstream (broker poll) keeps its trace; the
  // poll's ingest span is the root. Unstamped batches root here.
  const bool prestamped =
      batch.trace().sampled() || batch.trace().ingest_ns != 0;
  TraceContext tc =
      prestamped ? batch.trace() : BeginIngestLocked(stream);
  if (prestamped) executor_->SetActiveTrace(tc);
  const int64_t dispatch_end_ns =
      !prestamped && tc.sampled() ? MonotonicNanos() : 0;
  Status st;
  for (NodeId source : it->second) {
    st = executor_->PushBatch(source, batch);
    if (!st.ok()) break;
  }
  if (prestamped) {
    executor_->ClearActiveTrace();
  } else {
    FinishIngestLocked(tc, stream, dispatch_end_ns);
  }
  return st;
}

Result<QueryInfo> QueryService::GetQuery(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  return InfoLocked(it->second);
}

std::vector<QueryInfo> QueryService::ListQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryInfo> out;
  out.reserve(queries_.size());
  for (const auto& [id, rec] : queries_) out.push_back(InfoLocked(rec));
  return out;
}

QueryInfo QueryService::InfoLocked(const QueryRecord& rec) {
  QueryInfo info;
  info.id = rec.id;
  info.state = rec.state;
  info.sql = rec.sql;
  info.nodes_total = rec.nodes_total;
  info.nodes_reused = rec.nodes_reused;
  info.num_subscriptions =
      rec.sink != nullptr ? rec.sink->num_subscriptions() : 0;
  return info;
}

size_t QueryService::NumOperators() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->num_live_nodes();
}

size_t QueryService::NumActiveQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NumActiveQueriesLocked();
}

size_t QueryService::NumActiveQueriesLocked() const {
  size_t n = 0;
  for (const auto& [id, rec] : queries_) {
    if (rec.state != QueryState::kDropped) ++n;
  }
  return n;
}

Result<size_t> QueryService::QueryStateBytes(QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  size_t total = 0;
  for (const std::string& fp : it->second.ref_order) {
    auto sit = shared_.find(fp);
    if (sit == shared_.end()) continue;
    if (graph_->is_live(sit->second.node)) {
      total += graph_->node(sit->second.node)->StateBytesApprox();
    }
  }
  return total;
}

size_t QueryService::ApproxStateBytes() const {
  size_t total = 0;
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (graph_->is_live(i)) total += graph_->node(i)->StateBytesApprox();
  }
  return total;
}

std::string QueryService::DumpMetrics(MetricsFormat format) {
  std::lock_guard<std::mutex> lock(mu_);
  return executor_->DumpMetrics(format);
}

// --- Durability ---

namespace {

constexpr const char* kFenceKeyPrefix = "fence:q";

/// One registered query as persisted in the service registry blob.
struct PersistedQuery {
  QueryId id = 0;
  std::string sql;
  std::vector<std::string> ref_order;
  uint64_t nodes_total = 0;
  uint64_t nodes_reused = 0;
};

struct PersistedRegistry {
  uint64_t next_query_id = 1;
  uint64_t next_sub_id = 1;
  /// Catalog streams (name -> schema fields): queries replay through the
  /// SQL frontend, so streams registered at runtime must come back first.
  std::map<std::string, std::vector<Field>> streams;
  std::vector<PersistedQuery> queries;              // id order
  std::map<std::string, uint64_t> shared_refs;      // fingerprint -> refs
  std::vector<std::string> state_keys;              // aligns inner[1..]
};

Result<PersistedRegistry> DecodeRegistry(std::string_view blob) {
  std::string_view in = blob;
  PersistedRegistry reg;
  CQ_ASSIGN_OR_RETURN(reg.next_query_id, DecodeU64(&in));
  CQ_ASSIGN_OR_RETURN(reg.next_sub_id, DecodeU64(&in));
  CQ_ASSIGN_OR_RETURN(uint32_t nstreams, DecodeU32(&in));
  for (uint32_t i = 0; i < nstreams; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string name, DecodeString(&in));
    CQ_ASSIGN_OR_RETURN(uint32_t nfields, DecodeU32(&in));
    std::vector<Field> fields(nfields);
    for (Field& f : fields) {
      CQ_ASSIGN_OR_RETURN(f.name, DecodeString(&in));
      CQ_ASSIGN_OR_RETURN(uint32_t type, DecodeU32(&in));
      if (type > static_cast<uint32_t>(ValueType::kString)) {
        return Status::IOError("unknown value type in persisted stream '" +
                               name + "'");
      }
      f.type = static_cast<ValueType>(type);
    }
    reg.streams[std::move(name)] = std::move(fields);
  }
  CQ_ASSIGN_OR_RETURN(uint32_t nq, DecodeU32(&in));
  reg.queries.resize(nq);
  for (PersistedQuery& q : reg.queries) {
    CQ_ASSIGN_OR_RETURN(q.id, DecodeU64(&in));
    CQ_ASSIGN_OR_RETURN(q.sql, DecodeString(&in));
    CQ_ASSIGN_OR_RETURN(q.ref_order, ft::DecodeBlobList(&in));
    CQ_ASSIGN_OR_RETURN(q.nodes_total, DecodeU64(&in));
    CQ_ASSIGN_OR_RETURN(q.nodes_reused, DecodeU64(&in));
  }
  CQ_ASSIGN_OR_RETURN(uint32_t ns, DecodeU32(&in));
  for (uint32_t i = 0; i < ns; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string fp, DecodeString(&in));
    CQ_ASSIGN_OR_RETURN(reg.shared_refs[std::move(fp)], DecodeU64(&in));
  }
  CQ_ASSIGN_OR_RETURN(reg.state_keys, ft::DecodeBlobList(&in));
  if (!in.empty()) {
    return Status::IOError("trailing bytes after service registry");
  }
  return reg;
}

}  // namespace

void QueryService::SetDurableOutputLog(ft::DurableOutputLog* log) {
  std::lock_guard<std::mutex> lock(mu_);
  output_log_ = log;
}

std::vector<std::string> QueryService::StateKeysLocked() const {
  std::vector<std::string> keys;
  for (const auto& [fp, sn] : shared_) keys.push_back(fp);
  for (const auto& [id, rec] : queries_) {
    if (rec.state == QueryState::kRunning && rec.fence != nullptr) {
      keys.push_back(kFenceKeyPrefix + std::to_string(id));
    }
  }
  return keys;
}

Result<std::vector<std::string>> QueryService::SnapshotSlots() {
  std::lock_guard<std::mutex> lock(mu_);
  return SnapshotSlotsLocked();
}

Result<std::vector<std::string>> QueryService::SnapshotSlotsLocked() {
  const std::vector<std::string> keys = StateKeysLocked();

  // Registry blob: everything needed to re-splice an equivalent graph.
  std::string reg;
  EncodeU64(next_query_id_, &reg);
  EncodeU64(next_sub_id_, &reg);
  const std::vector<std::string> stream_names = catalog_.StreamNames();
  EncodeU32(static_cast<uint32_t>(stream_names.size()), &reg);
  for (const std::string& name : stream_names) {
    CQ_ASSIGN_OR_RETURN(SchemaPtr schema, catalog_.GetStream(name));
    EncodeString(name, &reg);
    EncodeU32(static_cast<uint32_t>(schema->num_fields()), &reg);
    for (const Field& f : schema->fields()) {
      EncodeString(f.name, &reg);
      EncodeU32(static_cast<uint32_t>(f.type), &reg);
    }
  }
  uint32_t nrunning = 0;
  for (const auto& [id, rec] : queries_) {
    if (rec.state == QueryState::kRunning) ++nrunning;
  }
  EncodeU32(nrunning, &reg);
  for (const auto& [id, rec] : queries_) {
    if (rec.state != QueryState::kRunning) continue;
    EncodeU64(id, &reg);
    EncodeString(rec.sql, &reg);
    ft::EncodeBlobList(rec.ref_order, &reg);
    EncodeU64(rec.nodes_total, &reg);
    EncodeU64(rec.nodes_reused, &reg);
  }
  EncodeU32(static_cast<uint32_t>(shared_.size()), &reg);
  for (const auto& [fp, sn] : shared_) {
    EncodeString(fp, &reg);
    EncodeU64(sn.refs, &reg);
  }
  ft::EncodeBlobList(keys, &reg);

  std::vector<std::string> inner;
  inner.reserve(keys.size() + 1);
  inner.push_back(std::move(reg));
  for (const std::string& key : keys) {
    CQ_ASSIGN_OR_RETURN(Operator * node, NodeForKeyLocked(key));
    CQ_ASSIGN_OR_RETURN(std::string state, node->SnapshotState());
    inner.push_back(std::move(state));
  }

  // Staged handoff (phase 1 of the publish fence): only after every node
  // captured cleanly do the fence sinks drop their live buffers — the image
  // owns them now.
  for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
    if (!graph_->is_live(i)) continue;
    CQ_RETURN_NOT_OK(graph_->node(i)->OnSnapshotStaged());
  }

  std::string outer;
  ft::EncodeBlobList(inner, &outer);
  return std::vector<std::string>{std::move(outer)};
}

Result<Operator*> QueryService::NodeForKeyLocked(const std::string& key) {
  if (key.rfind(kFenceKeyPrefix, 0) == 0) {
    QueryId id = 0;
    try {
      id = std::stoull(key.substr(std::string(kFenceKeyPrefix).size()));
    } catch (const std::exception&) {
      return Status::IOError("malformed fence state key '" + key + "'");
    }
    auto it = queries_.find(id);
    if (it == queries_.end() || it->second.fence == nullptr) {
      return Status::Internal("state key '" + key +
                              "' names no live fence sink — was the durable "
                              "output log attached before restore?");
    }
    return static_cast<Operator*>(it->second.fence);
  }
  auto it = shared_.find(key);
  if (it == shared_.end()) {
    return Status::Internal("state key '" + key +
                            "' is not in the shared-node index");
  }
  return graph_->node(it->second.node);
}

Status QueryService::RestoreSlots(const std::vector<std::string>& slots) {
  if (slots.size() != 1) {
    return Status::InvalidArgument(
        "service image has " + std::to_string(slots.size()) +
        " slots, expected 1");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!queries_.empty() || !shared_.empty()) {
    return Status::InvalidArgument(
        "service restore requires a freshly constructed service");
  }
  std::string_view in = slots[0];
  CQ_ASSIGN_OR_RETURN(std::vector<std::string> inner, ft::DecodeBlobList(&in));
  if (!in.empty()) {
    return Status::IOError("trailing bytes after service image");
  }
  if (inner.empty()) {
    return Status::IOError("service image is missing its registry");
  }
  CQ_ASSIGN_OR_RETURN(PersistedRegistry reg, DecodeRegistry(inner[0]));
  if (inner.size() != reg.state_keys.size() + 1) {
    return Status::IOError(
        "service image has " + std::to_string(inner.size() - 1) +
        " state blobs for " + std::to_string(reg.state_keys.size()) +
        " keys");
  }

  // Streams first: replayed queries plan against the catalog, so every
  // persisted stream must exist (and mean the same thing) before any SQL
  // re-runs. Constructor-seeded streams are verified, runtime-registered
  // ones are recreated.
  for (const auto& [name, fields] : reg.streams) {
    auto existing = catalog_.GetStream(name);
    if (existing.ok()) {
      if ((*existing)->fields() != fields) {
        return Status::Internal("stream '" + name +
                                "' has a different schema than the "
                                "checkpoint — catalog drifted");
      }
      continue;
    }
    CQ_RETURN_NOT_OK(catalog_.RegisterStream(name, Schema::Make(fields)));
  }

  // Replay every persisted query through the normal frontend with its
  // original id pinned. Identical SQL against an identical catalog yields
  // identical fingerprints, so the shared graph re-splices into the same
  // shape — verified below, not assumed.
  for (const PersistedQuery& pq : reg.queries) {
    next_query_id_ = pq.id;
    CQ_ASSIGN_OR_RETURN(QueryId got, RegisterQueryLocked(pq.sql));
    if (got != pq.id) {
      return Status::Internal("restore replay assigned query id " +
                              std::to_string(got) + ", expected " +
                              std::to_string(pq.id));
    }
    const QueryRecord& rec = queries_.at(got);
    if (rec.ref_order != pq.ref_order) {
      return Status::Internal(
          "restore replay of query " + std::to_string(pq.id) +
          " produced different fingerprints than the checkpoint — catalog "
          "or optimizer configuration drifted");
    }
  }
  next_query_id_ = reg.next_query_id;
  next_sub_id_ = reg.next_sub_id;

  // The re-spliced graph must share exactly as the checkpointed one did.
  std::map<std::string, uint64_t> refs_now;
  for (const auto& [fp, sn] : shared_) refs_now[fp] = sn.refs;
  if (refs_now != reg.shared_refs) {
    return Status::Internal(
        "restore replay produced different shared-subplan refcounts than "
        "the checkpoint");
  }
  if (StateKeysLocked() != reg.state_keys) {
    return Status::Internal(
        "restore replay produced a different state-key layout than the "
        "checkpoint");
  }

  // With the graph shape verified, load every node's state by key.
  for (size_t i = 0; i < reg.state_keys.size(); ++i) {
    CQ_ASSIGN_OR_RETURN(Operator * node,
                        NodeForKeyLocked(reg.state_keys[i]));
    CQ_RETURN_NOT_OK(node->RestoreState(inner[i + 1]));
  }
  return Status::OK();
}

void QueryService::SetBarrierHandler(BarrierHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  barrier_handler_ = std::move(handler);
}

Status QueryService::InjectBarrier(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!barrier_handler_) {
    return Status::Internal(
        "barrier handler not installed (call SetBarrierHandler first)");
  }
  // Pushes serialise on mu_, so holding it IS the alignment: the snapshot
  // covers exactly the pushes that completed before this call.
  FlightRecorder::Global().Record("barrier", "service_align", "",
                                  static_cast<int64_t>(epoch));
  Result<std::vector<std::string>> slots = SnapshotSlotsLocked();
  if (slots.ok()) {
    barrier_handler_(epoch, 0, std::move((*slots)[0]));
  } else {
    barrier_handler_(epoch, 0, slots.status());
  }
  return Status::OK();
}

std::map<std::string, size_t> QueryService::SharedRefCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, size_t> out;
  for (const auto& [fp, sn] : shared_) out[fp] = sn.refs;
  return out;
}

Result<std::vector<std::string>> QueryService::QueryFingerprints(
    QueryId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) +
                            " is not registered");
  }
  return it->second.ref_order;
}

}  // namespace cq
