#ifndef CQ_SERVICE_SERVICE_H_
#define CQ_SERVICE_SERVICE_H_

/// \file service.h
/// \brief The multi-query continuous-query service (survey Fig. 1).
///
/// The figure's loop — users register continuous queries against a DSMS,
/// data streams in, results are *pushed* to the registrants — is this
/// class. A QueryService owns one shared dataflow graph plus its executor
/// and accepts CQL text at runtime: RegisterQuery plans the SQL through the
/// existing frontend (parser -> planner -> optimiser), compiles the result
/// into dataflow operators, and splices them into the *running* graph;
/// DropQuery tears a query's operators back out without disturbing the
/// rest.
///
/// Multi-query sharing (NiagaraCQ lineage): every spliced node is named by
/// a fingerprint of the whole upstream prefix it terminates
/// (sql/fingerprint.h). Before creating a node the service consults its
/// shared-node index; a hit reuses the running node — state included — and
/// bumps a refcount, so K queries over the same source / filter / window
/// prefix run one copy of that prefix and fan out at the first divergence.
/// DropQuery unrefs in downstream-first order and removes only nodes whose
/// refcount reaches zero, so surviving queries keep producing byte-identical
/// output. Note the documented consequence of shared state: a query that
/// registers *later* against an already-warm prefix observes the prefix's
/// current window content, exactly like a new NiagaraCQ subscriber joining
/// a shared plan.
///
/// Results are pushed per query through bounded subscription channels
/// (credit-based); a slow subscriber exhausts only its own credits and
/// drops batches while co-subscribers and the shared pipeline keep
/// advancing. Admission control caps the number of registered queries and
/// the service's resident state bytes.

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataflow/executor.h"
#include "ft/checkpointable.h"
#include "ft/fence.h"
#include "service/operators.h"
#include "sql/catalog.h"
#include "sql/optimizer.h"

namespace cq {

using QueryId = uint64_t;

/// \brief Lifecycle of a registered query.
enum class QueryState {
  kRegistering,  // being planned / spliced (transient, under the lock)
  kRunning,      // live in the shared graph
  kDraining,     // DropQuery in progress (transient, under the lock)
  kDropped,      // torn down; id remains valid for inspection
};

const char* QueryStateToString(QueryState state);

struct ServiceConfig {
  /// Admission cap on concurrently registered (non-dropped) queries.
  size_t max_queries = 64;
  /// Admission cap on resident operator state bytes (approximate; checked
  /// at registration). 0 = unlimited.
  size_t max_state_bytes = 0;
  /// Credits (queued batches) per subscription channel.
  size_t subscription_credits = 64;
  /// Multi-query sharing. Off gives each query a private operator chain —
  /// the ablation baseline for bench E12.
  bool share_subplans = true;
  /// Optimiser configuration applied to every registered plan.
  OptimizerOptions optimizer;
  /// Optional registry for cq_service_* (and per-node cq_dataflow_*)
  /// instruments; must outlive the service.
  MetricsRegistry* metrics = nullptr;
  /// Optional span recorder: sampled pushes carry a TraceContext through
  /// the shared graph (ingest span, per-operator self-time spans, publish
  /// span, subscription queue-wait spans). Must outlive the service.
  TraceRecorder* tracer = nullptr;
  /// Every Nth push roots a new trace (0 disables, 1 traces every push).
  size_t trace_sample_every = 1;
};

/// \brief Inspection snapshot of one registered query.
struct QueryInfo {
  QueryId id = 0;
  QueryState state = QueryState::kRegistering;
  std::string sql;
  /// Operator nodes this query references (prefix chains + plan + sink).
  size_t nodes_total = 0;
  /// Of those, nodes that already existed when the query registered
  /// (shared-prefix hits).
  size_t nodes_reused = 0;
  size_t num_subscriptions = 0;
};

/// \brief A long-running continuous-query service over one shared dataflow.
///
/// Thread model: registration, teardown, subscription management and data
/// pushes serialise on one internal mutex (the executor is synchronous);
/// subscribers drain their channels concurrently without that lock.
///
/// Durability: the service is ft::Checkpointable — its image is ONE slot
/// holding a registry blob (query texts, fingerprint ref-orders, shared
/// refcounts, id counters) plus one state blob per fingerprint-named node,
/// keyed by fingerprint rather than NodeId so the image survives graph
/// renumbering. RestoreSlots re-registers every persisted query through the
/// normal SQL frontend with its original id pinned, verifies the resulting
/// fingerprints and refcounts byte-for-byte against the registry, then
/// restores node state by fingerprint. It is also ft::BarrierInjectable
/// (fan-in 1): pushes serialise on the service lock, so taking the lock IS
/// the barrier alignment — the snapshot covers exactly the pushes that
/// completed before it.
class QueryService : public ft::Checkpointable, public ft::BarrierInjectable {
 public:
  explicit QueryService(Catalog catalog, ServiceConfig config = {});

  /// \brief Registers a named input stream (must precede queries over it).
  Status RegisterStream(const std::string& name, SchemaPtr schema);

  /// \brief Plans `sql` and splices it into the running graph. Errors leave
  /// the graph exactly as it was.
  Result<QueryId> RegisterQuery(const std::string& sql);

  /// \brief Tears the query out of the graph: closes its subscriptions,
  /// removes its sink, and unrefs its shared nodes downstream-first; nodes
  /// still referenced by other queries stay untouched.
  Status DropQuery(QueryId id);

  /// \brief Opens a push subscription on a running query's output.
  Result<SubscriptionPtr> Subscribe(QueryId id);

  // --- Ingest (routed by stream name to the shared per-stream sources) ---

  Status PushRecord(const std::string& stream, Tuple tuple, Timestamp ts);
  Status PushWatermark(const std::string& stream, Timestamp watermark);
  Status Push(const std::string& stream, const StreamElement& element);
  Status PushBatch(const std::string& stream, const StreamBatch& batch);

  // --- Inspection ---

  Result<QueryInfo> GetQuery(QueryId id) const;
  std::vector<QueryInfo> ListQueries() const;

  /// \brief Live operator nodes in the shared graph (the sharing metric:
  /// K same-prefix queries need far fewer than K private chains' worth).
  size_t NumOperators() const;

  /// \brief Registered queries not yet dropped.
  size_t NumActiveQueries() const;

  /// \brief Serialized metrics registry contents ("" without a registry).
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kJson);

  const Catalog& catalog() const { return catalog_; }

  // --- Durability (ft::Checkpointable / ft::BarrierInjectable) ---

  /// \brief Attaches an idempotent output log: every subsequently registered
  /// query gets an epoch-fenced sink ("fence:q<id>", part = query id) beside
  /// its subscription sink, staging the query's output into checkpoint
  /// images for the coordinator's two-phase publish. Must be called before
  /// the first RegisterQuery (and before RestoreSlots on a recovering
  /// service). Not owned.
  void SetDurableOutputLog(ft::DurableOutputLog* log);

  Result<std::vector<std::string>> SnapshotSlots() override;
  Status RestoreSlots(const std::vector<std::string>& slots) override;

  void SetBarrierHandler(BarrierHandler handler) override;
  /// \brief Snapshots immediately under the service lock and reports slot 0
  /// to the handler: with pushes serialised on that lock, lock acquisition
  /// is the alignment point.
  Status InjectBarrier(uint64_t epoch) override;
  size_t BarrierFanIn() const override { return 1; }

  /// \brief Live shared-node refcounts by fingerprint (restore-equivalence
  /// checks and sharing diagnostics).
  std::map<std::string, size_t> SharedRefCounts() const;

  /// \brief The fingerprints a running query references, upstream to
  /// downstream — byte-identical across a checkpoint/restore cycle.
  Result<std::vector<std::string>> QueryFingerprints(QueryId id) const;

  /// \brief Approximate resident state bytes attributed to one query: the
  /// sum of StateBytesApprox over every node in its ref_order. A shared
  /// node counts fully for each query referencing it (attribution, not a
  /// partition of ApproxStateBytes) — the per-tenant admission quota in
  /// src/net charges each tenant for the state its queries depend on,
  /// shared or not.
  Result<size_t> QueryStateBytes(QueryId id) const;

 private:
  /// One fingerprint-named node in the shared graph.
  struct SharedNode {
    NodeId node = 0;
    size_t refs = 0;
  };

  /// Bookkeeping for one registered query.
  struct QueryRecord {
    QueryId id = 0;
    QueryState state = QueryState::kRegistering;
    std::string sql;
    SchemaPtr output_schema;
    /// Referenced shared fingerprints, upstream -> downstream (per-slot
    /// chains first, the plan stage last). Torn down in reverse.
    std::vector<std::string> ref_order;
    NodeId sink_node = 0;
    SubscriptionSinkOperator* sink = nullptr;  // borrowed from the graph
    /// Epoch-fenced durable sink (only with SetDurableOutputLog; never
    /// shared, part = query id).
    NodeId fence_node = 0;
    ft::EpochSinkOperator* fence = nullptr;  // borrowed from the graph
    size_t nodes_total = 0;
    size_t nodes_reused = 0;
  };

  /// Takes (or creates) the node named `fp`; on creation invokes `factory`
  /// and wires `parent -> node:port` (parent == kNoParent for sources).
  /// Appends `fp` to `rec->ref_order` and updates reuse accounting.
  static constexpr NodeId kNoParent = static_cast<NodeId>(-1);
  Result<NodeId> AcquireNode(
      const std::string& fp,
      const std::function<std::unique_ptr<Operator>()>& factory, NodeId parent,
      size_t port, QueryRecord* rec);

  /// Drops one reference to `fp`; removes the node at refcount zero.
  Status ReleaseNode(const std::string& fp);

  /// Reverse-order release of everything in `ref_order` (teardown and
  /// registration rollback share this path).
  void ReleaseAll(const std::vector<std::string>& ref_order);

  /// RegisterQuery body; callers hold mu_. RestoreSlots replays through
  /// this with next_query_id_ pinned to each persisted id.
  Result<QueryId> RegisterQueryLocked(const std::string& sql);

  /// The ordered state-key list the snapshot image is aligned with: every
  /// shared fingerprint (map order), then "fence:q<id>" per running query.
  std::vector<std::string> StateKeysLocked() const;

  /// Resolves a state key to its live operator (shared fingerprint or
  /// per-query fence sink).
  Result<Operator*> NodeForKeyLocked(const std::string& key);

  /// Snapshot body (callers hold mu_): registry + per-key node states as
  /// one blob-list slot, then the staged-buffer handoff (OnSnapshotStaged)
  /// across all live nodes.
  Result<std::vector<std::string>> SnapshotSlotsLocked();

  size_t ApproxStateBytes() const;
  size_t NumActiveQueriesLocked() const;
  static QueryInfo InfoLocked(const QueryRecord& rec);

  /// Stamps the ingest timestamp (when anything consumes it) and, on every
  /// `trace_sample_every`-th push, roots a new trace whose ingest span is
  /// recorded by FinishIngest. Scopes the executor's active trace.
  TraceContext BeginIngestLocked(const std::string& stream);
  /// Records the ingest span (dispatch overhead only; operator spans are
  /// its siblings' children) and clears the executor's active trace.
  void FinishIngestLocked(const TraceContext& tc, const std::string& stream,
                          int64_t dispatch_end_ns);

  mutable std::mutex mu_;
  Catalog catalog_;
  ServiceConfig config_;
  std::unique_ptr<PipelineExecutor> executor_;
  DataflowGraph* graph_ = nullptr;  // owned by executor_

  std::map<std::string, SharedNode> shared_;          // fingerprint -> node
  std::map<std::string, std::vector<NodeId>> sources_;  // stream -> sources
  std::map<QueryId, QueryRecord> queries_;
  QueryId next_query_id_ = 1;
  uint64_t next_sub_id_ = 1;
  uint64_t pushes_ = 0;  // trace-sampling counter

  ft::DurableOutputLog* output_log_ = nullptr;  // not owned
  BarrierHandler barrier_handler_;

  // cq_service_* instruments (null without a registry).
  Counter* registered_total_ = nullptr;
  Counter* dropped_total_ = nullptr;
  Counter* rejected_total_ = nullptr;
  Counter* nodes_created_total_ = nullptr;
  Counter* nodes_reused_total_ = nullptr;
  Gauge* active_gauge_ = nullptr;
  Gauge* live_nodes_gauge_ = nullptr;
  Gauge* subscriptions_gauge_ = nullptr;
};

}  // namespace cq

#endif  // CQ_SERVICE_SERVICE_H_
