/// \file query_server.cpp
/// \brief The survey's Fig. 1 as a process: a long-running continuous-query
/// server that accepts SQL registrations at runtime and pushes results back.
///
/// Two modes:
///
///   query_server                 in-process demo: registers two queries that
///                                share a prefix, streams trades through the
///                                shared graph, prints pushed results and the
///                                sharing metrics. It drives the same
///                                net::ServiceBackend verbs that serve mode
///                                dispatches protocol commands into.
///
///     --checkpoint-dir DIR       make the demo durable: fence each query's
///                                output through an idempotent output log in
///                                DIR/out and take a barrier checkpoint of
///                                the whole service (query registry + window
///                                and plan state) into DIR/snap before exit.
///     --recover                  with --checkpoint-dir: instead of
///                                registering queries, restore the service
///                                from the latest checkpoint in DIR — the
///                                registry replays through the SQL frontend,
///                                node state comes back by fingerprint — then
///                                stream a second batch of trades whose
///                                results prove the windows survived.
///     --shards N                 run on a ShardedQueryService of N replicas:
///                                `trades` partitions by `sym`, records route
///                                by key hash, subscriptions merge across
///                                replicas.
///
///   query_server --serve PORT    async TCP server on one epoll loop
///                                (net::Server): every client, subscriber
///                                feed and observability scrape multiplexes
///                                through the same thread. The protocol is
///                                length-prefixed text (uint32 big-endian
///                                frame length + payload), one command per
///                                frame:
///
///     TENANT <name>                  bind the connection to a tenant
///     STREAM <name> <col:type,...> [key=<col,...>]
///                                    register an input stream (types:
///                                    int64, double, string, bool); the key
///                                    names shard columns (--shards only)
///     REGISTER <sql>                 -> OK id=<qid>  (tenant quota applies)
///     DROP <qid>                     -> OK
///     SUBSCRIBE <qid>                -> OK sub=<sid>       (pull mode)
///     POLL <sid>                     -> one DATA frame per queued record,
///                                       then OK n=<count>
///     LISTEN <qid>                   -> OK sub=<sid> push  (push mode:
///                                       "DATA <sid> t=.. <tuple>" frames
///                                       arrive unpolled; "CLOSED <sid>"
///                                       when the query drops)
///     PUSH <name> <ts> <v1,v2,...>   -> OK   (CSV row per stream schema)
///     WATERMARK <name> <ts>          -> OK
///                                       Consecutive PUSH/WATERMARK frames
///                                       for one stream in one read burst
///                                       are pushed as one batch; each
///                                       still gets its own reply, in
///                                       order: the batch's status, or ERR
///                                       for a frame that does not parse
///                                       (its neighbours are applied)
///     STATS                          -> OK + service counters
///     QUIT                           -> OK, closes the connection
///
///     Serve-mode flags:
///       --shards N             front a ShardedQueryService (records route
///                              by each stream's key= columns)
///       --checkpoint-dir DIR   durable serve: fence query output through
///                              DIR/out and checkpoint into DIR/snap on
///                              graceful drain
///       --recover              restore the service from DIR before
///                              listening (unsharded serve only: a sharded
///                              image validates against streams that would
///                              have to be re-registered first)
///       --tenant-quota NAME:MAXQ:MAXBYTES:BPS[:BURST]
///                              per-tenant admission quota: query count,
///                              state bytes, egress bytes/sec (token-bucket
///                              rate), optional burst. 0 = unlimited; NAME
///                              "*" sets the default quota. Repeatable.
///       --optimizer-rules SPEC plan-optimizer kill switches (any mode, not
///                              just serve): "all" (default), "none", or a
///                              comma list of rule toggles such as
///                              "all,-fuse" / "pushdown,reorder"
///
///     The same port answers HTTP GETs (/metrics /queries /traces
///     /flightrecorder) from the same loop. SIGTERM drains gracefully:
///     stop accepting, flush every subscriber feed, checkpoint (publishing
///     staged fence frames), close, exit 0.
///
///   A numeric flag that is not wholly a number in range (port 0-65535,
///   shards >= 1) prints the usage line and exits 2.
///
///   Errors come back as a single "ERR <status>" frame; the connection
///   survives them. Try it with a few lines of Python:
///
///     import socket, struct
///     def send(s, m): s.sendall(struct.pack(">I", len(m)) + m.encode())
///     def recv(s):
///         n = struct.unpack(">I", s.recv(4))[0]; return s.recv(n).decode()
///     s = socket.create_connection(("127.0.0.1", 7878))
///     send(s, "STREAM trades sym:string,price:int64,qty:int64"); print(recv(s))
///     send(s, "REGISTER SELECT sym FROM trades [Range 100] WHERE price > 10")
///     print(recv(s))

#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ft/coordinator.h"
#include "ft/fence.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "net/backend.h"
#include "net/quotas.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "service/service.h"
#include "shard/sharded_service.h"
#include "sql/optimizer.h"

namespace cq {
namespace {

// Set from --optimizer-rules (e.g. "none", "all,-fuse", "pushdown"); the
// default enables every rule. Applied to every service this binary builds.
OptimizerOptions g_optimizer;

struct Options {
  bool serve = false;
  uint16_t port = 7878;
  size_t shards = 1;
  std::string checkpoint_dir;
  bool recover = false;
  /// name -> quota ("*" = default quota).
  std::vector<std::pair<std::string, net::TenantQuota>> quotas;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string QueriesJson(const std::vector<QueryInfo>& queries) {
  std::string out = "[";
  bool first = true;
  for (const auto& info : queries) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":" + std::to_string(info.id) + ",\"state\":\"" +
           QueryStateToString(info.state) + "\",\"sql\":\"" +
           JsonEscape(info.sql) + "\",\"nodes_total\":" +
           std::to_string(info.nodes_total) + ",\"nodes_reused\":" +
           std::to_string(info.nodes_reused) + ",\"subscriptions\":" +
           std::to_string(info.num_subscriptions) + "}";
  }
  return out + "]";
}

// --- Shared: the service and its durability rig ---------------------------

/// What every mode runs against: one QueryService behind LocalBackend, or N
/// replicas behind ShardedBackend. With a checkpoint dir, a snapshot store
/// and barrier coordinator wrap the service; only the local service also
/// fences its output through an idempotent output log (the sharded one
/// checkpoints state only).
struct Service {
  // Declared before the services so they outlive them: a service calls its
  // barrier handler (the coordinator) and writes the log.
  std::unique_ptr<ft::DurableOutputLog> log;
  std::unique_ptr<ft::SnapshotStore> store;
  std::unique_ptr<ft::CheckpointCoordinator> coord;
  std::unique_ptr<QueryService> local;
  std::unique_ptr<shard::ShardedQueryService> sharded;
  std::unique_ptr<net::ServiceBackend> backend;
  ft::Checkpointable* checkpointable = nullptr;
  ft::BarrierInjectable* barrier_target = nullptr;
};

/// `watermark_fn` stamps each checkpoint's event-time position.
Status BuildService(const Options& opts, MetricsRegistry* registry,
                    TraceRecorder* tracer,
                    std::function<Timestamp()> watermark_fn, Service* svc) {
  ServiceConfig config;
  config.metrics = registry;
  config.tracer = tracer;
  config.trace_sample_every = 1;
  config.optimizer = g_optimizer;
  if (opts.shards > 1) {
    svc->sharded =
        std::make_unique<shard::ShardedQueryService>(opts.shards, config);
    svc->backend = std::make_unique<net::ShardedBackend>(svc->sharded.get());
    svc->checkpointable = svc->sharded.get();
    svc->barrier_target = svc->sharded.get();
  } else {
    svc->local = std::make_unique<QueryService>(Catalog{}, config);
    svc->backend = std::make_unique<net::LocalBackend>(svc->local.get());
    svc->checkpointable = svc->local.get();
    svc->barrier_target = svc->local.get();
  }
  if (opts.checkpoint_dir.empty()) return Status::OK();

  svc->store =
      std::make_unique<ft::SnapshotStore>(opts.checkpoint_dir + "/snap");
  CQ_RETURN_NOT_OK(svc->store->Init());
  svc->coord = std::make_unique<ft::CheckpointCoordinator>(svc->checkpointable,
                                                           svc->store.get());
  if (svc->local != nullptr) {
    svc->log =
        std::make_unique<ft::DurableOutputLog>(opts.checkpoint_dir + "/out");
    CQ_RETURN_NOT_OK(svc->log->Init());
    svc->local->SetDurableOutputLog(svc->log.get());
    svc->coord->SetOutputLog(svc->log.get());
  }
  svc->coord->SetWatermarkFn(std::move(watermark_fn));
  svc->barrier_target->SetBarrierHandler(
      svc->coord->Handler(svc->barrier_target->BarrierFanIn()));
  return Status::OK();
}

/// Restores the whole service — registered queries, shared graph, window
/// and aggregation state — from the newest durable epoch, republishing any
/// staged output the dead process never got to publish.
Result<ft::RecoveryReport> Recover(Service* svc) {
  ft::RecoveryManager recovery(svc->store.get());
  recovery.SetOutputLog(svc->log.get());
  CQ_ASSIGN_OR_RETURN(ft::RecoveryReport report,
                      recovery.Recover(svc->checkpointable, nullptr));
  if (report.restored) svc->coord->ResumeFromEpoch(report.epoch);
  return report;
}

// --- Demo mode -------------------------------------------------------------

int RunDemo(const Options& opts) {
  MetricsRegistry registry;
  TraceRecorder tracer;
  Timestamp ts = 0;
  Service svc;
  Status st =
      BuildService(opts, &registry, &tracer, [&ts] { return ts; }, &svc);
  if (!st.ok()) {
    std::fprintf(stderr, "checkpoint dir: %s\n", st.ToString().c_str());
    return 1;
  }
  net::ServiceBackend& backend = *svc.backend;

  // A sharded image validates the catalog's shard keys on restore, so the
  // sharded stream registers first; a local image carries its own catalog.
  if (svc.sharded != nullptr || !opts.recover) {
    std::vector<size_t> shard_key;
    if (svc.sharded != nullptr) shard_key = {0};  // partition by sym
    st = backend.RegisterStream("trades",
                                Schema::Make({{"sym", ValueType::kString},
                                              {"price", ValueType::kInt64},
                                              {"qty", ValueType::kInt64}}),
                                std::move(shard_key));
    if (!st.ok()) {
      std::fprintf(stderr, "RegisterStream: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (opts.recover) {
    auto report = Recover(&svc);
    if (!report.ok()) {
      std::fprintf(stderr, "recover: %s\n", report.status().ToString().c_str());
      return 1;
    }
    if (!report->restored) {
      std::fprintf(stderr, "recover: no checkpoint found in %s\n",
                   opts.checkpoint_dir.c_str());
      return 1;
    }
    ts = report->watermark > 0 ? report->watermark : 0;
    std::printf("recovered %zu queries at epoch %llu (watermark %lld, "
                "%zu shard%s)\n",
                backend.NumActiveQueries(),
                static_cast<unsigned long long>(report->epoch),
                static_cast<long long>(report->watermark), opts.shards,
                opts.shards == 1 ? "" : "s");
  } else {
    // Both queries share the source -> filter -> window prefix; they diverge
    // only in their residual plans, so the graph holds one copy of the
    // prefix.
    auto big = backend.RegisterQuery(
        "SELECT sym, price FROM trades [Range 100] WHERE price > 10");
    auto volume = backend.RegisterQuery(
        "SELECT sym, SUM(qty) AS total FROM trades [Range 100] "
        "WHERE price > 10 GROUP BY sym");
    if (!big.ok() || !volume.ok()) {
      std::fprintf(stderr, "RegisterQuery failed\n");
      return 1;
    }
  }

  std::vector<std::unique_ptr<net::SubscriberFeed>> feeds;
  for (const auto& info : backend.ListQueries()) {
    auto feed = backend.Subscribe(info.id);
    if (feed.ok()) feeds.push_back(std::move(*feed));
  }

  std::printf("%s 2 queries, %zu live operators per shard (unshared would "
              "need %zu)\n",
              opts.recover ? "recovered" : "registered",
              backend.NumOperators(), size_t{10});
  for (const auto& info : backend.ListQueries()) {
    std::printf("  query %llu: %zu nodes, %zu reused — %s\n",
                static_cast<unsigned long long>(info.id), info.nodes_total,
                info.nodes_reused, info.sql.c_str());
  }

  struct Row {
    const char* sym;
    int64_t price, qty;
  };
  // The recovered run streams a second act: its aggregate totals include the
  // first act's rows, still resident in the restored [Range 100] windows.
  const Row first_act[] = {{"ACME", 12, 100}, {"ACME", 8, 50},
                           {"GLOBEX", 40, 10}, {"ACME", 15, 30},
                           {"GLOBEX", 9, 99},  {"GLOBEX", 41, 5}};
  const Row second_act[] = {{"ACME", 20, 7}, {"GLOBEX", 44, 3},
                            {"ACME", 13, 11}};
  for (const Row& r : opts.recover
                          ? std::vector<Row>(std::begin(second_act),
                                             std::end(second_act))
                          : std::vector<Row>(std::begin(first_act),
                                             std::end(first_act))) {
    ++ts;
    (void)backend.PushRecord(
        "trades", Tuple{Value(r.sym), Value(r.price), Value(r.qty)}, ts);
    (void)backend.PushWatermark("trades", ts);
  }

  for (const auto& feed : feeds) {
    std::printf("query %llu output:\n",
                static_cast<unsigned long long>(feed->QueryId()));
    StreamBatch batch;
    while (feed->TryPoll(&batch)) {
      for (const auto& e : batch) {
        if (e.is_record()) {
          std::printf("  t=%lld %s\n", static_cast<long long>(e.timestamp),
                      e.tuple.ToString().c_str());
        }
      }
    }
  }

  if (svc.coord != nullptr) {
    auto epoch = svc.coord->TriggerBarrierCheckpoint(svc.barrier_target);
    st = epoch.ok() ? svc.coord->WaitForEpoch(*epoch) : epoch.status();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed epoch %llu",
                static_cast<unsigned long long>(*epoch));
    if (svc.log != nullptr) {
      auto published =
          ft::DurableOutputLog(opts.checkpoint_dir + "/out").ReadAll();
      std::printf("; %zu fenced records published to %s/out",
                  published.ok() ? published->size() : size_t{0},
                  opts.checkpoint_dir.c_str());
    }
    std::printf("\n");
  }

  std::printf("METRICS_JSON %s\n", registry.ToJson().c_str());
  return 0;
}

// --- Serve mode (async epoll front door) -----------------------------------

net::Server* g_server = nullptr;

/// SIGTERM/SIGINT: one async-signal-safe eventfd write; the loop thread
/// runs the graceful drain.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->ShutdownAsync();
}

int RunServer(const Options& opts) {
  MetricsRegistry registry;
  TraceRecorder tracer;
  // The checkpoint runs inside the graceful drain (SIGTERM) instead of at
  // end-of-script.
  Service svc;
  Status st = BuildService(opts, &registry, &tracer,
                           [] { return Timestamp{0}; }, &svc);
  if (!st.ok()) {
    std::fprintf(stderr, "checkpoint dir: %s\n", st.ToString().c_str());
    return 1;
  }

  if (opts.recover) {
    auto report = Recover(&svc);
    if (!report.ok()) {
      std::fprintf(stderr, "recover: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    if (report->restored) {
      std::printf("recovered %zu queries at epoch %llu\n",
                  svc.backend->NumActiveQueries(),
                  static_cast<unsigned long long>(report->epoch));
    } else {
      std::printf("no checkpoint in %s; starting fresh\n",
                  opts.checkpoint_dir.c_str());
    }
  }

  net::TenantQuotas quotas(&registry);
  for (const auto& [name, quota] : opts.quotas) {
    if (name == "*") {
      quotas.SetDefaultQuota(quota);
    } else {
      quotas.SetQuota(name, quota);
    }
  }

  net::ServerConfig sconf;
  sconf.port = opts.port;
  sconf.quotas = &quotas;
  sconf.metrics = &registry;
  net::Server server(svc.backend.get(), sconf);

  // The observability routes ride the same loop and port as the protocol.
  net::ServiceBackend* backend = svc.backend.get();
  server.AddHttpRoute("/metrics", "text/plain; version=0.0.4", [&registry] {
    return registry.Dump(MetricsFormat::kText);
  });
  server.AddHttpRoute("/queries", "application/json", [backend] {
    return QueriesJson(backend->ListQueries());
  });
  server.AddHttpRoute("/traces", "application/json",
                      [&tracer] { return tracer.ToJson(); });
  server.AddHttpRoute("/flightrecorder", "application/json",
                      [] { return FlightRecorder::Global().ToJson(); });

  st = server.Init();
  if (!st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }

  if (svc.coord != nullptr) {
    // Graceful drain, after subscriber flush and before close: barrier
    // checkpoint the service, publishing every staged fence frame through
    // the idempotent output log.
    server.SetDrainHook([&svc] {
      auto epoch = svc.coord->TriggerBarrierCheckpoint(svc.barrier_target);
      CQ_RETURN_NOT_OK(epoch.status());
      CQ_RETURN_NOT_OK(svc.coord->WaitForEpoch(*epoch));
      std::printf("drain checkpoint: epoch %llu durable\n",
                  static_cast<unsigned long long>(*epoch));
      return Status::OK();
    });
  }

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  std::printf("query_server listening on 127.0.0.1:%u (%zu shard%s, epoll "
              "front door; SIGTERM drains gracefully)\n",
              server.port(), opts.shards, opts.shards == 1 ? "" : "s");
  std::fflush(stdout);
  server.Run();
  g_server = nullptr;

  std::printf("drained: %zu quer%s still registered at shutdown\n",
              backend->NumActiveQueries(),
              backend->NumActiveQueries() == 1 ? "y" : "ies");
  return 0;
}

// --- Flag parsing ----------------------------------------------------------

/// Parses all of `text` as a base-10 integer within [lo, hi] (and within
/// T's range).
template <typename T>
bool ParseNumber(std::string_view text, T* out,
                 T lo = std::numeric_limits<T>::min(),
                 T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = text.data() + text.size();
  auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) return false;
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

/// Parses NAME:MAXQ:MAXBYTES:BPS[:BURST] ("*" as NAME = default quota).
bool ParseTenantQuotaFlag(const std::string& spec,
                          std::pair<std::string, net::TenantQuota>* out) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : spec) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  if (parts.size() < 4 || parts.size() > 5 || parts[0].empty()) return false;
  net::TenantQuota& q = out->second;
  out->first = parts[0];
  q.egress_burst_bytes = 0;
  return ParseNumber(parts[1], &q.max_queries) &&
         ParseNumber(parts[2], &q.max_state_bytes) &&
         ParseNumber(parts[3], &q.egress_bytes_per_sec) &&
         (parts.size() == 4 || ParseNumber(parts[4], &q.egress_burst_bytes));
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--serve [port]] [--shards N] "
               "[--checkpoint-dir DIR [--recover]] "
               "[--optimizer-rules SPEC] "
               "[--tenant-quota NAME:MAXQ:MAXBYTES:BPS[:BURST]]...\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace cq

int main(int argc, char** argv) {
  cq::Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      opts.serve = true;
      if (i + 1 < argc && argv[i + 1][0] != '-' &&
          !cq::ParseNumber(argv[++i], &opts.port)) {
        return cq::Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      opts.checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      opts.recover = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      int n = 0;
      if (!cq::ParseNumber(argv[++i], &n, 1)) return cq::Usage(argv[0]);
      opts.shards = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--tenant-quota") == 0 && i + 1 < argc) {
      std::pair<std::string, cq::net::TenantQuota> quota;
      if (!cq::ParseTenantQuotaFlag(argv[++i], &quota)) {
        std::fprintf(stderr,
                     "--tenant-quota wants NAME:MAXQ:MAXBYTES:BPS[:BURST]\n");
        return 2;
      }
      opts.quotas.push_back(std::move(quota));
    } else if (std::strcmp(argv[i], "--optimizer-rules") == 0 && i + 1 < argc) {
      auto o = cq::OptimizerOptionsFromSpec(argv[++i]);
      if (!o.ok()) {
        std::fprintf(stderr, "--optimizer-rules: %s\n",
                     o.status().ToString().c_str());
        return 2;
      }
      cq::g_optimizer = *o;
    } else {
      return cq::Usage(argv[0]);
    }
  }
  if (!opts.serve && !opts.quotas.empty()) {
    std::fprintf(stderr, "--tenant-quota applies to serve mode only\n");
    return 2;
  }
  if (opts.recover && opts.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--recover requires --checkpoint-dir\n");
    return 2;
  }
  if (opts.serve && opts.recover && opts.shards > 1) {
    std::fprintf(stderr,
                 "--recover --shards is unsupported in serve mode: a sharded "
                 "image validates against streams that must be registered "
                 "(with their shard keys) before restore\n");
    return 2;
  }
  return opts.serve ? cq::RunServer(opts) : cq::RunDemo(opts);
}
