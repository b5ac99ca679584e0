#ifndef CQ_NET_SERVER_H_
#define CQ_NET_SERVER_H_

/// \file server.h
/// \brief The async front door: one epoll loop multiplexing every client,
/// subscriber feed and observability scrape.
///
/// Layout (one thread owns everything below the listener):
///
///              accept (level-triggered)
///   listener ──────────────────────────► Connection (edge-triggered)
///                                          ├─ FrameReader   ◄─ read until EAGAIN
///                                          ├─ dispatcher    (length-prefixed text
///                                          │                 protocol, or HTTP GET
///                                          │                 sniffed on first bytes)
///                                          └─ WriteBuffer   ─► write until EAGAIN,
///                                                              EPOLLOUT on demand
///   SubscriberMux ── Pump() on loop tick ──► per-connection WriteBuffers
///        │              (egress token gate per tenant)
///        └─ slow-consumer watch: pending > watermark for > grace ⇒ evict
///
/// The wire protocol is the query_server protocol (uint32 big-endian length
/// + text payload) extended with:
///
///   TENANT <name>          bind this connection to a tenant (default
///                          "default"); REGISTER admission and egress pacing
///                          use that tenant's quota
///   LISTEN <qid>           push-mode subscription: results arrive unpolled
///                          as "DATA <sid> t=<ts> <tuple>" frames, then
///                          "CLOSED <sid>" when the query is dropped
///   STREAM <name> <cols> [key=<col,...>]
///                          the optional key names shard-key columns
///                          (sharded backend only)
///
/// Ingest runs: consecutive PUSH/WATERMARK frames for one stream in one
/// read burst are pushed as one StreamBatch (ServiceBackend::PushBatch). A
/// run ends at any other command, another stream, a frame that does not
/// parse, or the end of the burst. Every frame still gets its own reply,
/// in frame order: the run's status, or ERR for the malformed frame.
///
/// Egress sharing: every subscription of a query holds a handle on one
/// result payload per watermark (StreamBatch copies share their rows). A
/// pump pass renders each payload's " t=<ts> <tuple>" slices once; every
/// feed that polled it writes its own "DATA <sid>" prefix ahead of the
/// shared slice, so the bytes on the wire are those of a per-feed render.
///
/// Quota semantics: the mux asks the tenant's egress gate once per staged
/// batch how many of its frames fit. A tenant over its egress budget is
/// *throttled* — the mux stops copying its frames. An entry holds at most the one batch it was
/// delivering and polls its feed again only once that batch is out, so
/// results back up in the bounded subscription channels (dropping there,
/// counted per subscription, once credits run out), not in mux memory.
/// Throttling never closes a connection. Eviction is reserved for
/// consumers that stop reading: a connection whose write backlog stays above
/// the high watermark for the whole eviction grace is closed and its feeds
/// cancelled.
///
/// Graceful drain (SIGTERM → ShutdownAsync, one async-signal-safe write to
/// the loop's eventfd): stop accepting, run every feed dry through the mux
/// (egress gate bypassed — quota throttling must not hold the process
/// hostage), flush write buffers until empty or the drain deadline, run the
/// drain hook (the embedding process checkpoints and publishes staged fence
/// frames there), then close everything and return from Run().

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/backend.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/quotas.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cq::net {

/// \brief Destination for multiplexed subscriber frames. Real connections
/// implement this over their WriteBuffer; benches and tests plug in mock
/// sinks, so 10k subscribers need no file descriptors.
class MuxSink {
 public:
  virtual ~MuxSink() = default;
  /// \brief Accepts wire bytes for eventual delivery. False means the sink
  /// is defunct (its entry will be dropped).
  virtual bool Deliver(std::string_view wire) = 0;
  /// \brief Bytes accepted but not yet handed to the consumer — the
  /// slow-consumer watermark reads this.
  virtual size_t PendingBytes() const = 0;
};

struct MuxConfig {
  /// A sink whose backlog exceeds this stops receiving new frames...
  size_t write_high_watermark = 1u << 20;  // 1 MiB
  /// ...and is evicted if the backlog stays above it this long.
  int64_t eviction_grace_ns = 2'000'000'000;  // 2 s
  /// Optional per-tenant egress pacing (not owned; may be null).
  TenantQuotas* quotas = nullptr;
  /// Optional registry for cq_net_subscribers / cq_net_evicted_total.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Drains bounded subscription channels into sinks, with per-tenant
/// egress pacing and slow-consumer eviction. Single-threaded: Pump runs on
/// the owner's loop (or the bench's driver thread).
class SubscriberMux {
 public:
  explicit SubscriberMux(MuxConfig config);

  /// \brief Registers a feed: frames render as "DATA <sid> ..." and deliver
  /// to `sink` (not owned; must outlive the entry). Returns the entry id.
  uint64_t Add(uint64_t sid, std::string tenant,
               std::unique_ptr<SubscriberFeed> feed, MuxSink* sink);

  /// \brief Drops every entry delivering to `sink`, cancelling the feeds
  /// (connection teardown and eviction both land here).
  void RemoveSink(MuxSink* sink);

  /// \brief Invoked (after the pump pass) for each sink whose backlog
  /// out-stayed the eviction grace. The handler owns the consequence —
  /// a server closes the connection and calls RemoveSink.
  void SetEvictHandler(std::function<void(MuxSink*)> handler) {
    evict_handler_ = std::move(handler);
  }

  /// \brief One pump pass at `now_ns`: per entry whose sink is under the
  /// high watermark, finish the staged batch, then poll and deliver batch
  /// by batch until the feed runs dry or the tenant runs out of egress
  /// tokens (the rest of that batch stays staged). Returns frames
  /// delivered.
  size_t Pump(int64_t now_ns);

  /// \brief Drain-path pump: every feed run dry and delivered with the
  /// egress gate bypassed. No eviction. Returns frames delivered.
  size_t FlushAll();

  size_t NumEntries() const { return entries_.size(); }
  uint64_t frames_delivered() const { return frames_delivered_; }
  /// \brief Evictions so far. Safe to read from any thread: a count seen
  /// here includes the eviction's entry removal.
  uint64_t num_evicted() const {
    return num_evicted_.load(std::memory_order_acquire);
  }

 private:
  /// One polled batch's records rendered once per pass and shared by every
  /// entry that polled the same payload (defined in server.cc).
  struct Rendered;
  struct Entry {
    uint64_t sid = 0;
    std::string tenant;
    std::unique_ptr<SubscriberFeed> feed;
    MuxSink* sink = nullptr;
    std::string prefix;  // "DATA <sid>", written ahead of every slice
    /// The batch being delivered and its next undelivered record. Kept
    /// across pumps while the tenant is throttled; the feed is polled only
    /// once it is used up, so a backlog waits in the bounded channel.
    std::shared_ptr<const Rendered> staged;
    size_t next = 0;
    bool closed_notified = false;  // "CLOSED <sid>" delivered
  };
  struct SinkState {
    int64_t over_since_ns = -1;  // -1 = under the watermark
  };

  /// Delivers the staged batch, then polls and delivers further batches
  /// until the feed runs dry (then "CLOSED <sid>" if it closed) or the
  /// egress gate refuses a frame. `force` bypasses the gate.
  void DeliverEntry(Entry* entry, int64_t now_ns, bool force);
  /// How many of the frames sized in `frame_bytes_` the egress gate admits
  /// for `entry`'s tenant: one quota call per batch, not per frame.
  size_t Admit(const Entry& entry, int64_t now_ns, bool force);
  /// The rendering of `batch`, shared with every entry that polled the
  /// same payload earlier in this pass.
  std::shared_ptr<const Rendered> Render(StreamBatch batch);
  /// Delivers one admitted frame whose payload is `head` + `body`.
  void SendFrame(Entry* entry, std::string_view head, std::string_view body);
  /// Ends a pass: retires entries whose CLOSED frame shipped and unpins
  /// the pass's renderings.
  void EndPass();

  MuxConfig config_;
  std::map<uint64_t, Entry> entries_;  // entry id -> entry
  std::map<MuxSink*, SinkState> sinks_;
  uint64_t next_entry_id_ = 1;
  uint64_t frames_delivered_ = 0;
  std::atomic<uint64_t> num_evicted_{0};
  std::function<void(MuxSink*)> evict_handler_;
  /// Renderings of this pass, keyed by payload address; each pins its
  /// batch, so an address cannot be reused while it is a key.
  std::unordered_map<const StreamElement*, std::shared_ptr<const Rendered>>
      render_cache_;
  std::string frame_;  // reused frame assembly buffer
  std::vector<uint64_t> frame_bytes_;  // wire sizes of the frames to admit
  Gauge* subscribers_gauge_ = nullptr;
  Counter* evicted_counter_ = nullptr;
};

struct ServerConfig {
  /// 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Per-connection write backlog that marks a slow consumer.
  size_t write_high_watermark = 1u << 20;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Bounding
  /// the kernel queue makes the user-space backlog (and therefore
  /// slow-consumer detection) responsive instead of hiding megabytes of
  /// lag in autotuned socket buffers.
  int so_sndbuf = 0;
  /// How long a consumer may stay slow before eviction.
  int64_t eviction_grace_ms = 2000;
  /// Pump / timer cadence of the loop.
  int tick_ms = 10;
  /// Wall-clock bound on the graceful-drain flush phase.
  int64_t drain_deadline_ms = 5000;
  /// Tenant quotas (not owned). Null = server-private unlimited instance.
  TenantQuotas* quotas = nullptr;
  /// Registry for cq_net_* instruments (not owned; may be null).
  MetricsRegistry* metrics = nullptr;
};

/// \brief The epoll front door over one ServiceBackend.
class Server {
 public:
  Server(ServiceBackend* backend, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds and listens on 127.0.0.1:config.port (SOMAXCONN backlog)
  /// and initialises the loop. port() is valid afterwards.
  Status Init();

  uint16_t port() const { return port_; }

  /// \brief Registers an HTTP GET route served on the *same* port and loop
  /// (the observability plane: /metrics, /queries, ...). HTTP requests are
  /// sniffed by first bytes: "GET " cannot be a frame header under the
  /// 1 MiB cap.
  void AddHttpRoute(std::string path, std::string content_type,
                    std::function<std::string()> handler);

  /// \brief Runs the loop until a shutdown request completes its drain.
  /// Blocks the calling thread.
  void Run();

  /// \brief Requests graceful drain. Async-signal-safe (one eventfd write):
  /// call it from the SIGTERM handler or any thread.
  void ShutdownAsync() { loop_.Wake(1); }

  /// \brief Runs between "every subscriber flushed" and "connections
  /// closed" during drain — the embedding process triggers its barrier
  /// checkpoint here so staged fence frames publish before exit.
  void SetDrainHook(std::function<Status()> hook) {
    drain_hook_ = std::move(hook);
  }

  size_t NumConnections() const { return conns_.size(); }
  SubscriberMux* mux() { return &mux_; }
  TenantQuotas* quotas() { return quotas_; }

 private:
  class Connection;
  friend class Connection;

  void HandleAccept();
  void HandleConnEvent(int fd, uint32_t events);
  void CloseConnection(Connection* conn, const std::string& reason);
  /// Flushes `conn`'s write buffer; arms/disarms EPOLLOUT as needed.
  /// Returns false when the connection died (and was closed).
  bool FlushConnection(Connection* conn);
  /// Pumps the mux and flushes every other connection it wrote to (the
  /// caller flushes `conn`). False when the pump evicted `conn`.
  bool PumpMux(Connection* conn);
  void OnTick();
  void BeginDrain();
  /// Tick-driven drain progress check; stops the loop when flushed or the
  /// deadline passes.
  void ContinueDrain();

  /// One parsed PUSH or WATERMARK frame, and a run of consecutive ones for
  /// one stream from one read burst (both defined in server.cc).
  struct IngestFrame;
  struct IngestRun;
  /// Takes a PUSH or WATERMARK frame into `run`, first pushing the run when
  /// the frame names another stream. A frame that does not parse pushes
  /// the run and is answered ERR. False when `line` is another command.
  bool GatherIngest(Connection* conn, const std::string& line, IngestRun* run);
  /// Parses the arguments of a PUSH (`push`) or WATERMARK frame; a PUSH
  /// reuses `run`'s schema when it names the run's stream. Returns the ERR
  /// reply, or "" on success.
  std::string ParseIngest(bool push, const std::string& rest,
                          const IngestRun& run, IngestFrame* out);
  /// Pushes `run` as one batch through ServiceBackend::PushBatch and
  /// answers each of its frames, in order, with the run's status.
  void FlushIngest(Connection* conn, IngestRun* run);
  std::string DispatchCommand(Connection* conn, const std::string& line);
  std::string HandleHttp(Connection* conn, const std::string& request);

  ServiceBackend* backend_;  // not owned
  ServerConfig config_;
  EventLoop loop_;
  SubscriberMux mux_;
  TenantQuotas* quotas_;  // config_.quotas or &owned_quotas_
  TenantQuotas owned_quotas_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::map<int, std::unique_ptr<Connection>> conns_;
  /// Which tenant registered each query (DROP releases that tenant's slot).
  std::map<cq::QueryId, std::string> query_tenant_;
  struct HttpRoute {
    std::string content_type;
    std::function<std::string()> handler;
  };
  std::map<std::string, HttpRoute> http_routes_;
  std::function<Status()> drain_hook_;
  bool draining_ = false;
  int64_t drain_deadline_ns_ = 0;

  // cq_net_* instruments (null without a registry).
  Gauge* connections_gauge_ = nullptr;
  Counter* accepted_counter_ = nullptr;
  Counter* frames_counter_ = nullptr;
  Histogram* accept_us_ = nullptr;
  Histogram* read_us_ = nullptr;
  Histogram* write_us_ = nullptr;
};

// --- Protocol helpers (shared with tests and the example binary) -----------

/// \brief Splits a comma-separated list (no escaping; empty fields kept).
std::vector<std::string> SplitCsv(const std::string& s);

/// \brief Parses "name:type,..." (int64, double, string, bool) to a schema.
Result<SchemaPtr> ParseSchema(const std::string& spec);

/// \brief Parses a CSV row against `schema`.
Result<Tuple> ParseRow(const std::string& csv, const Schema& schema);

}  // namespace cq::net

#endif  // CQ_NET_SERVER_H_
