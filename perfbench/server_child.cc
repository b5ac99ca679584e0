#include "server_child.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/backend.h"
#include "net/quotas.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/service.h"
#include "shard/sharded_service.h"

namespace cq::perfbench {

namespace {

/// Time spent inside the two public seams the server calls through. The
/// loop is single-threaded, so plain counters suffice.
struct SeamTotals {
  int64_t push_ns = 0;
  uint64_t records = 0;
  int64_t watermark_ns = 0;
  uint64_t watermarks = 0;
  int64_t register_ns = 0;
  uint64_t registers = 0;
  int64_t poll_ns = 0;
  uint64_t polls = 0;
  uint64_t polled_records = 0;
};

class TimedFeed : public net::SubscriberFeed {
 public:
  TimedFeed(std::unique_ptr<net::SubscriberFeed> inner, SeamTotals* totals)
      : inner_(std::move(inner)), totals_(totals) {}

  bool TryPoll(StreamBatch* out) override {
    const int64_t t0 = MonotonicNanos();
    const bool got = inner_->TryPoll(out);
    totals_->poll_ns += MonotonicNanos() - t0;
    ++totals_->polls;
    if (got) {
      for (const auto& e : *out) {
        if (e.is_record()) ++totals_->polled_records;
      }
    }
    return got;
  }
  void Cancel() override { inner_->Cancel(); }
  bool Closed() const override { return inner_->Closed(); }
  size_t Depth() const override { return inner_->Depth(); }
  uint64_t QueryId() const override { return inner_->QueryId(); }

 private:
  std::unique_ptr<net::SubscriberFeed> inner_;
  SeamTotals* totals_;
};

class TimedBackend : public net::ServiceBackend {
 public:
  TimedBackend(net::ServiceBackend* inner, SeamTotals* totals)
      : inner_(inner), totals_(totals) {}

  Status RegisterStream(const std::string& name, SchemaPtr schema,
                        std::vector<size_t> shard_key) override {
    return inner_->RegisterStream(name, std::move(schema),
                                  std::move(shard_key));
  }
  Result<cq::QueryId> RegisterQuery(const std::string& sql) override {
    const int64_t t0 = MonotonicNanos();
    auto id = inner_->RegisterQuery(sql);
    totals_->register_ns += MonotonicNanos() - t0;
    ++totals_->registers;
    return id;
  }
  Status DropQuery(cq::QueryId id) override { return inner_->DropQuery(id); }
  Result<std::unique_ptr<net::SubscriberFeed>> Subscribe(
      cq::QueryId id) override {
    CQ_ASSIGN_OR_RETURN(std::unique_ptr<net::SubscriberFeed> feed,
                        inner_->Subscribe(id));
    return std::unique_ptr<net::SubscriberFeed>(
        new TimedFeed(std::move(feed), totals_));
  }
  Status PushRecord(const std::string& stream, Tuple tuple,
                    Timestamp ts) override {
    const int64_t t0 = MonotonicNanos();
    Status st = inner_->PushRecord(stream, std::move(tuple), ts);
    totals_->push_ns += MonotonicNanos() - t0;
    ++totals_->records;
    return st;
  }
  Status PushWatermark(const std::string& stream,
                       Timestamp watermark) override {
    const int64_t t0 = MonotonicNanos();
    Status st = inner_->PushWatermark(stream, watermark);
    totals_->watermark_ns += MonotonicNanos() - t0;
    ++totals_->watermarks;
    return st;
  }
  Result<SchemaPtr> StreamSchema(const std::string& name) const override {
    return inner_->StreamSchema(name);
  }
  Result<size_t> QueryStateBytes(cq::QueryId id) const override {
    return inner_->QueryStateBytes(id);
  }
  std::vector<QueryInfo> ListQueries() const override {
    return inner_->ListQueries();
  }
  size_t NumOperators() const override { return inner_->NumOperators(); }
  size_t NumActiveQueries() const override {
    return inner_->NumActiveQueries();
  }

 private:
  net::ServiceBackend* inner_;
  SeamTotals* totals_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string QueriesJson(const std::vector<QueryInfo>& queries) {
  std::string out = "[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryInfo& info = queries[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(info.id) + ",\"state\":\"" +
           QueryStateToString(info.state) + "\",\"sql\":\"" +
           JsonEscape(info.sql) +
           "\",\"nodes_total\":" + std::to_string(info.nodes_total) +
           ",\"nodes_reused\":" + std::to_string(info.nodes_reused) +
           ",\"subscriptions\":" + std::to_string(info.num_subscriptions) +
           "}";
  }
  return out + "]";
}

std::string BenchJson(const SeamTotals& t, const TraceRecorder& tracer) {
  std::vector<int64_t> queue_ns;
  for (const Span& s : tracer.Snapshot()) {
    if (s.kind == SpanKind::kQueue) queue_ns.push_back(s.duration_ns);
  }
  double queue_p50_us = 0;
  if (!queue_ns.empty()) {
    auto mid = queue_ns.begin() + static_cast<long>(queue_ns.size() / 2);
    std::nth_element(queue_ns.begin(), mid, queue_ns.end());
    queue_p50_us = static_cast<double>(*mid) / 1e3;
  }
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"push_ns\":%lld,\"records\":%llu,\"watermark_ns\":%lld,"
      "\"watermarks\":%llu,\"register_ns\":%lld,\"registers\":%llu,"
      "\"poll_ns\":%lld,\"polls\":%llu,\"polled_records\":%llu,"
      "\"queue_wait_us_p50\":%.3f,\"queue_spans\":%zu,\"spans_total\":%llu}",
      static_cast<long long>(t.push_ns),
      static_cast<unsigned long long>(t.records),
      static_cast<long long>(t.watermark_ns),
      static_cast<unsigned long long>(t.watermarks),
      static_cast<long long>(t.register_ns),
      static_cast<unsigned long long>(t.registers),
      static_cast<long long>(t.poll_ns),
      static_cast<unsigned long long>(t.polls),
      static_cast<unsigned long long>(t.polled_records), queue_p50_us,
      queue_ns.size(),
      static_cast<unsigned long long>(tracer.total_recorded()));
  return buf;
}

net::Server* g_server = nullptr;

void HandleTerm(int) {
  if (g_server != nullptr) g_server->ShutdownAsync();
}

}  // namespace

int RunServerChild(const Workload& workload, ServerOptions options,
                   int report_fd) {
  MetricsRegistry registry;
  TraceRecorder tracer(1u << 14);
  ServiceConfig config;
  config.metrics = &registry;
  config.tracer = options.trace_every > 0 ? &tracer : nullptr;
  config.trace_sample_every = options.trace_every;

  std::unique_ptr<QueryService> local;
  std::unique_ptr<shard::ShardedQueryService> sharded;
  std::unique_ptr<net::ServiceBackend> backend;
  if (workload.shards > 1) {
    sharded =
        std::make_unique<shard::ShardedQueryService>(workload.shards, config);
    backend = std::make_unique<net::ShardedBackend>(sharded.get());
  } else {
    local = std::make_unique<QueryService>(Catalog{}, config);
    backend = std::make_unique<net::LocalBackend>(local.get());
  }
  SeamTotals totals;
  TimedBackend timed(backend.get(), &totals);
  net::ServiceBackend* served = options.decorate ? &timed : backend.get();

  net::TenantQuotas quotas(&registry);
  net::ServerConfig sconf;
  sconf.port = 0;
  sconf.quotas = &quotas;
  sconf.metrics = &registry;
  net::Server server(served, sconf);
  server.AddHttpRoute("/metrics", "text/plain; version=0.0.4", [&registry] {
    return registry.Dump(MetricsFormat::kText);
  });
  server.AddHttpRoute("/queries", "application/json", [served] {
    return QueriesJson(served->ListQueries());
  });
  server.AddHttpRoute("/bench", "application/json", [&] {
    // Per-node state gauges refresh only on an executor dump.
    if (local != nullptr) local->DumpMetrics();
    for (size_t i = 0; sharded != nullptr && i < sharded->nshards(); ++i) {
      sharded->replica(i)->DumpMetrics();
    }
    return BenchJson(totals, tracer);
  });

  const int64_t init_ns = MonotonicNanos();
  Status st = server.Init();
  const int64_t report[2] = {init_ns, st.ok() ? server.port() : 0};
  if (::write(report_fd, report, sizeof(report)) != sizeof(report) ||
      !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }
  ::close(report_fd);

  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = HandleTerm;
  sigaction(SIGTERM, &sa, nullptr);
  server.Run();
  g_server = nullptr;
  return 0;
}

ServerHandle StartServer(const Workload& workload, ServerOptions options,
                         const cpu_set_t* cpus) {
  ServerHandle handle;
  int fds[2];
  if (::pipe(fds) != 0) return handle;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return handle;
  }
  if (pid == 0) {
    ::close(fds[0]);
    // Never outlive the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) ::_exit(1);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof(*cpus), cpus);
    // A fresh image, so the child's RSS is the server's own and not the
    // generator's pages shared copy-on-write.
    const std::string every = std::to_string(options.trace_every);
    const std::string fd = std::to_string(fds[1]);
    const char* argv[] = {"e2e_bench",   "--serve-child",
                          workload.name.c_str(), every.c_str(),
                          options.decorate ? "1" : "0", fd.c_str(),
                          nullptr};
    ::execv("/proc/self/exe", const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  int64_t report[2] = {0, 0};
  size_t got = 0;
  while (got < sizeof(report)) {
    const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(report) + got,
                             sizeof(report) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  handle.pid = pid;
  if (got != sizeof(report) || report[1] == 0) {
    StopServer(&handle);
    return ServerHandle{};
  }
  handle.init_ns = report[0];
  handle.port = static_cast<uint16_t>(report[1]);
  return handle;
}

bool StopServer(ServerHandle* server) {
  if (server->pid <= 0) return true;
  ::kill(server->pid, SIGTERM);
  bool clean = true;
  int status = 0;
  for (int i = 0; i < 1000; ++i) {  // up to 10 s for the graceful drain
    const pid_t r = ::waitpid(server->pid, &status, WNOHANG);
    if (r == server->pid || (r < 0 && errno != EINTR)) {
      server->pid = -1;
      return clean;
    }
    ::usleep(10000);
  }
  clean = false;
  ::kill(server->pid, SIGKILL);
  while (::waitpid(server->pid, &status, 0) < 0 && errno == EINTR) {
  }
  server->pid = -1;
  return clean;
}

}  // namespace cq::perfbench
