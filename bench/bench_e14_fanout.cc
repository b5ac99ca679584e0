/// \file bench_e14_fanout.cc
/// \brief E14 — subscriber fan-out through the net front door: publish
/// latency and resident memory versus subscriber count.
///
/// The claim behind src/net's SubscriberMux: one epoll thread can fan a
/// query's output to thousands of subscribers because per-subscriber cost is
/// one bounded-channel drain + one frame assembled from the entry's
/// "DATA <sid>" prefix and a tuple slice rendered once per publish for all
/// of them + one write-buffer copy — no threads, no per-subscriber
/// allocation beyond the entry. The BENCH_SERIES
/// lines plot p99 publish-to-delivered latency against subscriber count
/// (100 → 10k) together with the VmRSS plateau, so a super-linear latency
/// curve or an RSS blow-up at 10k fails review even when the mean stays
/// flat. Sinks are in-memory mocks (MuxSink), so the series isolates the
/// mux from kernel socket behaviour; the churn bench isolates subscribe /
/// teardown bookkeeping cost.
///
/// Each publish carries a distinct price: under IStream semantics an
/// unchanged tuple's insert cancels against its expiration once the window
/// starts sliding, so a constant payload would (correctly) emit nothing
/// after `range` publishes. Distinct rows keep the steady state at exactly
/// one frame per subscriber per publish with a bounded (100-tuple) window.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/backend.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/service.h"

namespace cq::net {
namespace {

/// Fast in-memory consumer: frames are counted and discarded (PendingBytes
/// stays 0), so the mux never sees backpressure and the measurement is the
/// shared render + per-subscriber frame copy cost alone.
class CountingSink : public MuxSink {
 public:
  bool Deliver(std::string_view wire) override {
    bytes_ += wire.size();
    ++frames_;
    return true;
  }
  size_t PendingBytes() const override { return 0; }
  uint64_t frames() const { return frames_; }

 private:
  uint64_t frames_ = 0;
  uint64_t bytes_ = 0;
};

double ReadVmRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// One query fanned out to `n` mock subscribers through the mux.
struct FanoutRig {
  explicit FanoutRig(size_t n)
      : svc(Catalog{}, ServiceConfig{}), backend(&svc), mux(MuxConfig{}),
        sinks(n) {
    if (!svc.RegisterStream("trades",
                            Schema::Make({{"sym", ValueType::kString},
                                          {"price", ValueType::kInt64},
                                          {"qty", ValueType::kInt64}}))
             .ok()) {
      std::abort();
    }
    auto id = svc.RegisterQuery(
        "SELECT sym, price FROM trades [Range 100] WHERE price > 10");
    if (!id.ok()) std::abort();
    query = *id;
    for (size_t i = 0; i < n; ++i) {
      auto feed = backend.Subscribe(query);
      if (!feed.ok()) std::abort();
      mux.Add(i + 1, "default", std::move(*feed), &sinks[i]);
    }
  }

  /// One distinct record + watermark = one output frame per sink.
  void Publish(Timestamp ts) {
    if (!svc.PushRecord("trades",
                        Tuple{Value("ACME"), Value(int64_t{11} + ts),
                              Value(int64_t{1})},
                        ts)
             .ok()) {
      std::abort();
    }
    if (!svc.PushWatermark("trades", ts).ok()) std::abort();
    mux.Pump(MonotonicNanos());
  }

  QueryService svc;
  LocalBackend backend;
  SubscriberMux mux;
  std::vector<CountingSink> sinks;
  cq::QueryId query = 0;
};

/// Arg(0): subscriber count. One publish (record + watermark + full mux
/// pump) per iteration; items = frames delivered.
void BM_FanoutPublish(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FanoutRig rig(n);
  Timestamp ts = 0;
  std::vector<int64_t> publish_ns;
  for (auto _ : state) {
    const int64_t t0 = MonotonicNanos();
    rig.Publish(++ts);
    publish_ns.push_back(MonotonicNanos() - t0);
  }
  if (rig.mux.frames_delivered() !=
      static_cast<uint64_t>(state.iterations()) * n) {
    std::abort();  // every publish must reach every subscriber
  }
  std::sort(publish_ns.begin(), publish_ns.end());
  const size_t p99_idx =
      std::min(publish_ns.size() - 1, (publish_ns.size() * 99) / 100);
  const double p99_us =
      publish_ns.empty()
          ? 0
          : static_cast<double>(publish_ns[p99_idx]) / 1000.0;
  const double rss_mb = ReadVmRssMb();
  state.counters["p99_publish_us"] = p99_us;
  state.counters["rss_mb"] = rss_mb;
  SetPerItemMicros(state, static_cast<double>(n));

  static std::set<size_t> printed;
  if (printed.insert(n).second) {
    if (printed.size() == 1) {
      std::printf(
          "BENCH_SERIES case=fanout_publish x=subscribers "
          "y=p99_publish_us series=mux\n");
    }
    std::printf(
        "BENCH_SERIES case=fanout_publish mux=counting_sinks "
        "subscribers=%zu p99_publish_us=%.1f rss_mb=%.1f\n",
        n, p99_us, rss_mb);
  }
}
BENCHMARK(BM_FanoutPublish)
    ->Arg(100)->Arg(1000)->Arg(10000)
    ->ArgNames({"subs"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Arg(0): subscriber count. Full churn cycle: subscribe all, publish once,
/// tear all down (RemoveSink cancels the feeds). Guards the bookkeeping
/// maps against super-linear add/remove cost.
void BM_FanoutSubscribeChurn(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  QueryService svc(Catalog{}, ServiceConfig{});
  if (!svc.RegisterStream("trades",
                          Schema::Make({{"sym", ValueType::kString},
                                        {"price", ValueType::kInt64},
                                        {"qty", ValueType::kInt64}}))
           .ok()) {
    std::abort();
  }
  auto id = svc.RegisterQuery(
      "SELECT sym, price FROM trades [Range 100] WHERE price > 10");
  if (!id.ok()) std::abort();
  LocalBackend backend(&svc);
  SubscriberMux mux(MuxConfig{});
  std::vector<CountingSink> sinks(n);
  Timestamp ts = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      auto feed = backend.Subscribe(*id);
      if (!feed.ok()) std::abort();
      mux.Add(i + 1, "default", std::move(*feed), &sinks[i]);
    }
    if (!svc.PushRecord("trades",
                        Tuple{Value("ACME"), Value(int64_t{11} + ts),
                              Value(int64_t{1})},
                        ++ts)
             .ok()) {
      std::abort();
    }
    if (!svc.PushWatermark("trades", ts).ok()) std::abort();
    mux.Pump(MonotonicNanos());
    for (size_t i = 0; i < n; ++i) mux.RemoveSink(&sinks[i]);
    if (mux.NumEntries() != 0) std::abort();
  }
  SetPerItemMicros(state, static_cast<double>(n));
}
BENCHMARK(BM_FanoutSubscribeChurn)
    ->Arg(100)->Arg(1000)
    ->ArgNames({"subs"})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace cq::net
