#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ft/coordinator.h"
#include "ft/fence.h"
#include "ft/recovery.h"
#include "ft/snapshot_store.h"
#include "net/backend.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/quotas.h"
#include "net/server.h"
#include "service/service.h"

namespace cq::net {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("cq_net_" + tag + "_" + std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SchemaPtr TradesSchema() {
  return Schema::Make({{"sym", ValueType::kString},
                       {"price", ValueType::kInt64},
                       {"qty", ValueType::kInt64}});
}

Tuple Trade(const char* sym, int64_t price, int64_t qty) {
  return Tuple{Value(sym), Value(price), Value(qty)};
}

// --- Framing ----------------------------------------------------------------

TEST(FrameReaderTest, ReassemblesFramesFromArbitrarySplits) {
  const std::string wire =
      EncodeFrame("first") + EncodeFrame("") + EncodeFrame("third frame");
  // Feed one byte at a time: every header and payload boundary is torn.
  FrameReader reader;
  std::vector<std::string> got;
  for (char c : wire) {
    reader.Append(std::string_view(&c, 1));
    std::string frame;
    while (true) {
      auto next = reader.Next(&frame);
      ASSERT_TRUE(next.ok());
      if (!*next) break;
      got.push_back(frame);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "");
  EXPECT_EQ(got[2], "third frame");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, ManyFramesInOneAppend) {
  std::string wire;
  for (int i = 0; i < 100; ++i) wire += EncodeFrame("payload " + std::to_string(i));
  FrameReader reader;
  reader.Append(wire);
  std::string frame;
  int n = 0;
  while (true) {
    auto next = reader.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (!*next) break;
    EXPECT_EQ(frame, "payload " + std::to_string(n));
    ++n;
  }
  EXPECT_EQ(n, 100);
}

TEST(FrameReaderTest, OversizedFrameIsAProtocolError) {
  FrameReader reader;
  uint32_t huge = htonl(kMaxFrameBytes + 1);
  reader.Append(std::string_view(reinterpret_cast<const char*>(&huge), 4));
  std::string frame;
  auto next = reader.Next(&frame);
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameReaderTest, HttpGetDecodesAsOversized) {
  // "GET " as a big-endian length is ~1.2 GB — the sniffing in the server
  // relies on an HTTP request line never being a valid frame header.
  FrameReader reader;
  reader.Append("GET /metrics HTTP/1.1\r\n");
  std::string frame;
  auto next = reader.Next(&frame);
  EXPECT_FALSE(next.ok());
}

TEST(WriteBufferTest, PartialWritesResumeWhereTheyStopped) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  int sndbuf = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));

  WriteBuffer wbuf;
  const std::string frame = EncodeFrame(std::string(100'000, 'x'));
  wbuf.Append(frame);
  ASSERT_EQ(wbuf.size(), frame.size());

  // The tiny send buffer fills before the frame completes.
  bool would_block = false;
  ASSERT_TRUE(wbuf.FlushTo(fds[0], &would_block).ok());
  ASSERT_TRUE(would_block);
  ASSERT_GT(wbuf.size(), 0u);

  // Drain the peer and re-flush until everything shipped.
  std::string received;
  char buf[8192];
  while (!wbuf.empty()) {
    ssize_t n = read(fds[1], buf, sizeof(buf));
    if (n > 0) received.append(buf, static_cast<size_t>(n));
    ASSERT_TRUE(wbuf.FlushTo(fds[0], &would_block).ok());
  }
  ssize_t n;
  while ((n = read(fds[1], buf, sizeof(buf))) > 0) {
    received.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(received, frame);
  close(fds[0]);
  close(fds[1]);
}

// --- Tenant quotas ----------------------------------------------------------

TEST(TenantQuotasTest, QueryCountAdmission) {
  TenantQuotas quotas;
  quotas.SetQuota("acme", {.max_queries = 2});
  EXPECT_TRUE(quotas.AdmitQuery("acme", 0).ok());
  EXPECT_TRUE(quotas.AdmitQuery("acme", 0).ok());
  Status third = quotas.AdmitQuery("acme", 0);
  EXPECT_EQ(third.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(quotas.ActiveQueries("acme"), 2u);
  // Another tenant is unaffected.
  EXPECT_TRUE(quotas.AdmitQuery("globex", 0).ok());
  // DROP releases the slot and admission recovers.
  quotas.ReleaseQuery("acme");
  EXPECT_TRUE(quotas.AdmitQuery("acme", 0).ok());
}

TEST(TenantQuotasTest, StateBytesAdmission) {
  TenantQuotas quotas;
  quotas.SetQuota("acme", {.max_state_bytes = 1000});
  EXPECT_TRUE(quotas.AdmitQuery("acme", 999).ok());
  EXPECT_EQ(quotas.AdmitQuery("acme", 1000).code(), StatusCode::kOutOfRange);
}

TEST(TenantQuotasTest, TokenBucketRefillsOnManualClock) {
  TenantQuotas quotas;
  quotas.SetQuota("acme",
                  {.egress_bytes_per_sec = 1000, .egress_burst_bytes = 500});
  // The bucket starts full (one burst) and runs dry.
  EXPECT_EQ(quotas.AdmitEgress("acme", {500}, 0), 1u);
  EXPECT_EQ(quotas.AdmitEgress("acme", {1}, 0), 0u);
  EXPECT_EQ(quotas.ThrottledCount("acme"), 1u);
  // 100 ms at 1000 B/s refills 100 tokens — not 101.
  const int64_t t1 = 100'000'000;
  EXPECT_EQ(quotas.AdmitEgress("acme", {100}, t1), 1u);
  EXPECT_EQ(quotas.AdmitEgress("acme", {1}, t1), 0u);
  // Refill clamps at the burst no matter how long the tenant idles.
  const int64_t t2 = t1 + 3'600'000'000'000;
  EXPECT_EQ(quotas.AdmitEgress("acme", {500}, t2), 1u);
  EXPECT_EQ(quotas.AdmitEgress("acme", {1}, t2), 0u);
  EXPECT_EQ(quotas.EgressGranted("acme"), 1100u);
}

TEST(TenantQuotasTest, DefaultQuotaCoversUnconfiguredTenants) {
  TenantQuotas quotas;
  quotas.SetDefaultQuota({.max_queries = 1});
  EXPECT_TRUE(quotas.AdmitQuery("anyone", 0).ok());
  EXPECT_EQ(quotas.AdmitQuery("anyone", 0).code(), StatusCode::kOutOfRange);
  // An explicit quota overrides the default.
  quotas.SetQuota("vip", {.max_queries = 0});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(quotas.AdmitQuery("vip", 0).ok());
}

TEST(TenantQuotasTest, FrameLargerThanBurstIsPacedNotWedged) {
  TenantQuotas quotas;
  // Burst defaults to one second of rate: 512 bytes.
  quotas.SetQuota("tiny", {.egress_bytes_per_sec = 512});
  // A 1 KiB frame exceeds the bucket capacity. A plain `tokens >= bytes`
  // gate could never admit it; the clamped gate lets it through on a full
  // bucket and puts the bucket into debt.
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1024}, 0), 1u);
  // In debt: nothing passes until the full cost has been repaid.
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1}, 0), 0u);
  const int64_t sec = 1'000'000'000;
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1024}, 1 * sec), 0u);
  // After two seconds the debt is repaid and the bucket is full again —
  // the next oversized frame passes. Long-run rate: 2 KiB over 4 s = 512 B/s.
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1024}, 2 * sec), 1u);
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1024}, 3 * sec), 0u);
  EXPECT_EQ(quotas.AdmitEgress("tiny", {1024}, 4 * sec), 1u);
  EXPECT_EQ(quotas.EgressGranted("tiny"), 3072u);
}

TEST(TenantQuotasTest, UnlimitedTenantNeverThrottles) {
  TenantQuotas quotas;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(quotas.AdmitEgress("free", {1 << 20}, 0), 1u);
  }
  EXPECT_EQ(quotas.ThrottledCount("free"), 0u);
}

// The mux asks the gate once per staged batch. Its decisions must be those
// of one call per frame at the same instant, stopping at the first refusal.
TEST(TenantQuotasTest, BatchGateMatchesFrameByFrameGate) {
  constexpr uint64_t kBurst = 600;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    TenantQuotas batched, single;
    const TenantQuota quota{.egress_bytes_per_sec = 1000,
                            .egress_burst_bytes = kBurst};
    batched.SetQuota("t", quota);
    single.SetQuota("t", quota);
    int64_t now = 0;
    for (int pass = 0; pass < 200; ++pass) {
      // Same-instant passes too: the refill must not run twice.
      now += static_cast<int64_t>(rng() % 3) * 50'000'000;
      std::vector<uint64_t> sizes(1 + rng() % 12);
      for (uint64_t& bytes : sizes) {
        // Mostly small frames, some larger than the whole burst.
        bytes = rng() % 8 == 0 ? kBurst + 1 + rng() % 900 : 1 + rng() % 150;
      }
      const size_t admitted = batched.AdmitEgress("t", sizes, now);
      size_t one_by_one = 0;
      while (one_by_one < sizes.size() &&
             single.AdmitEgress("t", {sizes[one_by_one]}, now) == 1) {
        ++one_by_one;
      }
      ASSERT_EQ(admitted, one_by_one) << "seed " << seed << " pass " << pass;
      ASSERT_EQ(batched.EgressTokens("t"), single.EgressTokens("t"))
          << "seed " << seed << " pass " << pass;
      ASSERT_EQ(batched.ThrottledCount("t"), single.ThrottledCount("t"));
      ASSERT_EQ(batched.EgressGranted("t"), single.EgressGranted("t"));
    }
    EXPECT_GT(batched.ThrottledCount("t"), 0u) << "seed " << seed;
  }
}

// --- Event loop -------------------------------------------------------------

TEST(EventLoopTest, DispatchesReadinessAndWakeTokens) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string read_back;
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN,
                       [&](uint32_t) {
                         char buf[64];
                         ssize_t n = read(fds[0], buf, sizeof(buf));
                         if (n > 0) read_back.append(buf, size_t(n));
                       })
                  .ok());
  uint64_t tokens_seen = 0;
  loop.SetWakeHandler([&](uint64_t tokens) {
    tokens_seen = tokens;
    loop.Stop();
  });

  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  // Two wakes from another thread before the loop runs coalesce into one
  // delivery. Joining first keeps both ahead of the loop's eventfd read;
  // a waker still running could straddle it and split the tokens.
  std::thread waker([&loop] {
    loop.Wake(1);
    loop.Wake(2);
  });
  waker.join();
  loop.Run(/*tick_ms=*/10, nullptr);
  EXPECT_EQ(read_back, "ping");
  EXPECT_EQ(tokens_seen, 3u);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, StaleEventForRecycledFdNumberIsSuppressed) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());

  int a[2], b[2];
  ASSERT_EQ(pipe(a), 0);
  ASSERT_EQ(pipe(b), 0);
  int recycled[2] = {-1, -1};
  bool new_cb_ran = false;
  bool skipped = false;

  // a's handler closes b mid-round and re-registers a fresh pipe that (by
  // the lowest-free-fd rule) reuses b's number. The batch fetched before
  // the round still holds b's readiness event — it must not reach the new
  // callback.
  ASSERT_TRUE(loop.Add(a[0], EPOLLIN,
                       [&](uint32_t) {
                         char buf[8];
                         (void)!read(a[0], buf, sizeof(buf));
                         loop.Remove(b[0]);
                         close(b[0]);
                         if (pipe(recycled) != 0 || recycled[0] != b[0]) {
                           skipped = true;  // kernel gave a different number
                           return;
                         }
                         ASSERT_TRUE(loop.Add(recycled[0], EPOLLIN,
                                              [&](uint32_t) {
                                                char d[8];
                                                (void)!read(recycled[0], d,
                                                            sizeof(d));
                                                new_cb_ran = true;
                                              })
                                         .ok());
                       })
                  .ok());
  bool old_cb_ran = false;
  ASSERT_TRUE(
      loop.Add(b[0], EPOLLIN, [&](uint32_t) { old_cb_ran = true; }).ok());

  // Both ready before the first epoll_wait: one batch, a first.
  ASSERT_EQ(write(a[1], "x", 1), 1);
  ASSERT_EQ(write(b[1], "y", 1), 1);
  loop.Run(/*tick_ms=*/10, [&] { loop.Stop(); });
  if (skipped) GTEST_SKIP() << "fd number not recycled; cannot stage event";
  EXPECT_FALSE(new_cb_ran);  // the stale event was dropped...

  // ...but genuinely new readiness on the recycled fd still delivers.
  ASSERT_EQ(write(recycled[1], "z", 1), 1);
  loop.Run(/*tick_ms=*/10, [&] { loop.Stop(); });
  EXPECT_TRUE(new_cb_ran);
  (void)old_cb_ran;  // readiness order is kernel-defined; either is fine
  close(a[0]);
  close(a[1]);
  close(b[1]);
  if (recycled[0] >= 0) close(recycled[0]);
  if (recycled[1] >= 0) close(recycled[1]);
}

TEST(EventLoopTest, TickRunsWithoutAnyIo) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  int ticks = 0;
  loop.Run(/*tick_ms=*/1, [&] {
    if (++ticks >= 3) loop.Stop();
  });
  EXPECT_GE(ticks, 3);
}

// --- Subscriber mux ---------------------------------------------------------

/// A sink whose consumer never drains: PendingBytes() grows with every
/// Deliver (plus an optional artificial backlog) — the shape of a stalled
/// TCP peer without any sockets.
class MockSink : public MuxSink {
 public:
  bool Deliver(std::string_view wire) override {
    delivered.push_back(std::string(wire));
    pending += wire.size();
    return true;
  }
  size_t PendingBytes() const override { return pending + extra_backlog; }

  std::vector<std::string> delivered;
  size_t pending = 0;
  size_t extra_backlog = 0;
};

struct MuxRig {
  MuxRig() : svc(Catalog{}, ServiceConfig{}) {
    EXPECT_TRUE(svc.RegisterStream("trades", TradesSchema()).ok());
    auto id = svc.RegisterQuery(
        "SELECT sym, price FROM trades [Range 100] WHERE price > 10");
    EXPECT_TRUE(id.ok());
    query = *id;
  }

  /// One passing record + watermark = one flushed output batch.
  void PushOne(Timestamp ts) {
    ASSERT_TRUE(svc.PushRecord("trades", Trade("ACME", 42, 1), ts).ok());
    ASSERT_TRUE(svc.PushWatermark("trades", ts).ok());
  }

  QueryService svc;
  cq::QueryId query = 0;
};

TEST(SubscriberMuxTest, DeliversFramesWithSidPrefix) {
  MuxRig rig;
  LocalBackend backend(&rig.svc);
  SubscriberMux mux(MuxConfig{});
  MockSink sink;
  auto feed = backend.Subscribe(rig.query);
  ASSERT_TRUE(feed.ok());
  mux.Add(/*sid=*/7, "default", std::move(*feed), &sink);

  rig.PushOne(1);
  EXPECT_EQ(mux.Pump(/*now_ns=*/0), 1u);
  ASSERT_EQ(sink.delivered.size(), 1u);
  // Wire bytes: length prefix + "DATA <sid> t=<ts> <tuple>".
  EXPECT_NE(sink.delivered[0].find("DATA 7 t=1 ('ACME', 42)"),
            std::string::npos);
}

TEST(SubscriberMuxTest, ThrottledTenantIsPacedNotEvicted) {
  MuxRig rig;
  LocalBackend backend(&rig.svc);
  TenantQuotas quotas;
  // Budget fits roughly one frame per second: frames are ~40 wire bytes.
  quotas.SetQuota("acme",
                  {.egress_bytes_per_sec = 50, .egress_burst_bytes = 50});
  MuxConfig config;
  config.quotas = &quotas;
  SubscriberMux mux(config);
  MockSink sink;
  auto feed = backend.Subscribe(rig.query);
  ASSERT_TRUE(feed.ok());
  mux.Add(1, "acme", std::move(*feed), &sink);

  for (Timestamp ts = 1; ts <= 5; ++ts) rig.PushOne(ts);
  size_t first = mux.Pump(/*now_ns=*/0);
  EXPECT_GE(first, 1u);
  EXPECT_LT(first, 5u);  // the bucket ran dry mid-backlog
  EXPECT_GT(quotas.ThrottledCount("acme"), 0u);

  // Over quota means *paced*: the entry stays, nothing is evicted, and the
  // backlog drains as the bucket refills.
  EXPECT_EQ(mux.NumEntries(), 1u);
  EXPECT_EQ(mux.num_evicted(), 0u);
  size_t total = first;
  int64_t now = 0;
  for (int s = 1; s <= 10 && total < 5; ++s) {
    now = int64_t(s) * 1'000'000'000;
    total += mux.Pump(now);
  }
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(mux.num_evicted(), 0u);
  EXPECT_EQ(mux.NumEntries(), 1u);
}

TEST(SubscriberMuxTest, FrameOverBurstDrainsInsteadOfWedgingTheQueue) {
  MuxRig rig;
  LocalBackend backend(&rig.svc);
  TenantQuotas quotas;
  // Wire frames are ~40 bytes — larger than this bucket's whole capacity
  // (burst defaults to one second of rate). Before the clamped gate this
  // wedged the staged queue permanently.
  quotas.SetQuota("tiny", {.egress_bytes_per_sec = 20});
  MuxConfig config;
  config.quotas = &quotas;
  SubscriberMux mux(config);
  MockSink sink;
  auto feed = backend.Subscribe(rig.query);
  ASSERT_TRUE(feed.ok());
  mux.Add(1, "tiny", std::move(*feed), &sink);

  for (Timestamp ts = 1; ts <= 3; ++ts) rig.PushOne(ts);
  size_t total = mux.Pump(/*now_ns=*/0);
  EXPECT_EQ(total, 1u);  // full bucket admits one oversized frame
  // Each further frame waits for the debt to repay and the bucket to
  // refill; nothing is stuck forever and nothing is evicted.
  for (int s = 1; s <= 20 && total < 3; ++s) {
    total += mux.Pump(int64_t(s) * 1'000'000'000);
  }
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(sink.delivered.size(), 3u);
  EXPECT_EQ(mux.num_evicted(), 0u);
  EXPECT_EQ(mux.NumEntries(), 1u);
}

TEST(SubscriberMuxTest, SlowConsumerEvictedAfterGraceAndRefsReleased) {
  MetricsRegistry registry;
  ServiceConfig svc_config;
  svc_config.metrics = &registry;
  QueryService svc(Catalog{}, svc_config);
  ASSERT_TRUE(svc.RegisterStream("trades", TradesSchema()).ok());
  auto query = svc.RegisterQuery(
      "SELECT sym, price FROM trades [Range 100] WHERE price > 10");
  ASSERT_TRUE(query.ok());
  LocalBackend backend(&svc);

  MuxConfig config;
  config.write_high_watermark = 64;
  config.eviction_grace_ns = 1000;
  config.metrics = &registry;
  SubscriberMux mux(config);
  MockSink sink;
  sink.extra_backlog = 1 << 20;  // permanently over the watermark
  auto feed = backend.Subscribe(*query);
  ASSERT_TRUE(feed.ok());
  mux.Add(1, "default", std::move(*feed), &sink);
  std::vector<MuxSink*> evicted;
  mux.SetEvictHandler([&](MuxSink* s) {
    evicted.push_back(s);
    mux.RemoveSink(s);
  });
  ASSERT_EQ(svc.ListQueries()[0].num_subscriptions, 1u);

  // While the sink is backed up the mux must not copy: batches pile into
  // the bounded subscription channel and overflow there, counted.
  for (Timestamp ts = 1; ts <= 80; ++ts) {
    ASSERT_TRUE(svc.PushRecord("trades", Trade("ACME", 42, 1), ts).ok());
    ASSERT_TRUE(svc.PushWatermark("trades", ts).ok());
  }
  EXPECT_EQ(mux.Pump(/*now_ns=*/0), 0u);     // marks the sink over-watermark
  EXPECT_EQ(mux.Pump(/*now_ns=*/500), 0u);   // still inside the grace
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(mux.Pump(/*now_ns=*/2000), 0u);  // grace expired
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], &sink);
  EXPECT_EQ(mux.NumEntries(), 0u);
  EXPECT_EQ(mux.num_evicted(), 1u);
  EXPECT_TRUE(sink.delivered.empty());

  // The channel overflow was accounted against the query.
  std::string dump = registry.Dump(MetricsFormat::kText);
  size_t at = dump.find("cq_query_dropped_pushes_total");
  ASSERT_NE(at, std::string::npos) << dump;
  size_t eol = dump.find('\n', at);
  std::string line = dump.substr(at, eol - at);
  EXPECT_EQ(line.find(" 0"), std::string::npos) << line;

  // Eviction cancelled the feed; the sink operator garbage collects the
  // subscription on its next flush, releasing the channel refcount.
  ASSERT_TRUE(svc.PushRecord("trades", Trade("ACME", 42, 1), 81).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 81).ok());
  EXPECT_EQ(svc.ListQueries()[0].num_subscriptions, 0u);
}

TEST(SubscriberMuxTest, DroppedQueryEmitsClosedFrameThenEntryRetires) {
  MuxRig rig;
  LocalBackend backend(&rig.svc);
  SubscriberMux mux(MuxConfig{});
  MockSink sink;
  auto feed = backend.Subscribe(rig.query);
  ASSERT_TRUE(feed.ok());
  mux.Add(3, "default", std::move(*feed), &sink);

  rig.PushOne(1);
  ASSERT_TRUE(rig.svc.DropQuery(rig.query).ok());
  mux.Pump(/*now_ns=*/0);
  ASSERT_GE(sink.delivered.size(), 1u);
  EXPECT_NE(sink.delivered.back().find("CLOSED 3"), std::string::npos);
  EXPECT_EQ(mux.NumEntries(), 0u);
}

/// Decorator over a feed that keeps a handle on every batch that leaves it,
/// so a test can count them and render what the mux should have sent.
class RecordingFeed : public SubscriberFeed {
 public:
  RecordingFeed(std::unique_ptr<SubscriberFeed> inner,
                std::vector<StreamBatch>* log)
      : inner_(std::move(inner)), log_(log) {}
  bool TryPoll(StreamBatch* out) override {
    if (!inner_->TryPoll(out)) return false;
    log_->push_back(*out);
    return true;
  }
  void Cancel() override { inner_->Cancel(); }
  bool Closed() const override { return inner_->Closed(); }
  size_t Depth() const override { return inner_->Depth(); }
  uint64_t QueryId() const override { return inner_->QueryId(); }

 private:
  std::unique_ptr<SubscriberFeed> inner_;
  std::vector<StreamBatch>* log_;
};

TEST(SubscriberMuxTest, ThrottledTenantBacklogStaysInTheChannel) {
  MuxRig rig;
  LocalBackend backend(&rig.svc);
  TenantQuotas quotas;
  // "DATA 1 t=<ts> ('ACME', 42)" is 27 wire bytes: the bucket admits one.
  quotas.SetQuota("acme",
                  {.egress_bytes_per_sec = 30, .egress_burst_bytes = 30});
  MuxConfig config;
  config.quotas = &quotas;
  SubscriberMux mux(config);
  MockSink sink;
  auto feed = backend.Subscribe(rig.query);
  ASSERT_TRUE(feed.ok());
  std::vector<StreamBatch> polled;
  mux.Add(1, "acme",
          std::make_unique<RecordingFeed>(std::move(*feed), &polled), &sink);

  for (Timestamp ts = 1; ts <= 100; ++ts) rig.PushOne(ts);
  EXPECT_EQ(mux.Pump(/*now_ns=*/0), 1u);
  ASSERT_EQ(sink.delivered.size(), 1u);
  // The throttled tenant's results wait in the bounded subscription
  // channel, not in mux memory: at most the batch being delivered (and
  // one probe beyond it) left the feed.
  EXPECT_LE(polled.size(), 2u);
}

SchemaPtr MixedSchema() {
  return Schema::Make({{"sym", ValueType::kString},
                       {"qty", ValueType::kInt64},
                       {"px", ValueType::kDouble},
                       {"ok", ValueType::kBool}});
}

/// Reference rendering of one DATA frame, built whole from its parts.
std::string GoldenData(const std::string& head, const StreamElement& e) {
  return EncodeFrame(head + " t=" + std::to_string(e.timestamp) + " " +
                     e.tuple.ToString());
}

/// Two queries × three LISTEN feeds over `backend`, one feed per query on
/// a throttled tenant; results pumped, the first query dropped mid-backlog,
/// the rest drained by FlushAll. Every frame must equal the golden
/// rendering of the batches its feed handed out, CLOSED last.
void CheckGoldenEgress(ServiceBackend* backend,
                       std::vector<size_t> shard_key) {
  ASSERT_TRUE(
      backend->RegisterStream("mixed", MixedSchema(), std::move(shard_key))
          .ok());
  auto q1 = backend->RegisterQuery(
      "SELECT sym, qty, px, ok FROM mixed [Range 100] WHERE qty > 0");
  auto q2 = backend->RegisterQuery(
      "SELECT sym, px, ok FROM mixed [Range 100] WHERE px > 1.0");
  ASSERT_TRUE(q1.ok() && q2.ok());

  TenantQuotas quotas;
  quotas.SetQuota("slow",
                  {.egress_bytes_per_sec = 200, .egress_burst_bytes = 200});
  MuxConfig config;
  config.quotas = &quotas;
  SubscriberMux mux(config);
  struct Feed {
    uint64_t sid = 0;
    cq::QueryId query = 0;
    std::vector<StreamBatch> log;
    MockSink sink;
  };
  std::vector<std::unique_ptr<Feed>> feeds;
  for (cq::QueryId q : {*q1, *q2}) {
    for (int k = 0; k < 3; ++k) {
      auto f = std::make_unique<Feed>();
      f->sid = feeds.size() + 1;
      f->query = q;
      auto inner = backend->Subscribe(q);
      ASSERT_TRUE(inner.ok());
      mux.Add(f->sid, k == 2 ? "slow" : "default",
              std::make_unique<RecordingFeed>(std::move(*inner), &f->log),
              &f->sink);
      feeds.push_back(std::move(f));
    }
  }

  const char* syms[] = {"ACME", "Big Co", "o'k", "Z"};
  Timestamp ts = 0;
  auto push_period = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ++ts;
      Tuple row{Value(syms[ts % 4]), Value(int64_t(ts % 5) - 1),
                Value(double(ts) * 0.75), Value(ts % 2 == 0)};
      ASSERT_TRUE(backend->PushRecord("mixed", std::move(row), ts).ok());
    }
    ASSERT_TRUE(backend->PushWatermark("mixed", ts).ok());
  };

  // Pumped as periods close: the slow tenant falls behind and delivers
  // from its staged batch across pumps.
  int64_t now = 0;
  for (int p = 0; p < 6; ++p) {
    push_period(4);
    mux.Pump(now);
    now += 100'000'000;
  }
  EXPECT_GT(quotas.ThrottledCount("slow"), 0u);
  // DROP with the slow feed's backlog still pending: CLOSED follows it.
  ASSERT_TRUE(backend->DropQuery(*q1).ok());
  for (int i = 0; i < 100 && mux.NumEntries() > 3; ++i) {
    now += 1'000'000'000;
    mux.Pump(now);
  }
  EXPECT_EQ(mux.NumEntries(), 3u);
  // More output for q2, then the drain path: delivered past the gate.
  for (int p = 0; p < 3; ++p) push_period(4);
  mux.FlushAll();

  std::map<cq::QueryId, std::vector<std::string>> bodies;  // sid stripped
  for (const auto& f : feeds) {
    const std::string head = "DATA " + std::to_string(f->sid);
    std::vector<std::string> want;
    for (const StreamBatch& b : f->log) {
      for (const StreamElement& e : b) {
        if (e.is_record()) want.push_back(GoldenData(head, e));
      }
    }
    EXPECT_GT(want.size(), 0u) << "sid " << f->sid;
    if (f->query == *q1) {
      want.push_back(EncodeFrame("CLOSED " + std::to_string(f->sid)));
    }
    EXPECT_EQ(f->sink.delivered, want) << "sid " << f->sid;
    std::vector<std::string> stripped;
    for (const std::string& frame : f->sink.delivered) {
      if (frame.find(head + " t=") != 4) continue;
      stripped.push_back(frame.substr(4 + head.size()));
    }
    std::sort(stripped.begin(), stripped.end());
    auto [it, fresh] = bodies.try_emplace(f->query, stripped);
    if (!fresh) {
      EXPECT_EQ(stripped, it->second) << "sid " << f->sid;
    }
  }
}

TEST(SubscriberMuxTest, EgressBytesMatchGoldenRenderingOnLocalBackend) {
  QueryService svc(Catalog{}, ServiceConfig{});
  LocalBackend backend(&svc);
  CheckGoldenEgress(&backend, {});
}

TEST(SubscriberMuxTest, EgressBytesMatchGoldenRenderingOnShardedBackend) {
  shard::ShardedQueryService svc(2);
  ShardedBackend backend(&svc);
  CheckGoldenEgress(&backend, {0});
}

// --- Server end-to-end ------------------------------------------------------

/// Blocking protocol client for driving a live server.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    struct timeval tv{.tv_sec = 10, .tv_usec = 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  void Send(const std::string& payload) {
    std::string wire = EncodeFrame(payload);
    ASSERT_EQ(write(fd_, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }

  std::string Recv() {
    std::string hdr = ReadExactly(4);
    if (hdr.size() < 4) return "<eof>";
    uint32_t len;
    memcpy(&len, hdr.data(), 4);
    return ReadExactly(ntohl(len));
  }

  /// Request/response in one call.
  std::string Cmd(const std::string& payload) {
    Send(payload);
    return Recv();
  }

  std::string ReadExactly(size_t n) {
    std::string out;
    while (out.size() < n) {
      char buf[4096];
      ssize_t got = read(fd_, buf, std::min(n - out.size(), sizeof(buf)));
      if (got <= 0) break;
      out.append(buf, static_cast<size_t>(got));
    }
    return out;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct ServerRig {
  explicit ServerRig(ServerConfig config = {})
      : svc(Catalog{},
            [this] {
              ServiceConfig c;
              c.metrics = &registry;
              return c;
            }()),
        backend(&svc),
        quotas(&registry) {
    config.metrics = &registry;
    if (config.quotas == nullptr) config.quotas = &quotas;
    config.tick_ms = 1;
    server = std::make_unique<Server>(&backend, config);
    server->AddHttpRoute("/metrics", "text/plain; version=0.0.4",
                         [this] { return registry.Dump(MetricsFormat::kText); });
    EXPECT_TRUE(server->Init().ok());
    thread = std::thread([this] { server->Run(); });
  }

  ~ServerRig() {
    if (thread.joinable()) {
      server->ShutdownAsync();
      thread.join();
    }
  }

  void Join() {
    thread.join();
  }

  MetricsRegistry registry;
  QueryService svc;
  LocalBackend backend;
  TenantQuotas quotas;
  std::unique_ptr<Server> server;
  std::thread thread;
};

TEST(NetServerTest, ProtocolRoundTripWithPollAndPush) {
  ServerRig rig;
  TestClient client(rig.server->port());

  EXPECT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  std::string reg = client.Cmd(
      "REGISTER SELECT sym, price FROM trades [Range 100] WHERE price > 10");
  ASSERT_EQ(reg, "OK id=1");
  EXPECT_EQ(client.Cmd("SUBSCRIBE 1"), "OK sub=1");
  EXPECT_EQ(client.Cmd("LISTEN 1"), "OK sub=2 push");
  EXPECT_EQ(client.Cmd("PUSH trades 1 ACME,42,5"), "OK");
  EXPECT_EQ(client.Cmd("PUSH trades 2 ACME,7,1"), "OK");
  EXPECT_EQ(client.Cmd("WATERMARK trades 5"), "OK");

  // Both feeds carry the one passing record: the push-mode frame arrives
  // unpolled (sid-tagged), the poll-mode one on request. Order between the
  // POLL reply and the pushed frame is not fixed — collect until both seen.
  client.Send("POLL 1");
  bool pushed = false, polled = false, ok_tail = false;
  for (int i = 0; i < 4 && !(pushed && polled && ok_tail); ++i) {
    std::string frame = client.Recv();
    if (frame.rfind("DATA 2 ", 0) == 0) {
      EXPECT_NE(frame.find("t=5 ('ACME', 42)"), std::string::npos) << frame;
      pushed = true;
    } else if (frame.rfind("DATA t=", 0) == 0) {
      polled = true;
    } else if (frame.rfind("OK n=1", 0) == 0) {
      ok_tail = true;
    } else {
      FAIL() << "unexpected frame: " << frame;
    }
  }
  EXPECT_TRUE(pushed);
  EXPECT_TRUE(polled);
  EXPECT_TRUE(ok_tail);

  // Errors keep the connection alive.
  EXPECT_EQ(client.Cmd("BOGUS").rfind("ERR", 0), 0u);
  std::string stats = client.Cmd("STATS");
  EXPECT_NE(stats.find("active_queries=1"), std::string::npos) << stats;
  EXPECT_EQ(client.Cmd("QUIT"), "OK bye");
}

TEST(NetServerTest, TenantQueryQuotaRejectsAtTheCap) {
  ServerRig rig;
  rig.quotas.SetQuota("acme", {.max_queries = 1});
  TestClient client(rig.server->port());
  ASSERT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  EXPECT_EQ(client.Cmd("TENANT acme"), "OK tenant=acme");
  EXPECT_EQ(client.Cmd("REGISTER SELECT sym FROM trades [Rows 4]"), "OK id=1");
  std::string second =
      client.Cmd("REGISTER SELECT price FROM trades [Rows 4]");
  EXPECT_EQ(second.rfind("ERR", 0), 0u) << second;
  EXPECT_NE(second.find("quota"), std::string::npos) << second;
  // DROP releases the tenant's slot.
  EXPECT_EQ(client.Cmd("DROP 1"), "OK");
  EXPECT_EQ(client.Cmd("REGISTER SELECT price FROM trades [Rows 4]"),
            "OK id=2");
}

TEST(NetServerTest, HttpGetServedFromTheSameLoop) {
  ServerRig rig;
  // Touch the protocol first so metrics families exist.
  TestClient proto(rig.server->port());
  ASSERT_EQ(proto.Cmd("STREAM trades sym:string,price:int64,qty:int64"), "OK");
  rig.registry.GetCounter("cq_test_requests_total")->Increment(3);

  // One request per connection; the server closes after the response.
  auto get = [&rig](const std::string& path) {
    TestClient http(rig.server->port());
    std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
    EXPECT_EQ(write(http.fd(), req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    return http.ReadExactly(1 << 20);
  };

  std::string resp = get("/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain"), std::string::npos);
  EXPECT_NE(resp.find("cq_net_connections"), std::string::npos);
  EXPECT_NE(resp.find("cq_test_requests_total 3"), std::string::npos);

  // Handlers re-evaluate per request, and query strings route to the bare
  // path.
  rig.registry.GetCounter("cq_test_requests_total")->Increment();
  EXPECT_NE(get("/metrics?x=1").find("cq_test_requests_total 4"),
            std::string::npos);

  std::string missing = get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("/metrics"), std::string::npos);  // lists known paths

  // A second server cannot take the bound port.
  ServerConfig busy;
  busy.port = rig.server->port();
  Server other(&rig.backend, busy);
  EXPECT_FALSE(other.Init().ok());
}

TEST(NetServerTest, SlowConsumerEvictionClosesTheConnection) {
  ServerConfig config;
  config.write_high_watermark = 1024;
  config.eviction_grace_ms = 50;
  // Bound the kernel send queue, else autotuned socket buffers absorb
  // megabytes before the user-space backlog ever crosses the watermark.
  config.so_sndbuf = 4096;
  ServerRig rig(config);

  TestClient driver(rig.server->port());
  ASSERT_EQ(driver.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  ASSERT_EQ(driver.Cmd("REGISTER SELECT sym, price, qty FROM trades "
                       "[Range 1000000] WHERE price > 10"),
            "OK id=1");

  // The victim LISTENs and then never reads. Shrink its kernel-side window
  // so the server's write buffer backs up fast.
  TestClient victim(rig.server->port());
  int tiny = 1;
  setsockopt(victim.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  ASSERT_EQ(victim.Cmd("LISTEN 1"), "OK sub=1 push");

  // Firehose enough output to overwhelm the victim's unread socket: wide
  // rows so the kernel's send buffer fills and the server-side write
  // backlog climbs past the watermark.
  const std::string payload(8'000, 'z');
  for (int ts = 1; ts <= 100 && rig.server->mux()->num_evicted() == 0; ++ts) {
    ASSERT_EQ(driver.Cmd("PUSH trades " + std::to_string(ts) + " " + payload +
                         ",42,1"),
              "OK");
    ASSERT_EQ(driver.Cmd("WATERMARK trades " + std::to_string(ts)), "OK");
  }

  // The mux pump runs on the loop tick; wait for the eviction to land.
  for (int i = 0; i < 500 && rig.server->mux()->num_evicted() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(rig.server->mux()->num_evicted(), 0u);
  EXPECT_EQ(rig.server->mux()->NumEntries(), 0u);

  // The victim's socket was closed by the server (EOF, or RST since the
  // close dropped unread bytes).
  char buf[4096];
  ssize_t n;
  while ((n = read(victim.fd(), buf, sizeof(buf))) > 0) {
  }
  EXPECT_TRUE(n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))
      << strerror(errno);

  // …the driver survives, and the subscription refcount released once the
  // sink flushed again.
  ASSERT_EQ(driver.Cmd("PUSH trades 9999 ACME,42,1"), "OK");
  ASSERT_EQ(driver.Cmd("WATERMARK trades 9999"), "OK");
  EXPECT_EQ(rig.svc.ListQueries()[0].num_subscriptions, 0u);
  std::string dump = rig.registry.Dump(MetricsFormat::kText);
  EXPECT_NE(dump.find("cq_net_evicted_total"), std::string::npos);
}

TEST(NetServerTest, EvictionOfTheCommandingConnectionIsSafe) {
  // Regression: a LISTENer that is itself over the watermark past its grace
  // and then sends a command used to be evicted by the in-handler pump while
  // HandleConnEvent still held the raw pointer — a use-after-free. A huge
  // tick keeps the loop's own pump out of the way so the command-path pump
  // is the one that evicts.
  MetricsRegistry registry;
  ServiceConfig svc_config;
  svc_config.metrics = &registry;
  QueryService svc(Catalog{}, svc_config);
  LocalBackend backend(&svc);
  ServerConfig config;
  config.metrics = &registry;
  config.write_high_watermark = 1024;
  config.eviction_grace_ms = 200;
  config.so_sndbuf = 4096;
  config.tick_ms = 60'000;
  Server server(&backend, config);
  ASSERT_TRUE(server.Init().ok());
  std::thread loop([&server] { server.Run(); });

  TestClient driver(server.port());
  ASSERT_EQ(driver.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  ASSERT_EQ(driver.Cmd("REGISTER SELECT sym, price, qty FROM trades "
                       "[Range 1000000] WHERE price > 10"),
            "OK id=1");

  TestClient victim(server.port());
  int tiny = 1;
  setsockopt(victim.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  ASSERT_EQ(victim.Cmd("LISTEN 1"), "OK sub=1 push");

  // Back the victim up well past the watermark, then let the grace lapse.
  const std::string payload(8'000, 'z');
  for (int ts = 1; ts <= 20; ++ts) {
    ASSERT_EQ(driver.Cmd("PUSH trades " + std::to_string(ts) + " " + payload +
                         ",42,1"),
              "OK");
    ASSERT_EQ(driver.Cmd("WATERMARK trades " + std::to_string(ts)), "OK");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The victim's own command triggers the pump that evicts the victim.
  char stats[] = "STATS";
  std::string wire = EncodeFrame(stats);
  ASSERT_EQ(write(victim.fd(), wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  // The server must survive the self-eviction: the driver keeps working and
  // the victim's socket is gone.
  for (int i = 0; i < 100 && server.mux()->num_evicted() == 0; ++i) {
    ASSERT_EQ(driver.Cmd("PUSH trades 9999 ACME,42,1"), "OK");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server.mux()->num_evicted(), 0u);
  std::string alive = driver.Cmd("STATS");
  EXPECT_NE(alive.find("active_queries=1"), std::string::npos) << alive;

  server.ShutdownAsync();
  loop.join();
}

TEST(NetServerTest, HttpHeaderWithoutTerminatorIsRejectedNotBuffered) {
  ServerRig rig;
  TestClient client(rig.server->port());
  // An HTTP-looking prelude that never sends the header terminator: the
  // server must cap the buffering and reject instead of growing forever.
  // Just over the cap, in one write: the server consumes it all before
  // responding, so the 431 isn't raced by an RST for unread bytes.
  std::string garbage = "GET /" + std::string(10'000, 'a');
  ASSERT_EQ(write(client.fd(), garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  std::string resp = client.ReadExactly(1 << 16);  // server closes after
  EXPECT_NE(resp.find("431"), std::string::npos) << resp.substr(0, 200);
}

TEST(NetServerTest, OverflowingIdIsRejectedNotWrapped) {
  ServerRig rig;
  TestClient client(rig.server->port());
  ASSERT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  ASSERT_EQ(client.Cmd("REGISTER SELECT sym FROM trades [Rows 4]"), "OK id=1");
  // 2^64 wraps to 0 without an overflow check; it must be an error, not a
  // reference to some other id.
  std::string resp = client.Cmd("DROP 18446744073709551616");
  EXPECT_EQ(resp.rfind("ERR", 0), 0u) << resp;
  EXPECT_NE(resp.find("out of range"), std::string::npos) << resp;
  resp = client.Cmd("SUBSCRIBE 99999999999999999999999");
  EXPECT_EQ(resp.rfind("ERR", 0), 0u) << resp;
  // The real query is untouched.
  EXPECT_EQ(client.Cmd("DROP 1"), "OK");
}

TEST(NetServerTest, GracefulDrainFlushesSubscribersBeforeClosing) {
  ServerRig rig;
  TestClient client(rig.server->port());
  ASSERT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  ASSERT_EQ(client.Cmd(
                "REGISTER SELECT sym, price FROM trades [Range 100] "
                "WHERE price > 10"),
            "OK id=1");
  ASSERT_EQ(client.Cmd("LISTEN 1"), "OK sub=1 push");
  ASSERT_EQ(client.Cmd("PUSH trades 1 ACME,42,5"), "OK");
  ASSERT_EQ(client.Cmd("WATERMARK trades 1"), "OK");

  std::atomic<bool> hook_ran{false};
  rig.server->SetDrainHook([&hook_ran] {
    hook_ran = true;
    return Status::OK();
  });
  rig.server->ShutdownAsync();
  rig.Join();
  EXPECT_TRUE(hook_ran);

  // Every result the query produced reached the wire before the close: the
  // push frame, then EOF.
  std::string frame = client.Recv();
  EXPECT_NE(frame.find("DATA 1 t=1 ('ACME', 42)"), std::string::npos)
      << frame;
  char buf[64];
  EXPECT_EQ(read(client.fd(), buf, sizeof(buf)), 0);
}

/// The serve-mode durability contract, in the style of
/// service_recovery_test: a server that drains on shutdown loses nothing —
/// a fresh process recovering from its checkpoint continues the windows
/// exactly, and every staged fence frame was published.
TEST(NetServerTest, DrainCheckpointThenRecoverContinuesWindows) {
  const std::string dir = ScratchDir("drain");

  // --- Life 1: serve, ingest the first act, SIGTERM-style drain. ----------
  {
    ft::DurableOutputLog log(dir + "/out");
    ASSERT_TRUE(log.Init().ok());
    ft::SnapshotStore store(dir + "/snap");
    ASSERT_TRUE(store.Init().ok());

    QueryService svc(Catalog{}, ServiceConfig{});
    svc.SetDurableOutputLog(&log);
    ft::CheckpointCoordinator coord(&svc, &store);
    coord.SetOutputLog(&log);
    coord.SetWatermarkFn([] { return Timestamp{0}; });
    svc.SetBarrierHandler(coord.Handler(svc.BarrierFanIn()));

    LocalBackend backend(&svc);
    Server server(&backend, ServerConfig{});
    server.SetDrainHook([&] {
      CQ_ASSIGN_OR_RETURN(uint64_t epoch, coord.TriggerBarrierCheckpoint(&svc));
      return coord.WaitForEpoch(epoch);
    });
    ASSERT_TRUE(server.Init().ok());
    std::thread loop([&server] { server.Run(); });

    TestClient client(server.port());
    ASSERT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
              "OK");
    ASSERT_EQ(client.Cmd("REGISTER SELECT sym, SUM(qty) AS total FROM trades "
                         "[Range 100] WHERE price > 10 GROUP BY sym"),
              "OK id=1");
    const char* acts[] = {"1 ACME,12,100", "2 ACME,8,50",  "3 GLOBEX,40,10",
                          "4 ACME,15,30",  "5 GLOBEX,9,99", "6 GLOBEX,41,5"};
    for (const char* act : acts) {
      ASSERT_EQ(client.Cmd(std::string("PUSH trades ") + act), "OK");
      ASSERT_EQ(client.Cmd("WATERMARK trades " +
                           std::string(act).substr(0, 1)),
                "OK");
    }
    server.ShutdownAsync();
    loop.join();
  }

  // The drain checkpoint published the staged fence frames: all four
  // passing records' aggregate outputs, none lost.
  ft::DurableOutputLog reader(dir + "/out");
  auto published = reader.ReadAll();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published->size(), 4u);

  // --- Life 2: recover and stream the second act. --------------------------
  {
    ft::DurableOutputLog log(dir + "/out");
    ASSERT_TRUE(log.Init().ok());
    ft::SnapshotStore store(dir + "/snap");
    ASSERT_TRUE(store.Init().ok());
    QueryService svc(Catalog{}, ServiceConfig{});
    svc.SetDurableOutputLog(&log);
    ft::RecoveryManager recovery(&store);
    recovery.SetOutputLog(&log);
    auto report = recovery.Recover(&svc, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->restored);
    ASSERT_EQ(svc.NumActiveQueries(), 1u);

    auto sub = svc.Subscribe(svc.ListQueries()[0].id);
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(svc.PushRecord("trades", Trade("ACME", 20, 7), 7).ok());
    ASSERT_TRUE(svc.PushWatermark("trades", 7).ok());

    // ACME totalled 130 before the drain (100 + 30); the restored window
    // carries that into the second act: 130 + 7 = 137.
    std::vector<std::string> rows;
    StreamBatch batch;
    while ((*sub)->TryPoll(&batch)) {
      for (const auto& e : batch) {
        if (e.is_record()) rows.push_back(e.tuple.ToString());
      }
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], "('ACME', 137)");
  }
  fs::remove_all(dir);
}

TEST(NetServerTest, ShardKeyOnLocalBackendIsRejected) {
  ServerRig rig;
  TestClient client(rig.server->port());
  std::string resp =
      client.Cmd("STREAM trades sym:string,price:int64,qty:int64 key=sym");
  EXPECT_EQ(resp.rfind("ERR", 0), 0u) << resp;
  EXPECT_NE(resp.find("--shards"), std::string::npos) << resp;
}

// --- Row parsing ------------------------------------------------------------

TEST(ParseRowTest, FieldMustBeWhollyAValueOfItsType) {
  SchemaPtr schema = MixedSchema();
  auto row = ParseRow("12abc,-12,1.5,true", *schema);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->at(0).string_value(), "12abc");
  EXPECT_EQ(row->at(1).int64_value(), -12);
  EXPECT_EQ(row->at(2).double_value(), 1.5);
  EXPECT_TRUE(row->at(3).bool_value());
  for (const char* b : {"false", "0"}) {
    auto r = ParseRow(std::string("s,1,2,") + b, *schema);
    ASSERT_TRUE(r.ok()) << b;
    EXPECT_FALSE(r->at(3).bool_value()) << b;
  }
  auto one = ParseRow("s,1,2,1", *schema);
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(one->at(3).bool_value());

  for (const char* bad :
       {"s,12abc,1.5,true", "s,1.9,1.5,true", "s,12,1.5x,true",
        "s,12,1.5,yes", "s,,1.5,true", "s,12,,true", "s,12,1.5,",
        "s, 12,1.5,true", "s,99999999999999999999,1.5,true",
        "s,12,1e999,true"}) {
    auto r = ParseRow(bad, *schema);
    EXPECT_FALSE(r.ok()) << bad;
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
    }
  }
}

TEST(NetServerTest, PushWithMalformedFieldIsRejected) {
  ServerRig rig;
  TestClient client(rig.server->port());
  ASSERT_EQ(client.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
            "OK");
  std::string resp = client.Cmd("PUSH trades 1 ACME,12abc,5");
  EXPECT_EQ(resp.rfind("ERR", 0), 0u) << resp;
  EXPECT_EQ(client.Cmd("PUSH trades 1 ACME,12,5"), "OK");
}

TEST(NetServerTest, PollAndPushFramesMatchGoldenRendering) {
  ServerRig rig;
  TestClient client(rig.server->port());
  // Pushed frames (sub 2) may arrive between any two replies: stash them.
  std::vector<std::string> pushed;
  auto reply = [&](const std::string& cmd) {
    if (!cmd.empty()) client.Send(cmd);
    while (true) {
      std::string frame = client.Recv();
      if (frame.rfind("DATA 2 ", 0) == 0 || frame.rfind("CLOSED 2", 0) == 0) {
        pushed.push_back(frame);
        continue;
      }
      return frame;
    }
  };
  ASSERT_EQ(reply("STREAM mixed sym:string,qty:int64,px:double,ok:bool"),
            "OK");
  ASSERT_EQ(reply("REGISTER SELECT sym, qty, px, ok FROM mixed [Range 100] "
                  "WHERE qty > 0"),
            "OK id=1");
  auto ref = rig.svc.Subscribe(1);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(reply("SUBSCRIBE 1"), "OK sub=1");
  ASSERT_EQ(reply("LISTEN 1"), "OK sub=2 push");
  ASSERT_EQ(reply("PUSH mixed 1 ACME,3,1.5,true"), "OK");
  ASSERT_EQ(reply("PUSH mixed 2 Big Co,4,-0.25,false"), "OK");
  ASSERT_EQ(reply("PUSH mixed 3 o'k,7,1e20,1"), "OK");
  ASSERT_EQ(reply("PUSH mixed 4 Z,0,2,0"), "OK");
  ASSERT_EQ(reply("WATERMARK mixed 4"), "OK");

  std::vector<std::string> want_poll, want_push;
  StreamBatch batch;
  while ((*ref)->TryPoll(&batch)) {
    for (const StreamElement& e : batch) {
      if (!e.is_record()) continue;
      // Payloads: the client strips the length prefix it checked.
      want_poll.push_back(GoldenData("DATA", e).substr(4));
      want_push.push_back(GoldenData("DATA 2", e).substr(4));
    }
  }
  ASSERT_EQ(want_poll.size(), 3u);

  client.Send("POLL 1");
  std::vector<std::string> polled;
  std::string tail;
  while ((tail = reply("")).rfind("DATA t=", 0) == 0) polled.push_back(tail);
  EXPECT_EQ(tail, "OK n=3");
  EXPECT_EQ(polled, want_poll);

  ASSERT_EQ(reply("DROP 1"), "OK");
  while (pushed.empty() || pushed.back().rfind("CLOSED", 0) != 0) {
    pushed.push_back(client.Recv());
  }
  want_push.push_back("CLOSED 2");
  EXPECT_EQ(pushed, want_push);
}


TEST(NetServerTest, DoublesReachSubscribersAtFullPrecision) {
  ServerRig rig;
  TestClient client(rig.server->port());
  ASSERT_EQ(client.Cmd("STREAM px sym:string,v:double"), "OK");
  ASSERT_EQ(client.Cmd("REGISTER SELECT sym, v FROM px [Range 100]"),
            "OK id=1");
  ASSERT_EQ(client.Cmd("SUBSCRIBE 1"), "OK sub=1");
  ASSERT_EQ(client.Cmd("LISTEN 1"), "OK sub=2 push");
  ASSERT_EQ(client.Cmd("PUSH px 1 A,1234567.89"), "OK");
  ASSERT_EQ(client.Cmd("PUSH px 2 B,0.1234567891"), "OK");
  ASSERT_EQ(client.Cmd("WATERMARK px 2"), "OK");
  // The pushed frames were written during the WATERMARK's wakeup, ahead
  // of the POLL reply.
  client.Send("POLL 1");
  std::vector<std::string> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(client.Recv());
  EXPECT_EQ(frames, (std::vector<std::string>{
                        "DATA 2 t=2 ('A', 1234567.89)",
                        "DATA 2 t=2 ('B', 0.1234567891)",
                        "DATA t=2 ('A', 1234567.89)",
                        "DATA t=2 ('B', 0.1234567891)", "OK n=2"}));
}

// --- Ingest runs --------------------------------------------------------------

/// Forwards to a real feed and counts its polls.
class CountingFeed : public SubscriberFeed {
 public:
  CountingFeed(std::unique_ptr<SubscriberFeed> inner,
               std::atomic<uint64_t>* polls)
      : inner_(std::move(inner)), polls_(polls) {}

  bool TryPoll(StreamBatch* out) override {
    polls_->fetch_add(1);
    return inner_->TryPoll(out);
  }
  void Cancel() override { inner_->Cancel(); }
  bool Closed() const override { return inner_->Closed(); }
  size_t Depth() const override { return inner_->Depth(); }
  uint64_t QueryId() const override { return inner_->QueryId(); }

 private:
  std::unique_ptr<SubscriberFeed> inner_;
  std::atomic<uint64_t>* polls_;
};

/// Forwards to a real backend, logs every ingest call it receives and
/// counts the polls of the feeds it hands out.
class RecordingBackend : public ServiceBackend {
 public:
  explicit RecordingBackend(ServiceBackend* inner) : inner_(inner) {}

  Status RegisterStream(const std::string& name, SchemaPtr schema,
                        std::vector<size_t> shard_key) override {
    return inner_->RegisterStream(name, std::move(schema),
                                  std::move(shard_key));
  }
  Result<cq::QueryId> RegisterQuery(const std::string& sql) override {
    return inner_->RegisterQuery(sql);
  }
  Status DropQuery(cq::QueryId id) override { return inner_->DropQuery(id); }
  Result<std::unique_ptr<SubscriberFeed>> Subscribe(cq::QueryId id) override {
    CQ_ASSIGN_OR_RETURN(std::unique_ptr<SubscriberFeed> feed,
                        inner_->Subscribe(id));
    return std::unique_ptr<SubscriberFeed>(
        std::make_unique<CountingFeed>(std::move(feed), &polls));
  }
  Status PushRecord(const std::string& stream, Tuple tuple,
                    Timestamp ts) override {
    calls.push_back("record " + stream);
    return inner_->PushRecord(stream, std::move(tuple), ts);
  }
  Status PushWatermark(const std::string& stream, Timestamp wm) override {
    calls.push_back("watermark " + stream);
    return inner_->PushWatermark(stream, wm);
  }
  Status PushBatch(const std::string& stream, StreamBatch batch) override {
    calls.push_back("batch " + stream + " " +
                    std::to_string(batch.num_records()) + "+" +
                    std::to_string(batch.size() - batch.num_records()));
    return inner_->PushBatch(stream, std::move(batch));
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

  std::vector<std::string> calls;  // read only after the server stopped
  std::atomic<uint64_t> polls{0};   // TryPoll calls on any handed-out feed

 private:
  ServiceBackend* inner_;
};

struct IngestOutcome {
  std::vector<std::string> replies;
  std::vector<std::string> listened;  // LISTEN frames up to both CLOSEDs
  std::vector<std::string> calls;
};

/// Two streams, one query and one LISTEN feed on each; then `frames` from
/// the producer connection, all in one send or one send per frame (each
/// awaiting its reply), then both queries dropped.
IngestOutcome RunIngestScript(bool sharded, bool one_send,
                              const std::vector<std::string>& frames) {
  std::unique_ptr<QueryService> local;
  std::unique_ptr<shard::ShardedQueryService> shards;
  std::unique_ptr<ServiceBackend> inner;
  if (sharded) {
    shards = std::make_unique<shard::ShardedQueryService>(2);
    inner = std::make_unique<ShardedBackend>(shards.get());
  } else {
    local = std::make_unique<QueryService>(Catalog{}, ServiceConfig{});
    inner = std::make_unique<LocalBackend>(local.get());
  }
  RecordingBackend backend(inner.get());
  ServerConfig config;
  config.tick_ms = 1;
  Server server(&backend, config);
  EXPECT_TRUE(server.Init().ok());
  std::thread loop([&] { server.Run(); });

  IngestOutcome out;
  {
    TestClient producer(server.port());
    TestClient listener(server.port());
    const std::string key = sharded ? " key=sym" : "";
    for (const char* stream : {"a", "b"}) {
      EXPECT_EQ(producer.Cmd(std::string("STREAM ") + stream +
                             " sym:string,qty:int64,px:double" + key),
                "OK");
      EXPECT_EQ(producer
                    .Cmd(std::string("REGISTER SELECT sym, px FROM ") +
                         stream + " [Range 100] WHERE qty > 0")
                    .rfind("OK id=", 0),
                0u);
    }
    EXPECT_EQ(listener.Cmd("LISTEN 1"), "OK sub=1 push");
    EXPECT_EQ(listener.Cmd("LISTEN 2"), "OK sub=2 push");

    if (one_send) {
      std::string wire;
      for (const std::string& f : frames) wire += EncodeFrame(f);
      EXPECT_EQ(write(producer.fd(), wire.data(), wire.size()),
                static_cast<ssize_t>(wire.size()));
      for (size_t i = 0; i < frames.size(); ++i) {
        out.replies.push_back(producer.Recv());
      }
    } else {
      for (const std::string& f : frames) out.replies.push_back(producer.Cmd(f));
    }
    EXPECT_EQ(producer.Cmd("DROP 1"), "OK");
    EXPECT_EQ(producer.Cmd("DROP 2"), "OK");
    int closed = 0;
    while (closed < 2) {
      std::string frame = listener.Recv();
      if (frame == "<eof>") break;
      if (frame.rfind("CLOSED ", 0) == 0) ++closed;
      out.listened.push_back(frame);
    }
  }
  server.ShutdownAsync();
  loop.join();
  out.calls = backend.calls;
  return out;
}

/// PUSH, a malformed PUSH, PUSH, WATERMARK, STATS, then PUSH/WATERMARK on a
/// second stream.
std::vector<std::string> MixedIngestFrames() {
  return {"PUSH a 1 ACME,3,1.5",    "PUSH a 2 ACME,zz,2.5",
          "PUSH a 3 Big Co,4,0.25", "WATERMARK a 5",
          "STATS",                  "PUSH b 4 Zed,2,1234567.89",
          "WATERMARK b 6"};
}

void CheckIngestRunsCoalesce(bool sharded) {
  const std::vector<std::string> frames = MixedIngestFrames();
  IngestOutcome burst = RunIngestScript(sharded, /*one_send=*/true, frames);
  IngestOutcome each = RunIngestScript(sharded, /*one_send=*/false, frames);

  // One reply per frame, in frame order; the malformed frame alone fails.
  ASSERT_EQ(burst.replies.size(), frames.size());
  EXPECT_EQ(burst.replies[0], "OK");
  EXPECT_EQ(burst.replies[1].rfind("ERR ", 0), 0u) << burst.replies[1];
  EXPECT_EQ(burst.replies[2], "OK");
  EXPECT_EQ(burst.replies[3], "OK");
  EXPECT_EQ(burst.replies[4].rfind("OK operators=", 0), 0u)
      << burst.replies[4];
  EXPECT_EQ(burst.replies[5], "OK");
  EXPECT_EQ(burst.replies[6], "OK");
  EXPECT_EQ(burst.replies, each.replies);

  // The malformed frame's neighbours were applied, and the subscriber
  // bytes equal those of the same frames sent one at a time.
  // Results carry the watermark that released them.
  std::vector<std::string> want = {"DATA 1 t=5 ('ACME', 1.5)",
                                   "DATA 1 t=5 ('Big Co', 0.25)",
                                   "DATA 2 t=6 ('Zed', 1234567.89)"};
  for (const std::string& frame : want) {
    EXPECT_NE(std::find(burst.listened.begin(), burst.listened.end(), frame),
              burst.listened.end())
        << frame;
  }
  EXPECT_EQ(burst.listened.size(), want.size() + 2);  // + 2 CLOSED
  EXPECT_EQ(burst.listened, each.listened);

  // One PushBatch per run: the malformed frame, STATS and the stream
  // change each end a run.
  EXPECT_EQ(burst.calls, (std::vector<std::string>{
                             "batch a 1+0", "batch a 1+1", "batch b 1+1"}));
  EXPECT_EQ(each.calls.size(), 5u);  // one per well-formed frame
}

TEST(NetServerTest, IngestBurstCoalescesIntoRunsOnLocalBackend) {
  CheckIngestRunsCoalesce(/*sharded=*/false);
}

TEST(NetServerTest, IngestBurstCoalescesIntoRunsOnShardedBackend) {
  CheckIngestRunsCoalesce(/*sharded=*/true);
}

TEST(NetServerTest, EachConnectionEventPollsTheFeedsOnce) {
  // A connection event pumps the mux once; the tick runs only when its
  // interval has passed, not after every event. A feed with nothing queued
  // costs one TryPoll per pass, so with the one LISTEN feed and no
  // watermark, each PUSH event is exactly one poll.
  QueryService svc(Catalog{}, ServiceConfig{});
  LocalBackend local(&svc);
  RecordingBackend backend(&local);
  ServerConfig config;
  config.tick_ms = 1000;
  Server server(&backend, config);
  ASSERT_TRUE(server.Init().ok());
  std::thread loop([&] { server.Run(); });
  {
    TestClient producer(server.port());
    TestClient listener(server.port());
    ASSERT_EQ(producer.Cmd("STREAM trades sym:string,price:int64,qty:int64"),
              "OK");
    ASSERT_EQ(producer.Cmd("REGISTER SELECT sym, price FROM trades "
                           "[Range 100]"),
              "OK id=1");
    ASSERT_EQ(listener.Cmd("LISTEN 1"), "OK sub=1 push");
    // Replies go out before the loop finishes its round; let the round
    // that answered LISTEN end before counting.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t before = backend.polls.load();
    constexpr uint64_t kPushes = 20;
    for (uint64_t ts = 1; ts <= kPushes; ++ts) {
      ASSERT_EQ(producer.Cmd("PUSH trades " + std::to_string(ts) +
                             " ACME,42,1"),
                "OK");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t polls = backend.polls.load() - before;
    // One pass per event; a tick that falls due meanwhile adds one more.
    EXPECT_GE(polls, kPushes);
    EXPECT_LE(polls, kPushes + 1);
  }
  server.ShutdownAsync();
  loop.join();
}

}  // namespace
}  // namespace cq::net
