#include "oracle.h"

#include <memory>
#include <string_view>

#include "net/backend.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/trace.h"
#include "service/service.h"

namespace cq::perfbench {

namespace {

SchemaPtr TradesSchema() {
  return Schema::Make({{"sym", ValueType::kString},
                       {"price", ValueType::kInt64},
                       {"qty", ValueType::kInt64}});
}

/// An unsharded service with the workload's stream and queries.
Result<std::unique_ptr<QueryService>> MakeReference(
    const Workload& workload, std::vector<cq::QueryId>* ids) {
  ServiceConfig config;
  config.max_queries = 1024;
  auto svc = std::make_unique<QueryService>(Catalog{}, config);
  CQ_RETURN_NOT_OK(svc->RegisterStream("trades", TradesSchema()));
  for (const std::string& sql : workload.queries) {
    CQ_ASSIGN_OR_RETURN(cq::QueryId id, svc->RegisterQuery(sql));
    ids->push_back(id);
  }
  return svc;
}

Status PushFrame(QueryService* svc, const Traffic& traffic, uint64_t f) {
  const uint64_t seq = FrameSeq(f);
  const Timestamp ts = static_cast<Timestamp>(seq);
  if (IsWatermarkFrame(f)) return svc->PushWatermark("trades", ts);
  const Record r = traffic.At(seq);
  return svc->PushRecord(
      "trades", Tuple{Value(traffic.name(r.sym)), Value(r.price),
                      Value(r.qty)},
      ts);
}

/// Accepts and discards delivered wire bytes.
class DiscardingSink : public net::MuxSink {
 public:
  bool Deliver(std::string_view) override { return true; }
  size_t PendingBytes() const override { return 0; }
};

}  // namespace

Result<std::vector<PeriodDigests>> RunOracle(const Workload& workload,
                                             const Traffic& traffic,
                                             uint64_t frames) {
  std::vector<cq::QueryId> ids;
  CQ_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> svc,
                      MakeReference(workload, &ids));
  std::vector<SubscriptionPtr> subs;
  for (cq::QueryId id : ids) {
    CQ_ASSIGN_OR_RETURN(SubscriptionPtr sub, svc->Subscribe(id));
    subs.push_back(std::move(sub));
  }
  std::vector<PeriodDigests> digests(ids.size());
  std::string text;
  for (uint64_t f = 0; f < frames; ++f) {
    CQ_RETURN_NOT_OK(PushFrame(svc.get(), traffic, f));
    if (!IsWatermarkFrame(f)) continue;
    // Results leave on watermarks; drain before the channel credits run
    // out.
    for (size_t q = 0; q < subs.size(); ++q) {
      StreamBatch batch;
      while (subs[q]->TryPoll(&batch)) {
        for (const auto& e : batch) {
          if (!e.is_record()) continue;
          uint64_t period = 0;
          if (!WatermarkIndex(e.timestamp, &period)) {
            return Status::Internal("oracle result off a watermark");
          }
          text = "t=" + std::to_string(e.timestamp) + " " + e.tuple.ToString();
          AddToPeriod(&digests[q], period, Hash64(text));
        }
      }
    }
  }
  for (const auto& sub : subs) {
    if (sub->dropped() != 0) {
      return Status::Internal("oracle subscription dropped batches");
    }
  }
  return digests;
}

Result<LayerReplay> ReplayLayers(const Workload& workload,
                                 const Traffic& traffic, uint64_t frames) {
  LayerReplay out;
  std::string wire;
  for (uint64_t f = 0; f < frames; ++f) AppendFrame(traffic, f, &wire);

  // Decode: the wire bytes in read()-sized chunks, every frame popped.
  {
    constexpr size_t kChunk = 4096;  // the server's read buffer
    net::FrameReader reader;
    std::string frame;
    uint64_t decoded = 0;
    const int64_t t0 = MonotonicNanos();
    for (size_t pos = 0; pos < wire.size(); pos += kChunk) {
      reader.Append(std::string_view(wire).substr(pos, kChunk));
      while (true) {
        auto next = reader.Next(&frame);
        if (!next.ok()) return next.status();
        if (!*next) break;
        ++decoded;
      }
    }
    const int64_t t1 = MonotonicNanos();
    if (decoded != frames) return Status::Internal("replay decode lost frames");
    out.decode_ns_per_frame =
        static_cast<double>(t1 - t0) / static_cast<double>(frames);
  }

  // Parse: each PUSH row against the stream schema.
  {
    SchemaPtr schema = TradesSchema();
    std::vector<std::string> rows;
    std::string frame;
    for (uint64_t f = 0; f < frames; ++f) {
      if (IsWatermarkFrame(f)) continue;
      frame.clear();
      AppendFrame(traffic, f, &frame);
      // "PUSH trades <ts> <csv>": the row is after the third space.
      size_t pos = 4;
      for (int i = 0; i < 3; ++i) pos = frame.find(' ', pos) + 1;
      rows.push_back(frame.substr(pos));
    }
    const int64_t t0 = MonotonicNanos();
    for (const std::string& row : rows) {
      auto tuple = net::ParseRow(row, *schema);
      if (!tuple.ok()) return tuple.status();
    }
    const int64_t t1 = MonotonicNanos();
    out.parse_ns_per_record =
        static_cast<double>(t1 - t0) / static_cast<double>(rows.size());
  }

  // Mux: the workload's feeds over discarding sinks; only Pump is timed.
  {
    std::vector<cq::QueryId> ids;
    CQ_ASSIGN_OR_RETURN(std::unique_ptr<QueryService> svc,
                        MakeReference(workload, &ids));
    net::LocalBackend backend(svc.get());
    net::SubscriberMux mux{net::MuxConfig{}};
    std::vector<DiscardingSink> sinks(workload.subscriber_conns);
    uint64_t sid = 0;
    for (size_t i = 0; i < workload.feeds_per_query; ++i) {
      for (cq::QueryId id : ids) {
        CQ_ASSIGN_OR_RETURN(std::unique_ptr<net::SubscriberFeed> feed,
                            backend.Subscribe(id));
        ++sid;
        mux.Add(sid, "default", std::move(feed), &sinks[sid % sinks.size()]);
      }
    }
    int64_t pump_ns = 0;
    for (uint64_t f = 0; f < frames; ++f) {
      CQ_RETURN_NOT_OK(PushFrame(svc.get(), traffic, f));
      if (!IsWatermarkFrame(f)) continue;
      const int64_t t0 = MonotonicNanos();
      mux.Pump(t0);
      pump_ns += MonotonicNanos() - t0;
    }
    const uint64_t delivered = mux.frames_delivered();
    out.mux_ns_per_frame =
        delivered == 0 ? 0
                       : static_cast<double>(pump_ns) /
                             static_cast<double>(delivered);
  }
  return out;
}

}  // namespace cq::perfbench
