#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "dataflow/window_operator.h"
#include "net/backend.h"
#include "net/quotas.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "shard/sharded_pipeline.h"
#include "shard/sharded_service.h"

namespace cq {
namespace {

Catalog TradesCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterStream("trades",
                                  Schema::Make({{"sym", ValueType::kString},
                                                {"price", ValueType::kInt64},
                                                {"qty", ValueType::kInt64}}))
                  .ok());
  return catalog;
}

Tuple Trade(const char* sym, int64_t price, int64_t qty) {
  return Tuple{Value(sym), Value(price), Value(qty)};
}

// --- Lint rules -------------------------------------------------------------

TEST(MetricsLintTest, CleanRegistryHasNoProblems) {
  MetricsRegistry registry;
  registry.GetCounter("cq_query_output_records_total",
                      {{"query", "1"}, {"fingerprint", "00ab"}});
  registry.GetGauge("cq_channel_depth", {{"channel", "worker-0"}});
  registry.GetDoubleGauge("cq_dataflow_selectivity",
                          {{"node", "flt:1"}, {"id", "2"}});
  registry.GetHistogram("cq_channel_queue_wait_us", {{"channel", "worker-0"}});
  EXPECT_TRUE(registry.LintProblems().empty());
}

TEST(MetricsLintTest, BadMetricNameIsFlagged) {
  MetricsRegistry registry;
  registry.GetCounter("9starts_with_digit");
  registry.GetCounter("has-dash_total");
  std::vector<std::string> problems = registry.LintProblems();
  EXPECT_EQ(problems.size(), 2u);
}

TEST(MetricsLintTest, BadLabelKeyIsFlagged) {
  MetricsRegistry registry;
  registry.GetCounter("cq_ok_total", {{"bad-key", "v"}});
  EXPECT_EQ(registry.LintProblems().size(), 1u);
}

TEST(MetricsLintTest, UnescapableLabelValueIsFlagged) {
  MetricsRegistry registry;
  registry.GetCounter("cq_ok_total", {{"k", "has\"quote"}});
  EXPECT_EQ(registry.LintProblems().size(), 1u);
}

TEST(MetricsLintTest, MixedLabelKeySetsWithinFamilyAreFlagged) {
  MetricsRegistry registry;
  registry.GetCounter("cq_mixed_total", {{"node", "a"}});
  registry.GetCounter("cq_mixed_total", {{"channel", "b"}});
  EXPECT_EQ(registry.LintProblems().size(), 1u);
}

// --- The real exposition surface --------------------------------------------

/// Runs a service with every instrument family live (per-node, per-query,
/// per-channel, late drops) and asserts the whole registry survives the
/// lint — this is what guards the /metrics endpoint against invalid series.
TEST(MetricsLintTest, ServiceExpositionIsLintClean) {
  MetricsRegistry registry;
  TraceRecorder tracer;
  ServiceConfig cfg;
  cfg.metrics = &registry;
  cfg.tracer = &tracer;
  QueryService svc(TradesCatalog(), cfg);
  ASSERT_TRUE(svc.RegisterQuery(
                     "SELECT sym FROM trades [Range 100] WHERE price > 10")
                  .ok());
  auto agg = svc.RegisterQuery(
      "SELECT sym, SUM(qty) AS total FROM trades [Range 100] "
      "WHERE price > 10 GROUP BY sym");
  ASSERT_TRUE(agg.ok());
  auto sub = *svc.Subscribe(*agg);
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 20, 1), 5).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 5).ok());
  // A record behind the watermark exercises the late-drop counter.
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 30, 1), 1).ok());

  EXPECT_TRUE(registry.LintProblems().empty())
      << registry.LintProblems().front();

  std::string text = svc.DumpMetrics(MetricsFormat::kText);
  EXPECT_NE(text.find("cq_dataflow_selectivity"), std::string::npos);
  EXPECT_NE(text.find("cq_query_latency_us"), std::string::npos);
  // Columnar coverage counters: both families exposed (and lint-clean, via
  // the registry-wide check above).
  EXPECT_NE(text.find("cq_dataflow_vectorized_batches_total"),
            std::string::npos);
  EXPECT_NE(text.find("cq_dataflow_row_fallback_batches_total"),
            std::string::npos);
  // The renamed late-drop family (records, not windows, are dropped).
  EXPECT_NE(text.find("cq_dataflow_late_records_dropped_total"),
            std::string::npos);
  EXPECT_EQ(text.find("cq_dataflow_late_dropped_total"), std::string::npos);
  (void)sub;
}

/// The sharded runtime's families (cq_shard_records_total{shard=...},
/// exchange batch/byte counters, the skew gauge, per-channel instruments
/// with shard-qualified names) must survive the same lint that guards the
/// /metrics endpoint.
TEST(MetricsLintTest, ShardedPipelineExpositionIsLintClean) {
  MetricsRegistry registry;
  shard::ShardedPipeline pipeline(
      2,
      [](size_t) -> Result<std::vector<std::unique_ptr<Operator>>> {
        WindowedAggregateConfig per_key;
        per_key.assigner = std::make_shared<TumblingWindowAssigner>(10);
        per_key.key_indexes = {0};
        per_key.aggs.push_back({AggregateKind::kSum, Col(1), "sum"});
        WindowedAggregateConfig rollup;
        rollup.assigner = std::make_shared<TumblingWindowAssigner>(10);
        rollup.key_indexes = {1};
        rollup.aggs.push_back({AggregateKind::kSum, Col(3), "total"});
        std::vector<std::unique_ptr<Operator>> ops;
        ops.push_back(
            std::make_unique<WindowedAggregateOperator>("per-key", per_key));
        ops.push_back(
            std::make_unique<WindowedAggregateOperator>("rollup", rollup));
        return ops;
      },
      {});
  pipeline.AttachMetrics(&registry);
  ASSERT_TRUE(pipeline.Start().ok());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        pipeline.Send(Tuple({Value(i % 4), Value(int64_t{1})}), i).ok());
  }
  ASSERT_TRUE(pipeline.BroadcastWatermark(100).ok());
  ASSERT_TRUE(pipeline.Finish().ok());

  EXPECT_TRUE(registry.LintProblems().empty())
      << registry.LintProblems().front();
  std::string text = registry.ToText();
  EXPECT_NE(text.find("cq_shard_records_total"), std::string::npos);
  EXPECT_NE(text.find("cq_shard_exchange_batches_total"), std::string::npos);
  EXPECT_NE(text.find("cq_shard_exchange_bytes_total"), std::string::npos);
  EXPECT_NE(text.find("cq_shard_skew_ratio"), std::string::npos);
}

/// Same rule for the sharded service graph: replicas share one registry, so
/// per-node families must merge without mixed label sets and the routing
/// counter must expose one series per shard.
TEST(MetricsLintTest, ShardedServiceExpositionIsLintClean) {
  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.metrics = &registry;
  shard::ShardedQueryService svc(2, cfg);
  ASSERT_TRUE(svc.RegisterStream("trades",
                                 Schema::Make({{"sym", ValueType::kString},
                                               {"price", ValueType::kInt64},
                                               {"qty", ValueType::kInt64}}),
                                 {0})
                  .ok());
  auto id = svc.RegisterQuery(
      "SELECT sym, SUM(qty) AS total FROM trades [Range 100] GROUP BY sym");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 20, 1), 5).ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("b", 30, 2), 6).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 200).ok());

  EXPECT_TRUE(registry.LintProblems().empty())
      << registry.LintProblems().front();
  std::string text = registry.ToText();
  EXPECT_NE(text.find("cq_shard_records_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cq_shard_records_total{shard=\"1\"}"),
            std::string::npos);
}

/// The net front door's families — connection/frame counters, subscriber
/// gauge, latency histograms, and the per-tenant quota series — must survive
/// the same lint that guards the /metrics endpoint.
TEST(MetricsLintTest, NetFrontDoorExpositionIsLintClean) {
  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.metrics = &registry;
  QueryService svc(TradesCatalog(), cfg);
  net::LocalBackend backend(&svc);
  net::TenantQuotas quotas(&registry);
  net::TenantQuota quota;
  quota.max_queries = 1;
  quota.egress_bytes_per_sec = 64;
  quotas.SetQuota("acme", quota);
  net::ServerConfig sc;
  sc.metrics = &registry;
  sc.quotas = &quotas;
  net::Server server(&backend, sc);
  ASSERT_TRUE(server.Init().ok());

  // Materialize every per-tenant series: one admission, one rejection, one
  // granted and one throttled egress consult.
  ASSERT_TRUE(quotas.AdmitQuery("acme", 0).ok());
  EXPECT_FALSE(quotas.AdmitQuery("acme", 0).ok());
  EXPECT_EQ(quotas.AdmitEgress("acme", {64}, 1), 1u);
  EXPECT_EQ(quotas.AdmitEgress("acme", {64}, 2), 0u);

  EXPECT_TRUE(registry.LintProblems().empty())
      << registry.LintProblems().front();
  std::string text = registry.ToText();
  for (const char* family :
       {"cq_net_connections", "cq_net_accepted_total", "cq_net_frames_total",
        "cq_net_subscribers", "cq_net_evicted_total",
        "cq_net_egress_bytes_total{tenant=\"acme\"}",
        "cq_net_egress_throttled_total{tenant=\"acme\"}",
        "cq_net_quota_rejected_total{tenant=\"acme\"}", "cq_net_accept_us",
        "cq_net_read_us", "cq_net_write_us"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

/// Every sample line of the text exposition must match the Prometheus data
/// model: `name{label="value",...} value` with a valid metric name.
TEST(MetricsLintTest, TextExpositionMatchesPrometheusGrammar) {
  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.metrics = &registry;
  QueryService svc(TradesCatalog(), cfg);
  ASSERT_TRUE(svc.RegisterQuery("SELECT sym FROM trades [Range 10]").ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 1, 1), 1).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 1).ok());

  const std::regex sample_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9+].*$)");
  const std::regex type_re(R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+$)");
  std::istringstream in(registry.ToText());
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    ++samples;
  }
  EXPECT_GT(samples, 10u);
}

}  // namespace
}  // namespace cq
