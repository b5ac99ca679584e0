#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cql/continuous_query.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sql/planner.h"

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

/// Drains every queued batch of `sub` and appends its records to `out`.
void Drain(const SubscriptionPtr& sub, std::vector<StreamElement>* out) {
  StreamBatch batch;
  while (sub->TryPoll(&batch)) {
    for (const auto& e : batch) {
      if (e.is_record()) out->push_back(e);
    }
  }
}

/// Canonical multiset rendering of records for equality checks.
std::vector<std::string> Canon(const std::vector<StreamElement>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const auto& e : records) {
    out.push_back(std::to_string(e.timestamp) + "@" + e.tuple.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Sharing (acceptance: K same-prefix queries < K prefix copies) ---

TEST(ServiceSharingTest, CommonPrefixIsInstantiatedOnce) {
  QueryService svc(TradesCatalog());
  const std::vector<std::string> sqls = {
      "SELECT sym FROM trades [Range 100] WHERE price > 10",
      "SELECT price FROM trades [Range 100] WHERE price > 10",
      "SELECT qty FROM trades [Range 100] WHERE price > 10",
      "SELECT sym, qty FROM trades [Range 100] WHERE price > 10",
  };
  std::vector<QueryId> ids;
  for (const auto& sql : sqls) {
    auto id = svc.RegisterQuery(sql);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  const size_t k = sqls.size();
  // Shared prefix: source + lifted filter + window = 3 nodes, one copy.
  // Per query: residual plan + sink = 2 nodes.
  EXPECT_EQ(svc.NumOperators(), 3 + 2 * k);

  // Compare against the unshared ablation: K private chains.
  ServiceConfig unshared;
  unshared.share_subplans = false;
  QueryService base(TradesCatalog(), unshared);
  for (const auto& sql : sqls) ASSERT_TRUE(base.RegisterQuery(sql).ok());
  EXPECT_EQ(base.NumOperators(), 5 * k);
  EXPECT_LT(svc.NumOperators(), base.NumOperators());

  // The first query created the prefix; later ones reused all 3 nodes.
  auto first = *svc.GetQuery(ids[0]);
  EXPECT_EQ(first.nodes_reused, 0u);
  auto later = *svc.GetQuery(ids[1]);
  EXPECT_EQ(later.nodes_reused, 3u);
}

TEST(ServiceSharingTest, IdenticalQueriesShareThePlanStageToo) {
  QueryService svc(TradesCatalog());
  const std::string sql = "SELECT sym FROM trades [Range 50]";
  ASSERT_TRUE(svc.RegisterQuery(sql).ok());
  size_t after_first = svc.NumOperators();  // src + win + plan + sink
  EXPECT_EQ(after_first, 4u);
  ASSERT_TRUE(svc.RegisterQuery(sql).ok());
  // Everything but the per-query sink is reused.
  EXPECT_EQ(svc.NumOperators(), after_first + 1);
}

TEST(ServiceSharingTest, SemanticallyEqualQueriesShareOneChain) {
  // Textually different, semantically identical: reordered conjuncts, a
  // flipped comparison, redundant parens, and a double negation. Plan
  // canonicalization must fold all four onto one fingerprint chain so they
  // share everything but the per-query sink.
  QueryService svc(TradesCatalog());
  const std::vector<std::string> sqls = {
      "SELECT sym FROM trades [Range 100] WHERE price > 10 AND qty < 5",
      "SELECT sym FROM trades [Range 100] WHERE qty < 5 AND price > 10",
      "SELECT sym FROM trades [Range 100] WHERE 10 < price AND ((qty < 5))",
      "SELECT sym FROM trades [Range 100] WHERE NOT NOT (price > 10) "
      "AND qty < 5",
  };
  std::vector<QueryId> ids;
  auto first = svc.RegisterQuery(sqls[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const size_t after_first = svc.NumOperators();
  ids.push_back(*first);
  for (size_t i = 1; i < sqls.size(); ++i) {
    auto id = svc.RegisterQuery(sqls[i]);
    ASSERT_TRUE(id.ok()) << sqls[i] << ": " << id.status().ToString();
    ids.push_back(*id);
    // Each textual variant adds exactly its private sink.
    EXPECT_EQ(svc.NumOperators(), after_first + i) << sqls[i];
  }
  // Every shared stage carries one refcount per query.
  size_t fully_shared = 0;
  for (const auto& [fp, refs] : svc.SharedRefCounts()) {
    if (refs == sqls.size()) fully_shared++;
  }
  EXPECT_GE(fully_shared, after_first - 1);  // all but the first sink

  // The variants also produce identical output.
  auto sub0 = *svc.Subscribe(ids[0]);
  auto sub3 = *svc.Subscribe(ids[3]);
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 20, 1), 1).ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("b", 5, 9), 2).ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("c", 30, 2), 3).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 10).ok());
  std::vector<StreamElement> out0, out3;
  Drain(sub0, &out0);
  Drain(sub3, &out3);
  EXPECT_FALSE(out0.empty());
  EXPECT_EQ(Canon(out0), Canon(out3));

  // Refcounted teardown: each drop releases exactly one sink until the last
  // drop releases the shared chain too.
  sub0->Cancel();
  sub3->Cancel();
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    ASSERT_TRUE(svc.DropQuery(ids[i]).ok());
    EXPECT_EQ(svc.NumOperators(), after_first + (ids.size() - 2 - i));
  }
  ASSERT_TRUE(svc.DropQuery(ids.back()).ok());
  EXPECT_EQ(svc.NumOperators(), 0u);
}

TEST(ServiceSharingTest, SelectivityHintsRefreshFromObservedRates) {
  // Register a filtering query, stream data through it, and the service can
  // report the observed pass-rate EWMA keyed by canonical predicate — the
  // feedback loop that re-seeds the optimizer's cost model.
  ServiceConfig config;
  MetricsRegistry metrics;
  config.metrics = &metrics;
  QueryService svc(TradesCatalog(), config);
  auto id = svc.RegisterQuery(
      "SELECT sym FROM trades [Range 100] WHERE price > 10");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto sub = *svc.Subscribe(*id);

  // 1 in 4 records passes the filter.
  for (int64_t t = 1; t <= 40; ++t) {
    ASSERT_TRUE(
        svc.PushRecord("trades", Trade("a", t % 4 == 0 ? 20 : 5, 1), t).ok());
  }
  ASSERT_TRUE(svc.PushWatermark("trades", 100).ok());
  std::vector<StreamElement> out;
  Drain(sub, &out);

  SelectivityHints observed = svc.ObservedSelectivityHints();
  ASSERT_EQ(observed.size(), 1u);
  const auto& [pred, sel] = *observed.begin();
  // Keyed by the canonical expression IR of the filter stage.
  EXPECT_NE(pred.find("(col 1"), std::string::npos) << pred;
  EXPECT_GT(sel, 0.0);
  EXPECT_LT(sel, 0.7);

  // Refresh folds the observation into the registration-time hints.
  EXPECT_EQ(svc.RefreshSelectivityHints(), 1u);
  SelectivityHints current = svc.CurrentSelectivityHints();
  ASSERT_EQ(current.count(pred), 1u);
  EXPECT_EQ(current[pred], sel);
}

TEST(ServiceSharingTest, FiltersAreNotLiftedBelowTupleWindows) {
  // [Rows n] does not commute with filtering: last-2-then-filter differs
  // from filter-then-last-2. The filter must stay in the residual plan.
  QueryService svc(TradesCatalog());
  auto id = svc.RegisterQuery("SELECT sym FROM trades [Rows 2] WHERE price > 10");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // src + window + plan(filter+project) + sink: no standalone filter node.
  EXPECT_EQ(svc.NumOperators(), 4u);

  auto sub = *svc.Subscribe(*id);
  // prices 20, 5, 30: the Rows-2 window holds {20,5} then {5,30}; the
  // filter admits 20 (t1) and 30 (t3). Filter-before-window would also
  // keep 20 resident at t3.
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 20, 1), 1).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 1).ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("b", 5, 1), 2).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 2).ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("c", 30, 1), 3).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 3).ok());

  std::vector<StreamElement> got;
  Drain(sub, &got);
  EXPECT_EQ(Canon(got),
            (std::vector<std::string>{"1@('a')", "3@('c')"}));
}

// --- Columnar coverage in a registered query ---

/// Sums every sample of `family` whose node label contains `node_substr`
/// in a text-format metrics dump.
double SumMetric(const std::string& text, const std::string& family,
                 const std::string& node_substr) {
  double sum = 0;
  size_t pos = 0;
  while ((pos = text.find(family + "{", pos)) != std::string::npos) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol;
    if (line.find(node_substr) == std::string::npos) continue;
    size_t sp = line.rfind(' ');
    if (sp != std::string::npos) sum += std::stod(line.substr(sp + 1));
  }
  return sum;
}

TEST(ServiceColumnarTest, RegisteredQueryRunsColumnarEndToEnd) {
  // Batched pushes ship columnar through the registered query's prefix
  // chain (src passthrough -> lifted filter transform -> window-delta
  // consume); the coverage counters prove which path each node took, and a
  // per-record-driven twin service proves results are unchanged.
  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.metrics = &registry;
  QueryService svc(TradesCatalog(), cfg);
  QueryService ref(TradesCatalog());
  const std::string sql =
      "SELECT sym, SUM(qty) AS total FROM trades [Range 100] "
      "WHERE price > 10 GROUP BY sym";
  auto id = svc.RegisterQuery(sql);
  auto ref_id = ref.RegisterQuery(sql);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(ref_id.ok());
  auto sub = *svc.Subscribe(*id);
  auto ref_sub = *ref.Subscribe(*ref_id);

  std::vector<StreamElement> input;
  for (int i = 0; i < 50; ++i) {
    input.push_back(StreamElement::Record(
        Trade(i % 2 == 0 ? "x" : "y", 5 + i % 20, i % 7), i));
    if (i % 10 == 9) input.push_back(StreamElement::Watermark(i - 3));
  }
  input.push_back(StreamElement::Watermark(200));

  for (size_t i = 0; i < input.size(); i += 8) {
    StreamBatch batch;
    for (size_t j = i; j < std::min(input.size(), i + 8); ++j) {
      batch.Add(input[j]);
    }
    ASSERT_TRUE(svc.PushBatch("trades", batch).ok());
  }
  for (const auto& e : input) {
    if (e.is_record()) {
      ASSERT_TRUE(ref.PushRecord("trades", e.tuple, e.timestamp).ok());
    } else {
      ASSERT_TRUE(ref.PushWatermark("trades", e.timestamp).ok());
    }
  }

  std::vector<StreamElement> got, want;
  Drain(sub, &got);
  Drain(ref_sub, &want);
  ASSERT_GT(got.size(), 0u);
  EXPECT_EQ(Canon(got), Canon(want));

  std::string text = svc.DumpMetrics(MetricsFormat::kText);
  // Filter and window-delta stages handled every batch vectorized; nothing
  // fell back (the window's row emissions to the residual plan are native
  // row output of a consume kernel, not a fallback).
  EXPECT_GT(SumMetric(text, "cq_dataflow_vectorized_batches_total", "flt:"), 0);
  EXPECT_GT(SumMetric(text, "cq_dataflow_vectorized_batches_total", "win:"), 0);
  EXPECT_EQ(SumMetric(text, "cq_dataflow_row_fallback_batches_total", "flt:"),
            0);
  EXPECT_EQ(SumMetric(text, "cq_dataflow_row_fallback_batches_total", "win:"),
            0);
}

// --- End-to-end result correctness against the reference executor ---

TEST(ServiceResultTest, MatchesReferenceExecutor) {
  Catalog catalog = TradesCatalog();
  const std::string sql =
      "SELECT sym, SUM(qty) AS total FROM trades GROUP BY sym";

  QueryService svc(catalog);
  auto id = svc.RegisterQuery(sql);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto sub = *svc.Subscribe(*id);

  BoundedStream input(*catalog.GetStream("trades"));
  std::vector<Tuple> rows = {Trade("a", 12, 3), Trade("b", 7, 1),
                             Trade("a", 20, 2), Trade("b", 9, 4),
                             Trade("a", 3, 5),  Trade("c", 40, 6)};
  std::vector<Timestamp> ticks;
  for (size_t i = 0; i < rows.size(); ++i) {
    Timestamp ts = static_cast<Timestamp>(i + 1);
    input.Append(rows[i], ts);
    ticks.push_back(ts);
    ASSERT_TRUE(svc.PushRecord("trades", rows[i], ts).ok());
    ASSERT_TRUE(svc.PushWatermark("trades", ts).ok());
  }

  auto planned = *PlanSql(sql, catalog);
  auto expected =
      *ReferenceExecutor::Execute(planned.query, {&input}, ticks);
  std::vector<StreamElement> want(expected.elements());
  want.erase(std::remove_if(want.begin(), want.end(),
                            [](const StreamElement& e) {
                              return !e.is_record();
                            }),
             want.end());

  std::vector<StreamElement> got;
  Drain(sub, &got);
  EXPECT_EQ(Canon(got), Canon(want));
}

TEST(ServiceResultTest, WatermarkRowsEmitInAscendingTupleOrder) {
  // Groups arrive in descending symbol order and change in a scattered
  // order; the plan's hashed state must not leak into emission order.
  QueryService svc(TradesCatalog());
  auto id = svc.RegisterQuery(
      "SELECT sym, SUM(qty) AS total FROM trades [Range 100] GROUP BY sym");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto sub = *svc.Subscribe(*id);

  const std::vector<std::string> syms = {"z", "x", "t", "p", "m", "k",
                                         "h", "e", "c", "a"};
  Timestamp ts = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < syms.size(); ++i) {
      const std::string& sym = syms[(i * 7 + round * 3) % syms.size()];
      ++ts;
      ASSERT_TRUE(svc.PushRecord("trades",
                                 Trade(sym.c_str(), 20, 1 + (ts % 4)), ts)
                      .ok());
    }
    ASSERT_TRUE(svc.PushWatermark("trades", ts).ok());
  }

  size_t batches = 0;
  StreamBatch batch;
  while (sub->TryPoll(&batch)) {
    std::vector<Tuple> rows;
    for (const auto& e : batch) {
      if (e.is_record()) rows.push_back(e.tuple);
    }
    if (rows.empty()) continue;
    ++batches;
    // Each round touches every group: -old and +new rows for all ten.
    EXPECT_GE(rows.size(), syms.size());
    for (size_t i = 1; i < rows.size(); ++i) {
      EXPECT_TRUE(rows[i - 1] < rows[i])
          << rows[i - 1].ToString() << " before " << rows[i].ToString();
    }
  }
  EXPECT_EQ(batches, 3u);
}

// --- Drop (acceptance: mid-stream drop leaves survivors byte-identical) ---

TEST(ServiceDropTest, DropLeavesSurvivorsIdenticalToBaseline) {
  const std::string keep_sql =
      "SELECT sym, SUM(qty) AS total FROM trades [Range 100] GROUP BY sym";
  const std::string drop_sql =
      "SELECT sym FROM trades [Range 100] WHERE price > 5";

  // Service A runs both queries and drops one mid-stream; service B never
  // registers the dropped query at all.
  QueryService a(TradesCatalog());
  QueryService b(TradesCatalog());
  auto keep_a = *a.RegisterQuery(keep_sql);
  auto drop_a = *a.RegisterQuery(drop_sql);
  auto keep_b = *b.RegisterQuery(keep_sql);
  auto sub_a = *a.Subscribe(keep_a);
  auto sub_b = *b.Subscribe(keep_b);

  auto push_round = [&](QueryService* svc, int64_t i) {
    Tuple t = Trade(i % 2 == 0 ? "x" : "y", 4 + i, i);
    ASSERT_TRUE(svc->PushRecord("trades", t, i).ok());
    ASSERT_TRUE(svc->PushWatermark("trades", i).ok());
  };
  for (int64_t i = 1; i <= 5; ++i) {
    push_round(&a, i);
    push_round(&b, i);
  }
  size_t nodes_before = a.NumOperators();
  ASSERT_TRUE(a.DropQuery(drop_a).ok());
  // The dropped query's private nodes (filter, window, plan, sink) left the
  // graph; the survivor's nodes did not.
  EXPECT_LT(a.NumOperators(), nodes_before);
  for (int64_t i = 6; i <= 10; ++i) {
    push_round(&a, i);
    push_round(&b, i);
  }

  std::vector<StreamElement> got_a, got_b;
  Drain(sub_a, &got_a);
  Drain(sub_b, &got_b);
  EXPECT_EQ(Canon(got_a), Canon(got_b));
  EXPECT_FALSE(got_a.empty());
}

TEST(ServiceDropTest, DropClosesSubscriptionsAndRejectsReuse) {
  QueryService svc(TradesCatalog());
  auto id = *svc.RegisterQuery("SELECT sym FROM trades");
  auto sub = *svc.Subscribe(id);
  ASSERT_TRUE(svc.DropQuery(id).ok());
  EXPECT_TRUE(sub->closed());
  StreamBatch batch;
  while (sub->TryPoll(&batch)) {
  }
  EXPECT_TRUE(svc.DropQuery(id).IsClosed());
  EXPECT_TRUE(svc.Subscribe(id).status().IsClosed());
  auto info = *svc.GetQuery(id);
  EXPECT_EQ(info.state, QueryState::kDropped);
  // Dropping the last query over a stream also removes its source; a fresh
  // registration rebuilds the chain from scratch.
  EXPECT_EQ(svc.NumOperators(), 0u);
  ASSERT_TRUE(svc.RegisterQuery("SELECT sym FROM trades").ok());
  EXPECT_TRUE(svc.PushRecord("trades", Trade("a", 1, 1), 1).ok());
}

// --- Slow subscriber isolation (acceptance: bounded depth, others advance) --

TEST(ServiceSubscriptionTest, SlowSubscriberOnlyExhaustsItsOwnCredits) {
  ServiceConfig config;
  config.subscription_credits = 2;
  QueryService svc(TradesCatalog(), config);
  auto id = *svc.RegisterQuery("SELECT sym, price FROM trades");
  auto slow = *svc.Subscribe(id);
  auto fast = *svc.Subscribe(id);

  const int kRounds = 20;
  size_t fast_batches = 0;
  std::vector<StreamElement> fast_records;
  for (int64_t i = 1; i <= kRounds; ++i) {
    ASSERT_TRUE(svc.PushRecord("trades", Trade("s", i, 1), i).ok());
    ASSERT_TRUE(svc.PushWatermark("trades", i).ok());
    // The fast subscriber drains every round and never misses a batch.
    StreamBatch batch;
    while (fast->TryPoll(&batch)) {
      ++fast_batches;
      for (const auto& e : batch) {
        if (e.is_record()) fast_records.push_back(e);
      }
    }
  }
  EXPECT_EQ(fast_batches, static_cast<size_t>(kRounds));
  EXPECT_EQ(fast_records.size(), static_cast<size_t>(kRounds));

  // The slow subscriber never drained: its queue is pinned at its credit
  // bound and the overflow was dropped — counted, not blocking anyone.
  EXPECT_EQ(slow->depth(), config.subscription_credits);
  EXPECT_EQ(slow->dropped(),
            static_cast<uint64_t>(kRounds) - config.subscription_credits);

  // What it did keep is the earliest prefix, intact.
  std::vector<StreamElement> slow_records;
  Drain(slow, &slow_records);
  ASSERT_EQ(slow_records.size(), config.subscription_credits);
  EXPECT_EQ(slow_records[0].tuple.ToString(), "('s', 1)");
}

// --- Admission control ---

TEST(ServiceAdmissionTest, QueryCountCap) {
  ServiceConfig config;
  config.max_queries = 2;
  QueryService svc(TradesCatalog(), config);
  ASSERT_TRUE(svc.RegisterQuery("SELECT sym FROM trades").ok());
  ASSERT_TRUE(svc.RegisterQuery("SELECT price FROM trades").ok());
  auto rejected = svc.RegisterQuery("SELECT qty FROM trades");
  EXPECT_TRUE(rejected.status().IsOutOfRange());
  EXPECT_EQ(svc.NumActiveQueries(), 2u);
  // Dropping frees a slot.
  auto ids = svc.ListQueries();
  ASSERT_TRUE(svc.DropQuery(ids[0].id).ok());
  EXPECT_TRUE(svc.RegisterQuery("SELECT qty FROM trades").ok());
}

TEST(ServiceAdmissionTest, StateBytesCap) {
  ServiceConfig config;
  config.max_state_bytes = 1;  // effectively: reject once any state exists
  QueryService svc(TradesCatalog(), config);
  ASSERT_TRUE(svc.RegisterQuery("SELECT sym FROM trades [Range 100]").ok());
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 1, 1), 1).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 1).ok());
  auto rejected = svc.RegisterQuery("SELECT qty FROM trades");
  EXPECT_TRUE(rejected.status().IsOutOfRange());
}

// --- Error paths and metrics ---

TEST(ServiceErrorTest, UnknownStreamAndBadSql) {
  QueryService svc(TradesCatalog());
  EXPECT_TRUE(svc.RegisterQuery("SELECT x FROM nosuch").status().IsNotFound());
  EXPECT_TRUE(svc.RegisterQuery("SELEC oops").status().IsParseError());
  EXPECT_TRUE(svc.PushRecord("nosuch", Tuple{}, 1).IsNotFound());
  EXPECT_TRUE(svc.Subscribe(99).status().IsNotFound());
  EXPECT_TRUE(svc.DropQuery(99).IsNotFound());
  // Failed registrations leave the graph empty.
  EXPECT_EQ(svc.NumOperators(), 0u);
}

TEST(ServiceMetricsTest, ServiceCountersExported) {
  MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  QueryService svc(TradesCatalog(), config);
  auto q1 = *svc.RegisterQuery("SELECT sym FROM trades [Range 10]");
  ASSERT_TRUE(svc.RegisterQuery("SELECT qty FROM trades [Range 10]").ok());
  auto sub = *svc.Subscribe(q1);
  ASSERT_TRUE(svc.PushRecord("trades", Trade("a", 1, 1), 1).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 1).ok());

  EXPECT_EQ(registry.GetCounter("cq_service_queries_registered_total")->value(),
            2u);
  EXPECT_EQ(registry.GetGauge("cq_service_queries_active")->value(), 2);
  // Query 2 reused query 1's source and window.
  EXPECT_EQ(registry.GetCounter("cq_service_nodes_reused_total")->value(), 2u);
  std::string dump = svc.DumpMetrics(MetricsFormat::kText);
  EXPECT_NE(dump.find("cq_service_nodes_live"), std::string::npos);
  EXPECT_NE(dump.find("cq_dataflow_records_in_total"), std::string::npos);
}

// --- Late registration semantics (documented NiagaraCQ sharing behavior) ---

TEST(ServiceSharingTest, LateQueryInheritsWarmSharedWindow) {
  QueryService svc(TradesCatalog());
  auto q1 = *svc.RegisterQuery("SELECT sym FROM trades [Range 100]");
  (void)q1;
  ASSERT_TRUE(svc.PushRecord("trades", Trade("early", 1, 1), 1).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 1).ok());

  // q2 shares q1's (already warm) window chain: the early tuple is resident
  // and will EXPIRE from the shared window, but q2's IStream never saw its
  // insertion — it only observes changes from registration onward.
  auto q2 = *svc.RegisterQuery("SELECT sym FROM trades [Range 100]");
  auto sub2 = *svc.Subscribe(q2);
  ASSERT_TRUE(svc.PushRecord("trades", Trade("late", 2, 2), 5).ok());
  ASSERT_TRUE(svc.PushWatermark("trades", 5).ok());

  std::vector<StreamElement> got;
  Drain(sub2, &got);
  EXPECT_EQ(Canon(got), (std::vector<std::string>{"5@('late')"}));
}

}  // namespace
}  // namespace cq
