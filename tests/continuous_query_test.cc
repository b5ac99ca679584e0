#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "cql/continuous_query.h"
#include "service/operators.h"
#include "workload/generators.h"

namespace cq {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple({Value(a), Value(b)}); }

SchemaPtr KV() {
  return Schema::Make({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
}

/// The Listing 1 query shape: count of joined person/observation rows over a
/// 15-tick window.
ContinuousQuery ListingOneQuery(const RoomWorkload& w) {
  ContinuousQuery q;
  q.input_windows = {S2RSpec::Unbounded(), S2RSpec::Range(15)};
  auto persons = RelOp::Scan(0, w.person_schema->Qualified("P"));
  auto obs = RelOp::Scan(1, w.observation_schema->Qualified("O"));
  auto join = *RelOp::Join(persons, obs, {0}, {0});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggregateKind::kCount, Col(0), "COUNT(P.id)"});
  q.plan = *RelOp::Aggregate(join, {}, aggs);
  q.output = R2SKind::kRStream;
  return q;
}

TEST(ReferenceExecutorTest, ResultAtMatchesManualEvaluation) {
  RoomWorkload w = MakeRoomWorkload(5, 30, 3, 0.5, 0, 42);
  ContinuousQuery q = ListingOneQuery(w);
  std::vector<const BoundedStream*> inputs{&w.persons, &w.observations};

  Timestamp tau = 20;
  MultisetRelation result = *ReferenceExecutor::ResultAt(q, inputs, tau);
  // Manual: count observations with ts in (5, 20] whose id joins a person
  // (all ids join by construction).
  int64_t expected = 0;
  for (const auto& e : w.observations) {
    if (e.is_record() && e.timestamp > 5 && e.timestamp <= 20) ++expected;
  }
  ASSERT_EQ(result.NumDistinct(), 1u);
  EXPECT_EQ(result.entries().begin()->first, Tuple({Value(expected)}));
}

TEST(ReferenceExecutorTest, Definition23CumulativeResults) {
  // A windowless (unbounded) selection: the continuous result at tau is
  // exactly the one-shot query over the stream prefix up to tau.
  BoundedStream s;
  for (int i = 1; i <= 10; ++i) s.Append(T2(i, i * 10), i);
  ContinuousQuery q;
  q.input_windows = {S2RSpec::Unbounded()};
  q.plan = *RelOp::Select(RelOp::Scan(0, KV()), Gt(Col(1), Lit(int64_t{40})));
  q.output = R2SKind::kRelation;
  std::vector<const BoundedStream*> inputs{&s};

  for (Timestamp tau : {3, 5, 8, 10}) {
    MultisetRelation continuous = *ReferenceExecutor::ResultAt(q, inputs, tau);
    // One-shot query over prefix.
    MultisetRelation prefix;
    for (const auto& e : s.UpTo(tau)) {
      if (e.is_record()) prefix.Add(e.tuple, 1);
    }
    MultisetRelation one_shot = *q.plan->Eval({prefix});
    EXPECT_EQ(continuous, one_shot) << "tau=" << tau;
  }
}

TEST(ReferenceExecutorTest, MaterializeRelationTracksChanges) {
  BoundedStream s;
  s.Append(T2(1, 100), 10);
  s.Append(T2(2, 50), 20);
  ContinuousQuery q;
  q.input_windows = {S2RSpec::Range(15)};
  q.plan = RelOp::Scan(0, KV());
  q.output = R2SKind::kRelation;
  std::vector<const BoundedStream*> inputs{&s};
  std::vector<Timestamp> ticks = ReferenceExecutor::DefaultTicks(q, inputs);

  TimeVaryingRelation tvr =
      *ReferenceExecutor::MaterializeRelation(q, inputs, ticks);
  EXPECT_EQ(tvr.At(10).Cardinality(), 1);
  EXPECT_EQ(tvr.At(20).Cardinality(), 2);
  // Tuple at ts 10 expires at 25; but DefaultTicks only includes instants up
  // to the max record timestamp, so the expiry at 25 is beyond the horizon.
  EXPECT_EQ(ticks.back(), 20);
}

TEST(ReferenceExecutorTest, ExecuteIStreamEmitsWindowEntries) {
  BoundedStream s;
  s.Append(T2(1, 1), 10);
  s.Append(T2(2, 2), 12);
  ContinuousQuery q;
  q.input_windows = {S2RSpec::Range(5)};
  q.plan = RelOp::Scan(0, KV());
  q.output = R2SKind::kIStream;
  std::vector<const BoundedStream*> inputs{&s};
  BoundedStream out =
      *ReferenceExecutor::Execute(q, inputs, {10, 11, 12, 15, 16, 17});
  // Insertions at 10 and 12 only.
  ASSERT_EQ(out.num_records(), 2u);
  EXPECT_EQ(out.at(0).timestamp, 10);
  EXPECT_EQ(out.at(1).timestamp, 12);

  q.output = R2SKind::kDStream;
  BoundedStream deletions =
      *ReferenceExecutor::Execute(q, inputs, {10, 11, 12, 15, 16, 17});
  // Expiries: ts10 leaves at 15, ts12 at 17 (validity [ts, ts+5)).
  ASSERT_EQ(deletions.num_records(), 2u);
  EXPECT_EQ(deletions.at(0).timestamp, 15);
  EXPECT_EQ(deletions.at(1).timestamp, 17);
}

TEST(BabcockSellisTest, EqualsCqlForMonotonicQueries) {
  // Barbara et al.: the union interpretation coincides with re-execution
  // exactly for monotonic queries over append-only streams.
  BoundedStream s;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int64_t> val(0, 9);
  for (int i = 1; i <= 20; ++i) s.Append(T2(val(rng), val(rng)), i);
  std::vector<const BoundedStream*> inputs{&s};
  std::vector<Timestamp> ticks;
  for (Timestamp t = 1; t <= 20; ++t) ticks.push_back(t);

  auto monotonic = *RelOp::Select(RelOp::Scan(0, KV()),
                                  Gt(Col(1), Lit(int64_t{4})));
  MultisetRelation union_result =
      *BabcockSellisResult(monotonic, inputs, ticks, 20);
  MultisetRelation prefix;
  for (const auto& e : s) {
    if (e.is_record()) prefix.Add(e.tuple, 1);
  }
  MultisetRelation reexec = monotonic->Eval({prefix})->Distinct();
  EXPECT_EQ(union_result, reexec);
}

TEST(BabcockSellisTest, DivergesForNonMonotonicQueries) {
  // MAX over a growing stream: the union semantics accumulates stale maxima
  // that re-execution does not report.
  BoundedStream s;
  s.Append(T2(1, 5), 1);
  s.Append(T2(1, 9), 2);
  std::vector<const BoundedStream*> inputs{&s};
  std::vector<AggSpec> aggs;
  aggs.push_back({AggregateKind::kMax, Col(1), "m"});
  auto plan = *RelOp::Aggregate(RelOp::Scan(0, KV()), {}, aggs);
  ASSERT_FALSE(plan->IsMonotonic());

  MultisetRelation union_result =
      *BabcockSellisResult(plan, inputs, {1, 2}, 2);
  EXPECT_EQ(union_result.NumDistinct(), 2u);  // stale max 5 retained

  MultisetRelation prefix;
  prefix.Add(T2(1, 5), 1);
  prefix.Add(T2(1, 9), 1);
  MultisetRelation reexec = *plan->Eval({prefix});
  EXPECT_EQ(reexec.NumDistinct(), 1u);
  EXPECT_NE(union_result, reexec);
}

// Property: the incremental executor tracks full re-evaluation for every
// plan shape, over random insert/delete sequences.
struct IncCase {
  const char* name;
  bool deletions;
};

class IncrementalExecutorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalExecutorTest, MatchesRecomputeOnRandomUpdates) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> val(0, 4);

  // Plans covering linear, bilinear and fallback operators.
  std::vector<RelOpPtr> plans;
  auto scan0 = RelOp::Scan(0, KV());
  auto scan1 = RelOp::Scan(1, KV());
  plans.push_back(*RelOp::Select(scan0, Gt(Col(1), Lit(int64_t{1}))));
  plans.push_back(*RelOp::Project(scan0, {Col(1)},
                                  {{"v", ValueType::kInt64}}));
  plans.push_back(*RelOp::Join(scan0, scan1, {0}, {0}));
  plans.push_back(*RelOp::Union(scan0, scan1));
  plans.push_back(*RelOp::Distinct(scan0));
  plans.push_back(*RelOp::Except(scan0, scan1));
  plans.push_back(*RelOp::Intersect(scan0, scan1));
  {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggregateKind::kSum, Col(1), "s"});
    aggs.push_back({AggregateKind::kCount, nullptr, "c"});
    plans.push_back(*RelOp::Aggregate(scan0, {0}, aggs));
  }
  {
    auto join = *RelOp::Join(scan0, scan1, {0}, {0});
    auto sel = *RelOp::Select(join, Gt(Col(3), Lit(int64_t{0})));
    std::vector<AggSpec> aggs;
    aggs.push_back({AggregateKind::kCount, nullptr, "c"});
    plans.push_back(*RelOp::Aggregate(sel, {0}, aggs));
  }
  // Theta join (inequality predicate): exercises the non-indexed bilinear
  // path.
  plans.push_back(*RelOp::ThetaJoin(scan0, scan1, Lt(Col(1), Col(3))));
  // Equi-join with residual predicate.
  plans.push_back(
      *RelOp::Join(scan0, scan1, {0}, {0}, Gt(Col(1), Col(3))));
  // MIN/MAX maintenance under deletions (ordered-multiset retraction).
  {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggregateKind::kMin, Col(1), "lo"});
    aggs.push_back({AggregateKind::kMax, Col(1), "hi"});
    aggs.push_back({AggregateKind::kAvg, Col(1), "mean"});
    plans.push_back(*RelOp::Aggregate(scan0, {0}, aggs));
  }
  // Global (scalar) aggregate: the always-present identity row.
  {
    std::vector<AggSpec> aggs;
    aggs.push_back({AggregateKind::kCount, nullptr, "c"});
    aggs.push_back({AggregateKind::kSum, Col(1), "s"});
    plans.push_back(*RelOp::Aggregate(scan0, {}, aggs));
  }
  // Distinct over a union over a join (stacked non-linear operators).
  {
    auto join = *RelOp::Join(scan0, scan1, {0}, {0});
    auto proj = *RelOp::Project(join, {Col(0), Col(3)},
                                {{"k", ValueType::kInt64},
                                 {"v", ValueType::kInt64}});
    plans.push_back(*RelOp::Distinct(*RelOp::Union(proj, scan0)));
  }

  for (const auto& plan : plans) {
    IncrementalPlanExecutor inc(plan, 2);
    std::vector<MultisetRelation> tables(2);
    for (int step = 0; step < 30; ++step) {
      std::vector<MultisetRelation> deltas(2);
      std::uniform_int_distribution<int> which(0, 1);
      int slot = which(rng);
      Tuple t = T2(val(rng), val(rng));
      // Mostly inserts; deletes only of present tuples (append-mostly).
      if (step % 5 == 4 && tables[slot].Count(t) > 0) {
        deltas[slot].Add(t, -1);
      } else {
        deltas[slot].Add(t, 1);
      }
      tables[0] = tables[0].Plus(deltas[0]);
      tables[1] = tables[1].Plus(deltas[1]);
      ASSERT_TRUE(inc.ApplyDeltas(deltas).ok());
      MultisetRelation expected = *plan->Eval(tables);
      ASSERT_EQ(inc.current_output(), expected)
          << "step " << step << "\n"
          << plan->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalExecutorTest,
                         ::testing::Values(1, 7, 99, 1234));

// --- Delta path: random plans against consecutive reference results ---

/// A generated plan over two (k, v) inputs, with what its columns can hold.
struct GenPlan {
  RelOpPtr plan;
  bool ints = true;   // every value is INT64 or NULL-free integral (MOD ok)
  bool exact = true;  // no fractional values: SUM stays exact on retraction
};

constexpr int kNumRelOpKinds = 10;
constexpr int kNumAggKinds = 5;

std::vector<Field> KVFields() {
  return {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}};
}

GenPlan PairOf(RelOpPtr child, ExprPtr a, ExprPtr b, bool ints, bool exact) {
  return {*RelOp::Project(std::move(child), {std::move(a), std::move(b)},
                          KVFields()),
          ints, exact};
}

/// A random arity-2 plan of at most `depth` operators above the scans whose
/// root is RelOpKind `kind`; aggregates cycle through every kind.
GenPlan RandomPlan(std::mt19937_64* rng, int depth, int kind,
                   int* agg_cursor) {
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(*rng);
  };
  if (depth == 0 || kind == static_cast<int>(RelOpKind::kScan)) {
    return {RelOp::Scan(static_cast<size_t>(pick(2)), KV())};
  }
  auto child = [&] {
    return RandomPlan(rng, depth - 1, pick(kNumRelOpKinds), agg_cursor);
  };
  switch (static_cast<RelOpKind>(kind)) {
    case RelOpKind::kScan:
      break;
    case RelOpKind::kSelect: {
      GenPlan c = child();
      c.plan = *RelOp::Select(c.plan, Gt(Col(1), Lit(int64_t{pick(4)})));
      return c;
    }
    case RelOpKind::kProject: {
      GenPlan c = child();
      if (c.ints) {  // not injective: distinct inputs collide
        return PairOf(c.plan, Col(0), Bin(BinaryOp::kMod, Col(1), Lit(int64_t{2})),
                      true, c.exact);
      }
      return PairOf(c.plan, Col(1), Col(0), c.ints, c.exact);
    }
    case RelOpKind::kJoin: {
      GenPlan l = child(), r = child();
      return PairOf(*RelOp::Join(l.plan, r.plan, {0}, {0}), Col(0), Col(3),
                    l.ints && r.ints, l.exact && r.exact);
    }
    case RelOpKind::kThetaJoin: {
      GenPlan l = child(), r = child();
      return PairOf(*RelOp::ThetaJoin(l.plan, r.plan, Lt(Col(1), Col(3))),
                    Col(2), Col(1), l.ints && r.ints, l.exact && r.exact);
    }
    case RelOpKind::kAggregate: {
      GenPlan c = child();
      auto agg = static_cast<AggregateKind>((*agg_cursor)++ % kNumAggKinds);
      if (!c.exact &&
          (agg == AggregateKind::kSum || agg == AggregateKind::kAvg)) {
        agg = AggregateKind::kCount;
      }
      const bool count = agg == AggregateKind::kCount;
      const bool minmax =
          agg == AggregateKind::kMin || agg == AggregateKind::kMax;
      std::vector<AggSpec> aggs;
      aggs.push_back({agg, count ? nullptr : Col(1), "a"});
      const bool exact = c.exact && agg != AggregateKind::kAvg;
      if (pick(4) == 0) {  // global: the identity row, NULL MIN/MAX
        return PairOf(*RelOp::Aggregate(c.plan, {}, aggs), Col(0), Col(0),
                      count, exact);
      }
      return {*RelOp::Aggregate(c.plan, {0}, aggs),
              count || (minmax && c.ints), exact};
    }
    case RelOpKind::kDistinct: {
      GenPlan c = child();
      c.plan = *RelOp::Distinct(c.plan);
      return c;
    }
    case RelOpKind::kUnion:
    case RelOpKind::kExcept:
    case RelOpKind::kIntersect: {
      GenPlan l = child(), r = child();
      RelOpPtr op =
          kind == static_cast<int>(RelOpKind::kUnion) ? *RelOp::Union(l.plan, r.plan)
          : kind == static_cast<int>(RelOpKind::kExcept)
              ? *RelOp::Except(l.plan, r.plan)
              : *RelOp::Intersect(l.plan, r.plan);
      return {op, l.ints && r.ints, l.exact && r.exact};
    }
  }
  return {RelOp::Scan(0, KV())};
}

void CollectKinds(const RelOp* op, std::set<RelOpKind>* kinds,
                  std::set<AggregateKind>* aggs) {
  kinds->insert(op->kind());
  if (op->kind() == RelOpKind::kAggregate) {
    for (const AggSpec& a : op->aggs()) aggs->insert(a.kind);
  }
  for (const auto& c : op->children()) CollectKinds(c.get(), kinds, aggs);
}

class DeltaPathTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaPathTest, DeltaEqualsDifferenceOfConsecutiveReferenceResults) {
  std::mt19937_64 rng(GetParam());
  auto pick = [&](int n) {
    return static_cast<int64_t>(
        std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  constexpr Timestamp kInstants = 24;
  BoundedStream s0, s1;
  for (Timestamp ts = 1; ts <= kInstants; ++ts) {
    for (BoundedStream* s : {&s0, &s1}) {
      for (int64_t n = pick(3); n > 0; --n) s->Append(T2(pick(3), pick(5)), ts);
    }
  }
  const std::vector<const BoundedStream*> inputs{&s0, &s1};
  const std::vector<S2RSpec> windows{S2RSpec::Range(3), S2RSpec::Rows(2)};

  // Per-instant window deltas: what a window operator feeds the plan.
  std::vector<std::vector<MultisetRelation>> window_deltas(
      kInstants + 1, std::vector<MultisetRelation>(2));
  for (size_t slot = 0; slot < 2; ++slot) {
    MultisetRelation before;
    for (Timestamp tau = 1; tau <= kInstants; ++tau) {
      MultisetRelation now = *ApplyS2R(*inputs[slot], windows[slot], tau);
      window_deltas[tau][slot] = now.Minus(before);
      before = std::move(now);
    }
  }

  std::set<RelOpKind> kinds;
  std::set<AggregateKind> agg_kinds;
  int agg_cursor = 0;
  for (int p = 0; p < 4 * kNumRelOpKinds; ++p) {
    GenPlan gen = RandomPlan(&rng, 3, p % kNumRelOpKinds, &agg_cursor);
    CollectKinds(gen.plan.get(), &kinds, &agg_kinds);
    ContinuousQuery q;
    q.input_windows = windows;
    q.plan = gen.plan;
    IncrementalPlanExecutor inc(gen.plan, 2);
    MultisetRelation previous;  // the executor starts from the empty result
    for (Timestamp tau = 1; tau <= kInstants; ++tau) {
      MultisetRelation current = *ReferenceExecutor::ResultAt(q, inputs, tau);
      MultisetRelation expected = current.Minus(previous);
      MultisetRelation got;
      if (tau % 2 == 0) {
        got = *inc.ApplyDeltas(window_deltas[tau]);
      } else {
        // The flat path, with rows that cancel inside the batch: every
        // delta split into (t, c + 1) and (t, -1), plus a +t/-t pair.
        std::vector<DeltaList> lists(2);
        for (size_t slot = 0; slot < 2; ++slot) {
          for (const auto& [t, c] : window_deltas[tau][slot].entries()) {
            lists[slot].emplace_back(t, c + 1);
            lists[slot].emplace_back(t, -1);
          }
          Tuple noise = T2(pick(3), pick(5));
          lists[slot].emplace_back(noise, 1);
          lists[slot].emplace_back(noise, -1);
          std::shuffle(lists[slot].begin(), lists[slot].end(), rng);
        }
        auto delta = inc.Apply(std::move(lists));
        ASSERT_TRUE(delta.ok()) << delta.status().ToString();
        for (size_t i = 0; i < delta->size(); ++i) {
          ASSERT_NE((*delta)[i].second, 0);
          if (i > 0) {
            ASSERT_TRUE((*delta)[i - 1].first < (*delta)[i].first);
          }
          got.Add((*delta)[i].first, (*delta)[i].second);
        }
      }
      ASSERT_EQ(got, expected) << "tau " << tau << "\n" << gen.plan->ToString();
      ASSERT_EQ(inc.current_output(), current)
          << "tau " << tau << "\n" << gen.plan->ToString();
      previous = std::move(current);
    }
  }
  EXPECT_EQ(kinds.size(), static_cast<size_t>(kNumRelOpKinds));
  EXPECT_EQ(agg_kinds.size(), static_cast<size_t>(kNumAggKinds));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPathTest,
                         ::testing::Values(3, 17, 2024, 777777));

TEST(PlanDeltaOperatorTest, SnapshotStateIsIndependentOfArrivalOrder) {
  // Join index, a node cache (Distinct's child) and hashed aggregation
  // groups with MIN/MAX multisets: every piece of hashed state.
  auto scan0 = RelOp::Scan(0, KV());
  auto scan1 = RelOp::Scan(1, KV());
  std::vector<AggSpec> aggs;
  aggs.push_back({AggregateKind::kCount, nullptr, "c"});
  aggs.push_back({AggregateKind::kSum, Col(1), "s"});
  aggs.push_back({AggregateKind::kMin, Col(1), "lo"});
  aggs.push_back({AggregateKind::kMax, Col(3), "hi"});
  auto agg = *RelOp::Aggregate(*RelOp::Join(scan0, scan1, {0}, {0}), {0},
                               aggs);
  auto plan = *RelOp::Distinct(*RelOp::Union(
      *RelOp::Project(agg, {Col(0), Col(4)}, KVFields()), scan0));

  // Four intervals of signed deltas; the last stays pending (unflushed).
  std::mt19937_64 rng(5);
  auto pick = [&](int n) {
    return static_cast<int64_t>(
        std::uniform_int_distribution<int>(0, n - 1)(rng));
  };
  struct Event {
    size_t port;
    Tuple delta;
  };
  std::vector<std::vector<Event>> intervals(4);
  for (auto& events : intervals) {
    for (int i = 0; i < 60; ++i) {
      Tuple t = T2(pick(20), pick(7));
      const size_t port = static_cast<size_t>(pick(2));
      events.push_back({port, MakeDeltaTuple(t, 1)});
      if (pick(3) == 0) events.push_back({port, MakeDeltaTuple(t, -1)});
    }
  }

  PlanDeltaOperator forward("forward", plan, 2, R2SKind::kRelation);
  PlanDeltaOperator backward("backward", plan, 2, R2SKind::kRelation);
  std::vector<StreamElement> out_forward, out_backward;
  VectorCollector collect_forward(&out_forward);
  VectorCollector collect_backward(&out_backward);
  OperatorContext ctx;
  for (size_t i = 0; i < intervals.size(); ++i) {
    const auto& events = intervals[i];
    for (const Event& e : events) {
      ASSERT_TRUE(forward
                      .ProcessElement(e.port, StreamElement::Record(e.delta, 0),
                                      ctx, &collect_forward)
                      .ok());
    }
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      ASSERT_TRUE(backward
                      .ProcessElement(it->port,
                                      StreamElement::Record(it->delta, 0), ctx,
                                      &collect_backward)
                      .ok());
    }
    if (i + 1 == intervals.size()) break;
    const Timestamp wm = static_cast<Timestamp>(10 * (i + 1));
    ASSERT_TRUE(forward.OnWatermark(wm, ctx, &collect_forward).ok());
    ASSERT_TRUE(backward.OnWatermark(wm, ctx, &collect_backward).ok());
  }
  ASSERT_FALSE(out_forward.empty());
  ASSERT_EQ(out_forward.size(), out_backward.size());
  for (size_t i = 0; i < out_forward.size(); ++i) {
    EXPECT_EQ(out_forward[i].tuple, out_backward[i].tuple) << i;
    EXPECT_EQ(out_forward[i].timestamp, out_backward[i].timestamp) << i;
  }

  std::string a = *forward.SnapshotState();
  std::string b = *backward.SnapshotState();
  EXPECT_EQ(a, b);
  // And the image round-trips to the same bytes.
  PlanDeltaOperator restored("restored", plan, 2, R2SKind::kRelation);
  ASSERT_TRUE(restored.RestoreState(a).ok());
  EXPECT_EQ(*restored.SnapshotState(), a);
}

TEST(ContinuousQueryTest, ToStringDescribesQuery) {
  RoomWorkload w = MakeRoomWorkload(2, 5, 2, 0.0, 0, 1);
  ContinuousQuery q = ListingOneQuery(w);
  std::string s = q.ToString();
  EXPECT_NE(s.find("[Range 15]"), std::string::npos);
  EXPECT_NE(s.find("RStream"), std::string::npos);
  EXPECT_NE(s.find("Aggregate"), std::string::npos);
}

TEST(ContinuousQueryTest, InputArityMismatchIsError) {
  ContinuousQuery q;
  q.input_windows = {S2RSpec::Unbounded(), S2RSpec::Unbounded()};
  q.plan = RelOp::Scan(0, KV());
  BoundedStream s;
  std::vector<const BoundedStream*> inputs{&s};
  EXPECT_FALSE(ReferenceExecutor::ResultAt(q, inputs, 0).ok());
}

}  // namespace
}  // namespace cq
