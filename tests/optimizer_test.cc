#include <gtest/gtest.h>

#include <random>

#include "sql/fingerprint.h"
#include "sql/optimizer.h"
#include "sql/plan_serde.h"
#include "sql/planner.h"
#include "workload/generators.h"

namespace cq {
namespace {

Catalog TwoStreamCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterStream("L", Schema::Make({{"k", ValueType::kInt64},
                                                     {"a", ValueType::kInt64}}))
                  .ok());
  EXPECT_TRUE(catalog
                  .RegisterStream("R", Schema::Make({{"k", ValueType::kInt64},
                                                     {"b", ValueType::kInt64}}))
                  .ok());
  return catalog;
}

size_t CountKind(const RelOpPtr& plan, RelOpKind kind) {
  size_t n = plan->kind() == kind ? 1 : 0;
  for (const auto& c : plan->children()) n += CountKind(c, kind);
  return n;
}

std::string CanonFp(const ExprPtr& e) {
  return ExprFingerprint(*CanonicalizePredicate(e));
}

TEST(OptimizerTest, ExtractsEquiJoinFromCrossProduct) {
  Catalog catalog = TwoStreamCatalog();
  auto planned = *PlanSql(
      "SELECT L.a FROM L, R WHERE L.k = R.k AND L.a > 5", catalog);
  ASSERT_EQ(CountKind(planned.query.plan, RelOpKind::kThetaJoin), 1u);
  ASSERT_EQ(CountKind(planned.query.plan, RelOpKind::kJoin), 0u);

  OptimizerStats stats;
  auto optimized = *OptimizePlan(planned.query.plan, OptimizerOptions{},
                                 &stats);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kThetaJoin), 0u);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kJoin), 1u);
  EXPECT_EQ(stats.equi_joins_extracted, 1u);
  EXPECT_GE(stats.selections_pushed, 1u);  // L.a > 5 pushed below the join
}

TEST(OptimizerTest, ExtractsFromThetaJoinOwnPredicate) {
  // Case A: the equality lives in the ThetaJoin's own predicate (as built
  // by hand or by the RSP compiler for cartesian patterns).
  auto l = RelOp::Scan(0, Schema::Make({{"k", ValueType::kInt64},
                                        {"a", ValueType::kInt64}}));
  auto r = RelOp::Scan(1, Schema::Make({{"k", ValueType::kInt64},
                                        {"b", ValueType::kInt64}}));
  auto theta = *RelOp::ThetaJoin(
      l, r, And(Eq(Col(0), Col(2)), Gt(Col(1), Lit(int64_t{5}))));
  OptimizerStats stats;
  auto optimized = *OptimizePlan(theta, OptimizerOptions{}, &stats);
  EXPECT_EQ(stats.equi_joins_extracted, 1u);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kJoin), 1u);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kThetaJoin), 0u);

  // Equivalence on data.
  MultisetRelation dl, dr;
  for (int64_t i = 0; i < 20; ++i) {
    dl.Add(Tuple({Value(i % 5), Value(i)}), 1);
    dr.Add(Tuple({Value(i % 5), Value(i * 2)}), 1);
  }
  EXPECT_EQ(*theta->Eval({dl, dr}), *optimized->Eval({dl, dr}));
}

TEST(OptimizerTest, ChainWithBuriedEqualityStillExtracts) {
  // Pushdown disabled: the equality sits mid-chain; extraction must look
  // through the whole selection chain.
  Catalog catalog = TwoStreamCatalog();
  auto planned = *PlanSql(
      "SELECT L.a FROM L, R WHERE L.a > 1 AND L.k = R.k AND R.b < 9",
      catalog);
  OptimizerOptions opts;
  opts.push_down_selections = false;
  opts.reorder_selections = false;
  opts.fuse_selections = false;
  opts.eliminate_redundancy = false;
  OptimizerStats stats;
  auto optimized = *OptimizePlan(planned.query.plan, opts, &stats);
  EXPECT_EQ(stats.equi_joins_extracted, 1u);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kJoin), 1u);
}

TEST(OptimizerTest, PushesSelectionBelowJoinSides) {
  Catalog catalog = TwoStreamCatalog();
  auto planned = *PlanSql(
      "SELECT L.a FROM L, R WHERE L.k = R.k AND L.a > 5 AND R.b < 3",
      catalog);
  auto optimized = *OptimizePlan(planned.query.plan, OptimizerOptions{});
  // Both single-side predicates pushed below the join: the join's children
  // are selections over scans.
  std::vector<const RelOp*> joins;
  std::function<void(const RelOp*)> find = [&](const RelOp* op) {
    if (op->kind() == RelOpKind::kJoin) joins.push_back(op);
    for (const auto& c : op->children()) find(c.get());
  };
  find(optimized.get());
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->children()[0]->kind(), RelOpKind::kSelect);
  EXPECT_EQ(joins[0]->children()[1]->kind(), RelOpKind::kSelect);
}

TEST(OptimizerTest, FusionMergesSelectionChains) {
  Catalog catalog = TwoStreamCatalog();
  auto planned = *PlanSql(
      "SELECT L.a FROM L WHERE L.a > 1 AND L.a < 9 AND L.k = 2", catalog);
  OptimizerOptions opts;
  opts.extract_equi_joins = false;
  OptimizerStats stats;
  auto optimized = *OptimizePlan(planned.query.plan, opts, &stats);
  // Separated, reordered, then fused back into a single Select.
  EXPECT_EQ(CountKind(optimized, RelOpKind::kSelect), 1u);
  EXPECT_GT(stats.selections_fused, 0u);
}

TEST(OptimizerTest, RedundantPredicateEliminated) {
  Catalog catalog = TwoStreamCatalog();
  auto planned = *PlanSql(
      "SELECT L.a FROM L WHERE L.a > 5 AND L.a > 5", catalog);
  // Canonicalization dedups conjuncts itself; disable it so the standalone
  // redundancy rule is what collapses the duplicated chain.
  OptimizerOptions opts;
  opts.canonicalize = false;
  opts.fuse_selections = false;  // keep the chain visible
  OptimizerStats stats;
  auto optimized = *OptimizePlan(planned.query.plan, opts, &stats);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kSelect), 1u);
  EXPECT_EQ(stats.predicates_deduped, 1u);

  // With canonicalization on, the duplicate never survives expression
  // normalization in the first place.
  OptimizerOptions canon;
  canon.fuse_selections = false;
  auto canonical = *OptimizePlan(planned.query.plan, canon);
  EXPECT_EQ(CountKind(canonical, RelOpKind::kSelect), 1u);
}

TEST(OptimizerTest, SelectivityEstimates) {
  auto eq_lit = Eq(Col(0), Lit(int64_t{5}));
  auto eq_col = Eq(Col(0), Col(1));
  auto range = Gt(Col(0), Lit(int64_t{5}));
  EXPECT_LT(EstimateSelectivity(*eq_lit), EstimateSelectivity(*eq_col));
  EXPECT_LT(EstimateSelectivity(*eq_col), EstimateSelectivity(*range));
  auto conj = And(eq_lit, range);
  EXPECT_LT(EstimateSelectivity(*conj), EstimateSelectivity(*eq_lit));
  auto disj = Or(eq_lit, range);
  EXPECT_GT(EstimateSelectivity(*disj), EstimateSelectivity(*range));
  EXPECT_GT(EstimateSelectivity(*Not(eq_lit)), 0.9);
}

TEST(OptimizerTest, ReordersMostSelectiveFirst) {
  Catalog catalog = TwoStreamCatalog();
  // Range predicate written first, equality second: reordering must put the
  // equality innermost (evaluated first). Canonicalization renders the
  // range as `<`, so the outer predicate must not be the equality.
  auto planned = *PlanSql(
      "SELECT L.a FROM L WHERE L.a > 1 AND L.k = 2", catalog);
  OptimizerOptions opts;
  opts.fuse_selections = false;
  auto optimized = *OptimizePlan(planned.query.plan, opts);
  const RelOp* cursor = optimized.get();
  while (cursor->kind() != RelOpKind::kSelect) {
    cursor = cursor->children()[0].get();
  }
  // Outermost (evaluated last) is the less-selective range predicate.
  EXPECT_EQ(cursor->predicate()->ToString().find("="), std::string::npos);
  EXPECT_NE(cursor->predicate()->ToString().find("<"), std::string::npos);
  // And the chain below it holds the equality.
  const RelOp* inner = cursor->children()[0].get();
  ASSERT_EQ(inner->kind(), RelOpKind::kSelect);
  EXPECT_NE(inner->predicate()->ToString().find("="), std::string::npos);
}

// --- Canonicalization: semantically-equal predicates, identical text ---

TEST(CanonicalizeTest, ReorderedConjunctsFingerprintIdentically) {
  auto a = Gt(Col(1, "a"), Lit(int64_t{5}));
  auto b = Eq(Col(0, "k"), Lit(int64_t{2}));
  EXPECT_EQ(CanonFp(And(a, b)), CanonFp(And(b, a)));
}

TEST(CanonicalizeTest, FlippedComparisonsFingerprintIdentically) {
  // a > 5 == 5 < a; a <= 5 == 5 >= a; k = 2 == 2 = k.
  EXPECT_EQ(CanonFp(Gt(Col(1), Lit(int64_t{5}))),
            CanonFp(Lt(Lit(int64_t{5}), Col(1))));
  EXPECT_EQ(CanonFp(Bin(BinaryOp::kLe, Col(1), Lit(int64_t{5}))),
            CanonFp(Bin(BinaryOp::kGe, Lit(int64_t{5}), Col(1))));
  EXPECT_EQ(CanonFp(Eq(Col(0), Lit(int64_t{2}))),
            CanonFp(Eq(Lit(int64_t{2}), Col(0))));
}

TEST(CanonicalizeTest, ColumnDisplayNamesDoNotLeakIntoFingerprints) {
  // The same positional column under different display names (aliases).
  EXPECT_EQ(CanonFp(Gt(Col(1, "L.a"), Lit(int64_t{5}))),
            CanonFp(Gt(Col(1, "price"), Lit(int64_t{5}))));
}

TEST(CanonicalizeTest, NotPushdownNormalizes) {
  auto lt = Lt(Col(0), Lit(int64_t{3}));
  auto ge = Bin(BinaryOp::kGe, Col(0), Lit(int64_t{3}));
  // NOT (x < 3) == x >= 3.
  EXPECT_EQ(CanonFp(Not(lt)), CanonFp(ge));
  // Double negation collapses in predicate context.
  EXPECT_EQ(CanonFp(Not(Not(lt))), CanonFp(lt));
  // De Morgan: NOT (a AND b) == NOT a OR NOT b (and the OR dual).
  auto a = Lt(Col(0), Lit(int64_t{3}));
  auto b = Gt(Col(1), Lit(int64_t{7}));
  EXPECT_EQ(CanonFp(Not(And(a, b))), CanonFp(Or(Not(a), Not(b))));
  EXPECT_EQ(CanonFp(Not(Or(a, b))), CanonFp(And(Not(a), Not(b))));
}

TEST(CanonicalizeTest, ConstantFolding) {
  OptimizerStats stats;
  // 1 + 2 folds to 3 inside a larger predicate.
  auto e = Lt(Col(0), Bin(BinaryOp::kAdd, Lit(int64_t{1}), Lit(int64_t{2})));
  auto canon = CanonicalizePredicate(e, &stats);
  EXPECT_EQ(ExprFingerprint(*canon),
            ExprFingerprint(*Lt(Col(0), Lit(int64_t{3}))));
  EXPECT_GE(stats.constants_folded, 1u);
  // Expressions that would error (1/0) stay unfolded.
  auto div = Lt(Col(0), Bin(BinaryOp::kDiv, Lit(int64_t{1}), Lit(int64_t{0})));
  auto canon_div = CanonicalizePredicate(div);
  EXPECT_NE(ExprFingerprint(*canon_div).find("/"), std::string::npos);
}

TEST(CanonicalizeTest, TrueConjunctsDropAndFalseShortCircuits) {
  auto p = Lt(Col(0), Lit(int64_t{3}));
  auto q = Eq(Col(1), Lit(int64_t{7}));
  // TRUE AND p == p.
  EXPECT_EQ(CanonFp(And(Lit(Value(true)), p)), CanonFp(p));
  // All-literal conjunctions fold completely.
  EXPECT_EQ(CanonFp(And(Lit(Value(true)), Lit(Value(false)))),
            ExprFingerprint(*Lit(Value(false))));
  // p AND FALSE does NOT collapse to FALSE (p may error or yield NULL
  // first), but everything after the FALSE is dead and is dropped.
  EXPECT_EQ(CanonFp(And(p, And(Lit(Value(false)), q))),
            CanonFp(And(p, Lit(Value(false)))));
  // p OR FALSE == p, and disjuncts after a literal TRUE are dead.
  EXPECT_EQ(CanonFp(Or(p, Lit(Value(false)))), CanonFp(p));
  EXPECT_EQ(CanonFp(Or(p, Or(Lit(Value(true)), q))),
            CanonFp(Or(p, Lit(Value(true)))));
}

TEST(CanonicalizeTest, OrOperandsAreNeverReordered) {
  // Documented caveat: this engine NULL-poisons on the first operand
  // (NULL OR TRUE is NULL, TRUE OR NULL is TRUE), so OR is order-sensitive
  // and canonicalization must NOT sort disjuncts.
  auto a = Lt(Col(0), Lit(int64_t{3}));
  auto b = Eq(Col(1), Lit(int64_t{7}));
  EXPECT_NE(CanonFp(Or(b, a)), CanonFp(Or(a, b)));
}

TEST(CanonicalizeTest, ValueContextIsConservative) {
  // In value context (projections), AND operands keep their order and
  // double NOT survives: NOT NOT x errors on non-boolean x while x does
  // not, so the rewrite is only safe where NULL collapses.
  auto a = Lt(Col(0), Lit(int64_t{3}));
  auto b = Eq(Col(1), Lit(int64_t{7}));
  EXPECT_NE(ExprFingerprint(*CanonicalizeValueExpr(And(b, a))),
            ExprFingerprint(*CanonicalizeValueExpr(And(a, b))));
  auto nn = Not(Not(a));
  EXPECT_NE(ExprFingerprint(*CanonicalizeValueExpr(nn)),
            ExprFingerprint(*CanonicalizeValueExpr(a)));
  // But exact rewrites still apply: multiplication is commutative.
  auto m1 = Bin(BinaryOp::kMul, Col(1), Col(0));
  auto m2 = Bin(BinaryOp::kMul, Col(0), Col(1));
  EXPECT_EQ(ExprFingerprint(*CanonicalizeValueExpr(m1)),
            ExprFingerprint(*CanonicalizeValueExpr(m2)));
  // Addition is NOT (string concatenation), so operands stay put.
  auto s1 = Bin(BinaryOp::kAdd, Col(1), Col(0));
  auto s2 = Bin(BinaryOp::kAdd, Col(0), Col(1));
  EXPECT_NE(ExprFingerprint(*CanonicalizeValueExpr(s1)),
            ExprFingerprint(*CanonicalizeValueExpr(s2)));
}

TEST(CanonicalizeTest, DistinctPredicatesKeepDistinctFingerprints) {
  // No false collisions: canonicalization maps equal predicates together
  // without merging different ones.
  EXPECT_NE(CanonFp(Gt(Col(1), Lit(int64_t{5}))),
            CanonFp(Gt(Col(1), Lit(int64_t{6}))));
  EXPECT_NE(CanonFp(Gt(Col(1), Lit(int64_t{5}))),
            CanonFp(Bin(BinaryOp::kGe, Col(1), Lit(int64_t{5}))));
}

// --- Projection merge ---

TEST(OptimizerTest, MergesAdjacentProjections) {
  auto scan = RelOp::Scan(0, Schema::Make({{"k", ValueType::kInt64},
                                           {"a", ValueType::kInt64}}));
  auto inner = *RelOp::Project(
      scan, {Bin(BinaryOp::kAdd, Col(0), Col(1)), Col(0)},
      {{"s", ValueType::kInt64}, {"k", ValueType::kInt64}});
  auto outer = *RelOp::Project(
      inner, {Bin(BinaryOp::kMul, Col(0), Lit(int64_t{2})), Col(1)},
      {{"d", ValueType::kInt64}, {"k", ValueType::kInt64}});

  OptimizerOptions opts;
  OptimizerStats stats;
  auto optimized = *OptimizePlan(outer, opts, &stats);
  EXPECT_EQ(stats.projections_merged, 1u);
  EXPECT_EQ(CountKind(optimized, RelOpKind::kProject), 1u);
  EXPECT_TRUE(optimized->schema()->Equals(*outer->schema()));

  MultisetRelation data;
  for (int64_t i = 0; i < 10; ++i) data.Add(Tuple({Value(i), Value(i * 3)}), 1);
  EXPECT_EQ(*outer->Eval({data}), *optimized->Eval({data}));
}

// --- Join-input selection ---

TEST(OptimizerTest, PutsMoreSelectiveSideOnBuildInput) {
  auto l = RelOp::Scan(0, Schema::Make({{"k", ValueType::kInt64},
                                        {"a", ValueType::kInt64}}));
  auto r = RelOp::Scan(1, Schema::Make({{"k", ValueType::kInt64},
                                        {"b", ValueType::kInt64}}));
  // Right side carries a sharp equality filter: it should become the build
  // (left) input, with a compensating projection keeping the schema.
  auto rsel = *RelOp::Select(r, Eq(Col(1), Lit(int64_t{4})));
  auto join = *RelOp::Join(l, rsel, {0}, {0}, nullptr);

  OptimizerOptions opts;
  opts.canonicalize = false;  // keep the hand-built shape stable
  OptimizerStats stats;
  auto optimized = *OptimizePlan(join, opts, &stats);
  EXPECT_EQ(stats.join_inputs_swapped, 1u);
  EXPECT_TRUE(optimized->schema()->Equals(*join->schema()));

  MultisetRelation dl, dr;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> val(0, 6);
  for (int i = 0; i < 30; ++i) {
    dl.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
    dr.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
  }
  EXPECT_EQ(*join->Eval({dl, dr}), *optimized->Eval({dl, dr}));

  // Symmetric case: the filter on the left side means no swap.
  auto lsel = *RelOp::Select(l, Eq(Col(1), Lit(int64_t{4})));
  auto join2 = *RelOp::Join(lsel, r, {0}, {0}, nullptr);
  OptimizerStats stats2;
  auto optimized2 = *OptimizePlan(join2, opts, &stats2);
  EXPECT_EQ(stats2.join_inputs_swapped, 0u);
}

// --- Set-operation and aggregate pushdown ---

TEST(OptimizerTest, PushesSelectionThroughSetOpsAndAggregates) {
  auto schema = Schema::Make({{"k", ValueType::kInt64},
                              {"a", ValueType::kInt64}});
  auto l = RelOp::Scan(0, schema);
  auto r = RelOp::Scan(1, schema);
  MultisetRelation dl, dr;
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int64_t> val(0, 4);
  for (int i = 0; i < 30; ++i) {
    dl.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
    dr.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
  }

  auto pred = Lt(Col(0), Lit(int64_t{3}));
  for (auto make : {&RelOp::Except, &RelOp::Intersect, &RelOp::Union}) {
    auto setop = *(*make)(l, r);
    auto plan = *RelOp::Select(setop, pred);
    OptimizerStats stats;
    auto optimized = *OptimizePlan(plan, OptimizerOptions{}, &stats);
    EXPECT_GE(stats.selections_pushed, 1u);
    EXPECT_EQ(*plan->Eval({dl, dr}), *optimized->Eval({dl, dr}));
  }

  // Group-key predicate pushes below the aggregate.
  auto agg = *RelOp::Aggregate(l, {0},
                               {AggSpec{AggregateKind::kCount, nullptr, "c"}});
  auto agg_plan = *RelOp::Select(agg, Lt(Col(0), Lit(int64_t{3})));
  OptimizerStats agg_stats;
  auto agg_opt = *OptimizePlan(agg_plan, OptimizerOptions{}, &agg_stats);
  EXPECT_GE(agg_stats.selections_pushed, 1u);
  EXPECT_EQ(*agg_plan->Eval({dl}), *agg_opt->Eval({dl}));
  // A predicate over the aggregate output column must NOT push.
  auto out_pred = *RelOp::Select(agg, Lt(Col(1), Lit(int64_t{3})));
  OptimizerStats out_stats;
  auto out_opt = *OptimizePlan(out_pred, OptimizerOptions{}, &out_stats);
  EXPECT_EQ(out_stats.selections_pushed, 0u);
  EXPECT_EQ(*out_pred->Eval({dl}), *out_opt->Eval({dl}));
}

// --- Kill-switch spec parsing ---

TEST(OptimizerTest, RuleSpecParsing) {
  // "all" / default: everything on.
  auto all = *OptimizerOptionsFromSpec("all");
  EXPECT_TRUE(all.canonicalize);
  EXPECT_TRUE(all.fuse_selections);
  EXPECT_TRUE(all.choose_join_inputs);

  auto none = *OptimizerOptionsFromSpec("none");
  EXPECT_FALSE(none.canonicalize);
  EXPECT_FALSE(none.separate_conjuncts);
  EXPECT_FALSE(none.push_down_selections);
  EXPECT_FALSE(none.extract_equi_joins);
  EXPECT_FALSE(none.eliminate_redundancy);
  EXPECT_FALSE(none.reorder_selections);
  EXPECT_FALSE(none.fuse_selections);
  EXPECT_FALSE(none.merge_projections);
  EXPECT_FALSE(none.choose_join_inputs);

  // Bare rule name first: the each-rule-solo form.
  auto solo = *OptimizerOptionsFromSpec("pushdown");
  EXPECT_TRUE(solo.push_down_selections);
  EXPECT_FALSE(solo.canonicalize);
  EXPECT_FALSE(solo.fuse_selections);

  auto minus = *OptimizerOptionsFromSpec("all,-fuse");
  EXPECT_TRUE(minus.canonicalize);
  EXPECT_FALSE(minus.fuse_selections);

  auto plus = *OptimizerOptionsFromSpec("none,+canonicalize");
  EXPECT_TRUE(plus.canonicalize);
  EXPECT_FALSE(plus.push_down_selections);

  EXPECT_FALSE(OptimizerOptionsFromSpec("frobnicate").ok());
  EXPECT_FALSE(OptimizerOptionsFromSpec("all,-nosuchrule").ok());

  // Every published rule name round-trips through the parser.
  for (const std::string& name : OptimizerRuleNames()) {
    EXPECT_TRUE(OptimizerOptionsFromSpec(name).ok()) << name;
  }
}

// Property: the optimised plan computes identical results on random data,
// for a spread of query shapes and rule subsets.
const std::vector<std::string>& CorpusQueries() {
  static const std::vector<std::string> kQueries = {
      "SELECT L.a FROM L WHERE L.a > 3 AND L.k = 1",
      "SELECT L.a, R.b FROM L, R WHERE L.k = R.k",
      "SELECT L.a, R.b FROM L, R WHERE L.k = R.k AND L.a > 2 AND R.b < 8",
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k AND L.a > 1 "
      "GROUP BY L.k",
      "SELECT DISTINCT L.a FROM L, R WHERE L.k = R.k AND L.a = R.b",
      "SELECT L.a FROM L WHERE NOT (L.a < 2 AND L.k = 3)",
      "SELECT L.a FROM L WHERE 5 < L.a AND NOT NOT (L.k = 1)",
      "SELECT L.a FROM L, R WHERE R.k = L.k AND 3 > R.b",
  };
  return kQueries;
}

class OptimizerEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerEquivalenceTest, OptimisedPlanIsEquivalent) {
  Catalog catalog = TwoStreamCatalog();
  std::vector<OptimizerOptions> variants;
  variants.push_back(OptimizerOptions{});  // everything on
  {
    OptimizerOptions o;
    o.fuse_selections = false;
    variants.push_back(o);
  }
  {
    OptimizerOptions o;
    o.extract_equi_joins = false;
    variants.push_back(o);
  }
  {
    OptimizerOptions o;
    o.push_down_selections = false;
    o.reorder_selections = false;
    variants.push_back(o);
  }
  {
    OptimizerOptions o;
    o.canonicalize = false;
    o.merge_projections = false;
    o.choose_join_inputs = false;
    variants.push_back(o);
  }

  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> val(0, 6);
  MultisetRelation l, r;
  for (int i = 0; i < 40; ++i) {
    l.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
    r.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
  }

  for (const auto& sql : CorpusQueries()) {
    auto planned = PlanSql(sql, catalog);
    ASSERT_TRUE(planned.ok()) << sql << ": " << planned.status().ToString();
    MultisetRelation baseline = *planned->query.plan->Eval({l, r});
    for (const auto& opts : variants) {
      auto optimized = OptimizePlan(planned->query.plan, opts);
      ASSERT_TRUE(optimized.ok()) << sql;
      MultisetRelation result = *(*optimized)->Eval({l, r});
      ASSERT_EQ(result, baseline) << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceTest,
                         ::testing::Values(1, 5, 23, 404));

// The CI plan-optimizer lane's sweep: all-on, all-off, and each rule solo,
// asserting bit-identical outputs against the naive plan on the same
// corpus. Parameterized by spec string so the lane's log names each rule.
class OptimizerRuleSweepTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerRuleSweepTest, BitIdenticalOutputs) {
  Catalog catalog = TwoStreamCatalog();
  auto opts = OptimizerOptionsFromSpec(GetParam());
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();

  for (int seed : {3, 17, 99}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> val(0, 6);
    MultisetRelation l, r;
    for (int i = 0; i < 40; ++i) {
      l.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
      r.Add(Tuple({Value(val(rng)), Value(val(rng))}), 1);
    }
    for (const auto& sql : CorpusQueries()) {
      auto planned = PlanSql(sql, catalog);
      ASSERT_TRUE(planned.ok()) << sql;
      MultisetRelation baseline = *planned->query.plan->Eval({l, r});
      auto optimized = OptimizePlan(planned->query.plan, *opts);
      ASSERT_TRUE(optimized.ok()) << sql;
      ASSERT_EQ(*(*optimized)->Eval({l, r}), baseline)
          << sql << " under spec '" << GetParam() << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KillSwitches, OptimizerRuleSweepTest,
                         ::testing::Values("all", "none", "canonicalize",
                                           "separate", "pushdown", "equijoin",
                                           "redundancy", "reorder", "fuse",
                                           "mergeproj", "joininputs"));

}  // namespace
}  // namespace cq
