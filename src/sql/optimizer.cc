#include "sql/optimizer.h"

#include <algorithm>
#include <functional>
#include <set>

#include "sql/plan_serde.h"

namespace cq {

namespace {

// ---- Expression utilities ----

void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*e);
    if (b.op() == BinaryOp::kAnd) {
      CollectConjuncts(b.left(), out);
      CollectConjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(e);
}

void CollectDisjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*e);
    if (b.op() == BinaryOp::kOr) {
      CollectDisjuncts(b.left(), out);
      CollectDisjuncts(b.right(), out);
      return;
    }
  }
  out->push_back(e);
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

ExprPtr OrAll(const std::vector<ExprPtr>& disjuncts) {
  ExprPtr acc = disjuncts[0];
  for (size_t i = 1; i < disjuncts.size(); ++i) {
    acc = Or(acc, disjuncts[i]);
  }
  return acc;
}

std::set<size_t> ColumnsOf(const Expr& e) {
  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  return {cols.begin(), cols.end()};
}

/// Rebuilds an expression with column indexes remapped.
Result<ExprPtr> RemapColumns(const ExprPtr& e,
                             const std::function<Result<size_t>(size_t)>& fn) {
  switch (e->kind()) {
    case Expr::Kind::kColumn: {
      const auto& c = static_cast<const ColumnRef&>(*e);
      CQ_ASSIGN_OR_RETURN(size_t idx, fn(c.index()));
      return Col(idx, c.name());
    }
    case Expr::Kind::kLiteral:
      return e;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr l, RemapColumns(b.left(), fn));
      CQ_ASSIGN_OR_RETURN(ExprPtr r, RemapColumns(b.right(), fn));
      return Bin(b.op(), std::move(l), std::move(r));
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const NotExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, RemapColumns(n.inner(), fn));
      return Not(std::move(inner));
    }
    case Expr::Kind::kNeg: {
      const auto& n = static_cast<const NegExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, RemapColumns(n.inner(), fn));
      return ExprPtr(std::make_shared<NegExpr>(std::move(inner)));
    }
    case Expr::Kind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, RemapColumns(n.inner(), fn));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(inner), n.negated()));
    }
  }
  return Status::Unimplemented("remap of this expression kind");
}

/// Rebuilds an expression substituting each column reference with a full
/// expression (projection-merge composition).
Result<ExprPtr> SubstituteColumns(const ExprPtr& e,
                                  const std::vector<ExprPtr>& subs) {
  switch (e->kind()) {
    case Expr::Kind::kColumn: {
      const auto& c = static_cast<const ColumnRef&>(*e);
      if (c.index() >= subs.size()) {
        return Status::PlanError("column " + std::to_string(c.index()) +
                                 " out of range for projection merge");
      }
      return subs[c.index()];
    }
    case Expr::Kind::kLiteral:
      return e;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr l, SubstituteColumns(b.left(), subs));
      CQ_ASSIGN_OR_RETURN(ExprPtr r, SubstituteColumns(b.right(), subs));
      return Bin(b.op(), std::move(l), std::move(r));
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const NotExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, SubstituteColumns(n.inner(), subs));
      return Not(std::move(inner));
    }
    case Expr::Kind::kNeg: {
      const auto& n = static_cast<const NegExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, SubstituteColumns(n.inner(), subs));
      return ExprPtr(std::make_shared<NegExpr>(std::move(inner)));
    }
    case Expr::Kind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(*e);
      CQ_ASSIGN_OR_RETURN(ExprPtr inner, SubstituteColumns(n.inner(), subs));
      return ExprPtr(std::make_shared<IsNullExpr>(std::move(inner), n.negated()));
    }
  }
  return Status::Unimplemented("substitute of this expression kind");
}

// ---- Rule: canonicalization ----
//
// A deterministic normal form: semantically-equal predicates serialize to
// identical IR text, so plan-prefix fingerprints collide exactly when the
// NiagaraCQ sharing machinery wants them to. Every rewrite below is exact
// under the engine's evaluation semantics except where noted for predicate
// context (NULL collapses to false at Select/Join boundaries).

bool IsLiteralBool(const Expr& e, bool want) {
  if (e.kind() != Expr::Kind::kLiteral) return false;
  const Value& v = static_cast<const Literal&>(e).value();
  return v.is_bool() && v.bool_value() == want;
}

bool HasColumns(const Expr& e) {
  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  return !cols.empty();
}

/// Folds a column-free expression to a literal when it evaluates cleanly
/// (a column-free Eval is tuple-independent). Expressions that error — e.g.
/// 1/0 — stay unfolded so the runtime error surfaces unchanged.
ExprPtr FoldConstants(ExprPtr e, OptimizerStats* stats) {
  if (e->kind() == Expr::Kind::kLiteral ||
      e->kind() == Expr::Kind::kColumn || HasColumns(*e)) {
    return e;
  }
  Result<Value> v = e->Eval(Tuple{});
  if (!v.ok()) return e;
  if (stats != nullptr) stats->constants_folded++;
  return Lit(std::move(v).value());
}

/// Negation of a comparison operator (NOT (a < b) == a >= b: comparisons
/// yield NULL on NULL operands and NOT preserves NULL, so the rewrite is
/// exact). Returns false for non-comparison ops.
bool NegateComparison(BinaryOp op, BinaryOp* out) {
  switch (op) {
    case BinaryOp::kEq:
      *out = BinaryOp::kNe;
      return true;
    case BinaryOp::kNe:
      *out = BinaryOp::kEq;
      return true;
    case BinaryOp::kLt:
      *out = BinaryOp::kGe;
      return true;
    case BinaryOp::kLe:
      *out = BinaryOp::kGt;
      return true;
    case BinaryOp::kGt:
      *out = BinaryOp::kLe;
      return true;
    case BinaryOp::kGe:
      *out = BinaryOp::kLt;
      return true;
    default:
      return false;
  }
}

std::string Fp(const ExprPtr& e) { return SerializeExpr(*e); }

ExprPtr CanonExpr(const ExprPtr& e, bool pred_ctx, OptimizerStats* stats);

/// AND: flatten, canonicalize conjuncts, fold literals (drop TRUEs,
/// truncate after the first FALSE — short-circuit makes the tail dead),
/// dedup by fingerprint (keeping the first occurrence is exact: a repeated
/// conjunct can only re-confirm TRUE or be skipped), and — predicate
/// context only — sort by fingerprint for a canonical order.
ExprPtr CanonAnd(const ExprPtr& e, bool pred_ctx, OptimizerStats* stats) {
  std::vector<ExprPtr> raw;
  CollectConjuncts(e, &raw);
  std::vector<ExprPtr> conjuncts;
  for (const ExprPtr& c : raw) {
    // Canonicalizing a conjunct can surface new ANDs (De Morgan on a
    // negated OR); re-flatten them into the same list.
    CollectConjuncts(CanonExpr(c, pred_ctx, stats), &conjuncts);
  }
  std::vector<ExprPtr> kept;
  std::set<std::string> seen;
  for (const ExprPtr& c : conjuncts) {
    if (IsLiteralBool(*c, true)) continue;
    if (!seen.insert(Fp(c)).second) continue;
    kept.push_back(c);
    if (IsLiteralBool(*c, false)) break;  // short-circuit: tail is dead
  }
  if (kept.empty()) return Lit(Value(true));
  if (pred_ctx) {
    std::stable_sort(kept.begin(), kept.end(),
                     [](const ExprPtr& a, const ExprPtr& b) {
                       return Fp(a) < Fp(b);
                     });
  }
  return AndAll(kept);
}

/// OR: flatten, canonicalize, drop literal FALSEs, truncate after the first
/// TRUE, dedup. Never reordered: this engine NULL-poisons on the first
/// operand (`NULL OR TRUE` is NULL, `TRUE OR NULL` is TRUE), so disjunct
/// order is observable even under predicate collapse.
ExprPtr CanonOr(const ExprPtr& e, bool pred_ctx, OptimizerStats* stats) {
  std::vector<ExprPtr> raw;
  CollectDisjuncts(e, &raw);
  std::vector<ExprPtr> disjuncts;
  for (const ExprPtr& d : raw) {
    CollectDisjuncts(CanonExpr(d, pred_ctx, stats), &disjuncts);
  }
  std::vector<ExprPtr> kept;
  std::set<std::string> seen;
  for (const ExprPtr& d : disjuncts) {
    if (IsLiteralBool(*d, false)) continue;
    if (!seen.insert(Fp(d)).second) continue;
    kept.push_back(d);
    if (IsLiteralBool(*d, true)) break;  // short-circuit: tail is dead
  }
  if (kept.empty()) return Lit(Value(false));
  return OrAll(kept);
}

ExprPtr CanonNot(const NotExpr& n, bool pred_ctx, OptimizerStats* stats) {
  const ExprPtr& inner = n.inner();
  // NOT NOT x -> x collapses a TypeError on non-BOOL x, so it is gated to
  // predicate context where the planner guarantees boolean typing.
  if (pred_ctx && inner->kind() == Expr::Kind::kNot) {
    return CanonExpr(static_cast<const NotExpr&>(*inner).inner(), pred_ctx,
                     stats);
  }
  if (inner->kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*inner);
    BinaryOp neg;
    if (NegateComparison(b.op(), &neg)) {
      return CanonExpr(Bin(neg, b.left(), b.right()), pred_ctx, stats);
    }
    // De Morgan, exact both directions under first-operand short-circuit.
    if (b.op() == BinaryOp::kAnd) {
      return CanonExpr(Or(Not(b.left()), Not(b.right())), pred_ctx, stats);
    }
    if (b.op() == BinaryOp::kOr) {
      return CanonExpr(And(Not(b.left()), Not(b.right())), pred_ctx, stats);
    }
  }
  if (inner->kind() == Expr::Kind::kIsNull) {
    const auto& is = static_cast<const IsNullExpr&>(*inner);
    return CanonExpr(
        std::make_shared<IsNullExpr>(is.inner(), !is.negated()), pred_ctx,
        stats);
  }
  return FoldConstants(Not(CanonExpr(inner, pred_ctx, stats)), stats);
}

ExprPtr CanonExpr(const ExprPtr& e, bool pred_ctx, OptimizerStats* stats) {
  switch (e->kind()) {
    case Expr::Kind::kColumn: {
      const auto& c = static_cast<const ColumnRef&>(*e);
      // Display names ("L.a", "price") vary across textually-different but
      // equal queries; the canonical rendering is positional with an empty
      // display name.
      if (c.name().empty()) return e;
      return Col(c.index());
    }
    case Expr::Kind::kLiteral:
      return e;
    case Expr::Kind::kNot:
      return CanonNot(static_cast<const NotExpr&>(*e), pred_ctx, stats);
    case Expr::Kind::kNeg: {
      const auto& n = static_cast<const NegExpr&>(*e);
      return FoldConstants(std::make_shared<NegExpr>(CanonExpr(
                               n.inner(), /*pred_ctx=*/false, stats)),
                           stats);
    }
    case Expr::Kind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(*e);
      return FoldConstants(
          std::make_shared<IsNullExpr>(
              CanonExpr(n.inner(), /*pred_ctx=*/false, stats), n.negated()),
          stats);
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      switch (b.op()) {
        case BinaryOp::kAnd:
          return FoldConstants(CanonAnd(e, pred_ctx, stats), stats);
        case BinaryOp::kOr:
          return FoldConstants(CanonOr(e, pred_ctx, stats), stats);
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          ExprPtr l = CanonExpr(b.left(), /*pred_ctx=*/false, stats);
          ExprPtr r = CanonExpr(b.right(), /*pred_ctx=*/false, stats);
          BinaryOp op = b.op();
          // Direction normalization: render every inequality as < / <=
          // (a > b == b < a exactly; comparisons evaluate both operands).
          if (op == BinaryOp::kGt) {
            std::swap(l, r);
            op = BinaryOp::kLt;
          } else if (op == BinaryOp::kGe) {
            std::swap(l, r);
            op = BinaryOp::kLe;
          }
          // Symmetric operators order operands by fingerprint.
          if ((op == BinaryOp::kEq || op == BinaryOp::kNe) && Fp(l) > Fp(r)) {
            std::swap(l, r);
          }
          return FoldConstants(Bin(op, std::move(l), std::move(r)), stats);
        }
        case BinaryOp::kMul: {
          // Numeric-only, hence commutative; + is excluded (string concat).
          ExprPtr l = CanonExpr(b.left(), /*pred_ctx=*/false, stats);
          ExprPtr r = CanonExpr(b.right(), /*pred_ctx=*/false, stats);
          if (Fp(l) > Fp(r)) std::swap(l, r);
          return FoldConstants(Bin(BinaryOp::kMul, std::move(l), std::move(r)),
                               stats);
        }
        default: {
          ExprPtr l = CanonExpr(b.left(), /*pred_ctx=*/false, stats);
          ExprPtr r = CanonExpr(b.right(), /*pred_ctx=*/false, stats);
          return FoldConstants(Bin(b.op(), std::move(l), std::move(r)),
                               stats);
        }
      }
    }
  }
  return e;
}

ExprPtr CanonTracked(const ExprPtr& e, bool pred_ctx, OptimizerStats* stats) {
  ExprPtr canon = CanonExpr(e, pred_ctx, stats);
  if (stats != nullptr && Fp(canon) != Fp(e)) stats->exprs_canonicalized++;
  return canon;
}

Result<RelOpPtr> CanonicalizePlan(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, CanonicalizePlan(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  switch (node->kind()) {
    case RelOpKind::kSelect: {
      ExprPtr p = CanonTracked(node->predicate(), /*pred_ctx=*/true, stats);
      // A predicate folded to TRUE keeps every tuple: drop the node.
      if (IsLiteralBool(*p, true)) return node->children()[0];
      return RelOp::Select(node->children()[0], std::move(p));
    }
    case RelOpKind::kThetaJoin: {
      if (node->predicate() == nullptr) return node;
      ExprPtr p = CanonTracked(node->predicate(), /*pred_ctx=*/true, stats);
      if (IsLiteralBool(*p, true)) p = nullptr;  // cross product
      return RelOp::ThetaJoin(node->children()[0], node->children()[1],
                              std::move(p));
    }
    case RelOpKind::kJoin: {
      if (node->predicate() == nullptr) return node;
      ExprPtr p = CanonTracked(node->predicate(), /*pred_ctx=*/true, stats);
      if (IsLiteralBool(*p, true)) p = nullptr;
      return RelOp::Join(node->children()[0], node->children()[1],
                         node->left_keys(), node->right_keys(), std::move(p));
    }
    case RelOpKind::kProject: {
      std::vector<ExprPtr> exprs;
      exprs.reserve(node->projections().size());
      for (const ExprPtr& p : node->projections()) {
        exprs.push_back(CanonTracked(p, /*pred_ctx=*/false, stats));
      }
      return RelOp::Project(node->children()[0], std::move(exprs),
                            node->schema()->fields());
    }
    case RelOpKind::kAggregate: {
      std::vector<AggSpec> aggs = node->aggs();
      for (AggSpec& a : aggs) {
        if (a.input != nullptr) {
          a.input = CanonTracked(a.input, /*pred_ctx=*/false, stats);
        }
      }
      return RelOp::Aggregate(node->children()[0], node->group_indexes(),
                              std::move(aggs));
    }
    default:
      return node;
  }
}

// ---- Rule: push selections down ----

Result<RelOpPtr> TryPushInto(const RelOpPtr& child, const ExprPtr& pred,
                             OptimizerStats* stats);

Result<RelOpPtr> PushDownOnce(RelOpPtr plan, OptimizerStats* stats,
                              bool* changed) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, PushDownOnce(c, stats, changed));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  if (node->kind() != RelOpKind::kSelect) return node;

  // Look through any inner selection chain: selections over the same schema
  // commute (canonical conjunct ordering can park a non-pushable join
  // equality below a pushable side predicate), so the push target is the
  // chain's base.
  std::vector<ExprPtr> inner_chain;
  RelOpPtr base = node->children()[0];
  while (base->kind() == RelOpKind::kSelect) {
    inner_chain.push_back(base->predicate());
    base = base->children()[0];
  }
  CQ_ASSIGN_OR_RETURN(RelOpPtr pushed,
                      TryPushInto(base, node->predicate(), stats));
  if (pushed == nullptr) return node;
  *changed = true;
  RelOpPtr acc = std::move(pushed);
  for (auto it = inner_chain.rbegin(); it != inner_chain.rend(); ++it) {
    CQ_ASSIGN_OR_RETURN(acc, RelOp::Select(acc, *it));
  }
  return acc;
}

// ---- Rule: separate conjunctive selections ----

Result<RelOpPtr> SeparateConjuncts(RelOpPtr plan) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, SeparateConjuncts(c));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  if (node->kind() != RelOpKind::kSelect) return node;
  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(node->predicate(), &conjuncts);
  if (conjuncts.size() <= 1) return node;
  RelOpPtr acc = node->children()[0];
  // Innermost applies the last conjunct; order preserved overall.
  for (auto it = conjuncts.rbegin(); it != conjuncts.rend(); ++it) {
    CQ_ASSIGN_OR_RETURN(acc, RelOp::Select(acc, *it));
  }
  return acc;
}

// ---- Rule: push selections down ----

/// Attempts to push `pred` into `child`. Returns the rebuilt child on
/// success, nullptr when `pred` cannot move through this operator kind.
Result<RelOpPtr> TryPushInto(const RelOpPtr& child, const ExprPtr& pred,
                             OptimizerStats* stats) {
  std::set<size_t> cols = ColumnsOf(*pred);
  switch (child->kind()) {
    case RelOpKind::kJoin:
    case RelOpKind::kThetaJoin: {
      size_t nl = child->children()[0]->schema()->num_fields();
      bool left_only = true, right_only = true;
      for (size_t c : cols) {
        if (c >= nl) left_only = false;
        if (c < nl) right_only = false;
      }
      if (left_only && !cols.empty()) {
        CQ_ASSIGN_OR_RETURN(RelOpPtr pushed,
                            RelOp::Select(child->children()[0], pred));
        if (stats) stats->selections_pushed++;
        return child->WithChildren({pushed, child->children()[1]});
      }
      if (right_only && !cols.empty()) {
        Result<ExprPtr> remapped = RemapColumns(
            pred, [nl](size_t idx) -> Result<size_t> { return idx - nl; });
        if (remapped.ok()) {
          CQ_ASSIGN_OR_RETURN(
              RelOpPtr pushed,
              RelOp::Select(child->children()[1], std::move(remapped).value()));
          if (stats) stats->selections_pushed++;
          return child->WithChildren({child->children()[0], pushed});
        }
      }
      return RelOpPtr(nullptr);
    }
    case RelOpKind::kUnion: {
      CQ_ASSIGN_OR_RETURN(RelOpPtr l,
                          RelOp::Select(child->children()[0], pred));
      CQ_ASSIGN_OR_RETURN(RelOpPtr r,
                          RelOp::Select(child->children()[1], pred));
      if (stats) stats->selections_pushed++;
      return child->WithChildren({l, r});
    }
    case RelOpKind::kExcept:
    case RelOpKind::kIntersect: {
      // Exact for bags: sigma(A - B) == sigma(A) - sigma(B) and
      // sigma(A ^ B) == sigma(A) ^ sigma(B) — multiplicities of a tuple t
      // pass or are zeroed on both sides together.
      CQ_ASSIGN_OR_RETURN(RelOpPtr l,
                          RelOp::Select(child->children()[0], pred));
      CQ_ASSIGN_OR_RETURN(RelOpPtr r,
                          RelOp::Select(child->children()[1], pred));
      if (stats) stats->selections_pushed++;
      return child->WithChildren({l, r});
    }
    case RelOpKind::kDistinct: {
      CQ_ASSIGN_OR_RETURN(RelOpPtr pushed,
                          RelOp::Select(child->children()[0], pred));
      if (stats) stats->selections_pushed++;
      return child->WithChildren({pushed});
    }
    case RelOpKind::kAggregate: {
      // Pushable when the predicate touches only group-key output columns:
      // filtering whole groups after aggregation equals filtering their
      // rows before it (a group survives iff its key passes).
      const auto& groups = child->group_indexes();
      bool keys_only = !cols.empty();
      for (size_t c : cols) keys_only = keys_only && c < groups.size();
      if (!keys_only) return RelOpPtr(nullptr);
      Result<ExprPtr> remapped = RemapColumns(
          pred, [&groups](size_t idx) -> Result<size_t> {
            return groups[idx];
          });
      if (!remapped.ok()) return RelOpPtr(nullptr);
      CQ_ASSIGN_OR_RETURN(
          RelOpPtr pushed,
          RelOp::Select(child->children()[0], std::move(remapped).value()));
      if (stats) stats->selections_pushed++;
      return child->WithChildren({pushed});
    }
    case RelOpKind::kProject: {
      // Pushable when every projection the predicate touches is a pure
      // column reference.
      const auto& projections = child->projections();
      Result<ExprPtr> remapped = RemapColumns(
          pred, [&projections](size_t idx) -> Result<size_t> {
            if (idx >= projections.size() ||
                projections[idx]->kind() != Expr::Kind::kColumn) {
              return Status::Unimplemented("projection is not a column");
            }
            return static_cast<const ColumnRef&>(*projections[idx]).index();
          });
      if (!remapped.ok()) return RelOpPtr(nullptr);
      CQ_ASSIGN_OR_RETURN(
          RelOpPtr pushed,
          RelOp::Select(child->children()[0], std::move(remapped).value()));
      if (stats) stats->selections_pushed++;
      return child->WithChildren({pushed});
    }
    default:
      return RelOpPtr(nullptr);
  }
}

// ---- Rule: extract hash equi-joins ----

bool IsJoinEquality(const Expr& e, size_t nl, size_t* left_col,
                    size_t* right_col) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& b = static_cast<const BinaryExpr&>(e);
  if (b.op() != BinaryOp::kEq) return false;
  if (b.left()->kind() != Expr::Kind::kColumn ||
      b.right()->kind() != Expr::Kind::kColumn) {
    return false;
  }
  size_t a = static_cast<const ColumnRef&>(*b.left()).index();
  size_t c = static_cast<const ColumnRef&>(*b.right()).index();
  if (a < nl && c >= nl) {
    *left_col = a;
    *right_col = c - nl;
    return true;
  }
  if (c < nl && a >= nl) {
    *left_col = c;
    *right_col = a - nl;
    return true;
  }
  return false;
}

Result<RelOpPtr> ExtractEquiJoins(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, ExtractEquiJoins(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));

  // Case A: a ThetaJoin whose own predicate contains equalities.
  if (node->kind() == RelOpKind::kThetaJoin && node->predicate() != nullptr) {
    size_t nl = node->children()[0]->schema()->num_fields();
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(node->predicate(), &conjuncts);
    std::vector<size_t> lk, rk;
    std::vector<ExprPtr> residual;
    for (const auto& c : conjuncts) {
      size_t l, r;
      if (IsJoinEquality(*c, nl, &l, &r)) {
        lk.push_back(l);
        rk.push_back(r);
      } else {
        residual.push_back(c);
      }
    }
    if (!lk.empty()) {
      ExprPtr res = residual.empty() ? nullptr : AndAll(residual);
      if (stats) stats->equi_joins_extracted++;
      return RelOp::Join(node->children()[0], node->children()[1],
                         std::move(lk), std::move(rk), std::move(res));
    }
    return node;
  }

  // Case B: a selection chain whose bottom sits directly above a cross
  // ThetaJoin — join equalities may be anywhere in the chain (pushdown may
  // be disabled), so the whole chain's conjuncts are inspected.
  if (node->kind() == RelOpKind::kSelect) {
    std::vector<ExprPtr> conjuncts;
    RelOpPtr cursor = node;
    while (cursor->kind() == RelOpKind::kSelect) {
      CollectConjuncts(cursor->predicate(), &conjuncts);
      cursor = cursor->children()[0];
    }
    if (cursor->kind() != RelOpKind::kThetaJoin) return node;
    RelOpPtr join = cursor;
    size_t nl = join->children()[0]->schema()->num_fields();
    std::vector<size_t> lk, rk;
    std::vector<ExprPtr> residual;
    if (join->predicate() != nullptr) residual.push_back(join->predicate());
    for (const auto& c : conjuncts) {
      size_t l, r;
      if (IsJoinEquality(*c, nl, &l, &r)) {
        lk.push_back(l);
        rk.push_back(r);
      } else {
        residual.push_back(c);
      }
    }
    if (!lk.empty()) {
      if (stats) stats->equi_joins_extracted++;
      CQ_ASSIGN_OR_RETURN(
          RelOpPtr out,
          RelOp::Join(join->children()[0], join->children()[1], std::move(lk),
                      std::move(rk), nullptr));
      // Non-equality conjuncts stay as selections above the new join.
      for (auto it = residual.rbegin(); it != residual.rend(); ++it) {
        CQ_ASSIGN_OR_RETURN(out, RelOp::Select(out, *it));
      }
      return out;
    }
    return node;
  }
  return node;
}

// ---- Rule: merge adjacent projections ----

Result<RelOpPtr> MergeProjections(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, MergeProjections(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  while (node->kind() == RelOpKind::kProject &&
         node->children()[0]->kind() == RelOpKind::kProject) {
    const RelOpPtr& inner = node->children()[0];
    std::vector<ExprPtr> merged;
    merged.reserve(node->projections().size());
    bool ok = true;
    for (const ExprPtr& p : node->projections()) {
      Result<ExprPtr> sub = SubstituteColumns(p, inner->projections());
      if (!sub.ok()) {
        ok = false;
        break;
      }
      merged.push_back(std::move(sub).value());
    }
    if (!ok) break;
    CQ_ASSIGN_OR_RETURN(node,
                        RelOp::Project(inner->children()[0], std::move(merged),
                                       node->schema()->fields()));
    if (stats) stats->projections_merged++;
  }
  return node;
}

// ---- Rule: choose hash-join inputs ----

/// Estimated fraction of base rows surviving a branch: the product of its
/// selection predicates' selectivities. Lower = smaller input.
double BranchWeight(const RelOpPtr& op) {
  double w = op->kind() == RelOpKind::kSelect
                 ? EstimateSelectivity(*op->predicate())
                 : 1.0;
  for (const auto& c : op->children()) w *= BranchWeight(c);
  return w;
}

Result<RelOpPtr> ChooseJoinInputs(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, ChooseJoinInputs(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  if (node->kind() != RelOpKind::kJoin) return node;

  const RelOpPtr& left = node->children()[0];
  const RelOpPtr& right = node->children()[1];
  // The more-selective (estimated smaller) side becomes the left/build
  // input; its index stays small and high-rate deltas from the big side
  // probe it.
  if (BranchWeight(right) >= BranchWeight(left)) return node;

  const size_t nl = left->schema()->num_fields();
  const size_t nr = right->schema()->num_fields();
  ExprPtr residual = node->predicate();
  if (residual != nullptr) {
    Result<ExprPtr> remapped = RemapColumns(
        residual, [nl, nr](size_t idx) -> Result<size_t> {
          return idx < nl ? idx + nr : idx - nl;
        });
    if (!remapped.ok()) return node;  // conservatively keep the orientation
    residual = std::move(remapped).value();
  }
  CQ_ASSIGN_OR_RETURN(RelOpPtr swapped,
                      RelOp::Join(right, left, node->right_keys(),
                                  node->left_keys(), std::move(residual)));
  // Compensating projection restores the original column order, so the
  // swap is invisible to everything downstream (bit-identical schema).
  std::vector<ExprPtr> exprs;
  exprs.reserve(nl + nr);
  for (size_t i = 0; i < nl + nr; ++i) {
    exprs.push_back(Col(i < nl ? nr + i : i - nl));
  }
  if (stats) stats->join_inputs_swapped++;
  return RelOp::Project(std::move(swapped), std::move(exprs),
                        node->schema()->fields());
}

// ---- Rule: redundancy elimination ----

Result<RelOpPtr> EliminateRedundancy(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, EliminateRedundancy(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));

  // Duplicate predicate in a selection chain: Select(p, Select(p, x)) ->
  // Select(p, x). Matched on printed form.
  if (node->kind() == RelOpKind::kSelect &&
      node->children()[0]->kind() == RelOpKind::kSelect) {
    if (node->predicate()->ToString() ==
        node->children()[0]->predicate()->ToString()) {
      if (stats) stats->predicates_deduped++;
      return node->children()[0];
    }
  }
  // Identity projection: Project(cols 0..n-1 in order, same arity).
  if (node->kind() == RelOpKind::kProject) {
    const auto& ps = node->projections();
    const auto& child = node->children()[0];
    bool identity = ps.size() == child->schema()->num_fields();
    for (size_t i = 0; identity && i < ps.size(); ++i) {
      identity = ps[i]->kind() == Expr::Kind::kColumn &&
                 static_cast<const ColumnRef&>(*ps[i]).index() == i;
    }
    // Only drop if names also match (otherwise the projection renames).
    if (identity && node->schema()->Equals(*child->schema())) {
      if (stats) stats->predicates_deduped++;
      return child;
    }
  }
  return node;
}

// ---- Rule: reorder selection chains by selectivity ----

Result<RelOpPtr> ReorderSelections(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, ReorderSelections(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  if (node->kind() != RelOpKind::kSelect) return node;

  // Gather the maximal selection chain.
  std::vector<ExprPtr> preds;
  RelOpPtr cursor = node;
  while (cursor->kind() == RelOpKind::kSelect) {
    preds.push_back(cursor->predicate());
    cursor = cursor->children()[0];
  }
  if (preds.size() <= 1) return node;
  // Sort by estimated clause weight; ties break on fingerprint text so
  // equal-weight chains land in one canonical order across queries.
  struct Keyed {
    ExprPtr pred;
    double weight;
    std::string fp;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(preds.size());
  for (const ExprPtr& p : preds) {
    keyed.push_back({p, EstimateSelectivity(*p), Fp(p)});
  }
  std::vector<Keyed> sorted = keyed;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.weight != b.weight) return a.weight < b.weight;
                     return a.fp < b.fp;
                   });
  // `keyed` lists the chain top-down (outermost first); the target order is
  // most-selective innermost, i.e. `sorted` reversed.
  bool same = true;
  for (size_t i = 0; i < keyed.size(); ++i) {
    same = same &&
           keyed[i].pred.get() == sorted[sorted.size() - 1 - i].pred.get();
  }
  if (same) return node;
  if (stats) stats->selections_reordered++;
  // Most selective evaluates first == innermost.
  RelOpPtr acc = cursor;
  for (auto it = sorted.begin(); it != sorted.end(); ++it) {
    CQ_ASSIGN_OR_RETURN(acc, RelOp::Select(acc, it->pred));
  }
  return acc;
}

// ---- Rule: fuse selection chains ----

Result<RelOpPtr> FuseSelections(RelOpPtr plan, OptimizerStats* stats) {
  std::vector<RelOpPtr> children;
  for (const auto& c : plan->children()) {
    CQ_ASSIGN_OR_RETURN(RelOpPtr nc, FuseSelections(c, stats));
    children.push_back(std::move(nc));
  }
  RelOpPtr node = plan->WithChildren(std::move(children));
  if (node->kind() != RelOpKind::kSelect ||
      node->children()[0]->kind() != RelOpKind::kSelect) {
    return node;
  }
  // Fuse the whole chain into one conjunction (outer first => leftmost, so
  // short-circuit order preserves the reordered sequence).
  std::vector<ExprPtr> preds;
  RelOpPtr cursor = node;
  while (cursor->kind() == RelOpKind::kSelect) {
    preds.push_back(cursor->predicate());
    cursor = cursor->children()[0];
  }
  // Innermost executes first: reverse so it leads the conjunction.
  std::reverse(preds.begin(), preds.end());
  if (stats) stats->selections_fused += preds.size() - 1;
  return RelOp::Select(cursor, AndAll(preds));
}

}  // namespace

double EstimateSelectivity(const Expr& predicate) {
  switch (predicate.kind()) {
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(predicate);
      bool has_literal = b.left()->kind() == Expr::Kind::kLiteral ||
                         b.right()->kind() == Expr::Kind::kLiteral;
      switch (b.op()) {
        case BinaryOp::kEq:
          return has_literal ? 0.05 : 0.15;
        case BinaryOp::kNe:
          return 0.9;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return 0.33;
        case BinaryOp::kAnd: {
          return EstimateSelectivity(*b.left()) *
                 EstimateSelectivity(*b.right());
        }
        case BinaryOp::kOr: {
          double l = EstimateSelectivity(*b.left());
          double r = EstimateSelectivity(*b.right());
          return l + r - l * r;
        }
        default:
          return 0.5;
      }
    }
    case Expr::Kind::kNot:
      return 1.0 - EstimateSelectivity(
                       *static_cast<const NotExpr&>(predicate).inner());
    case Expr::Kind::kIsNull:
      return 0.1;
    default:
      return 0.5;
  }
}

ExprPtr CanonicalizePredicate(const ExprPtr& expr, OptimizerStats* stats) {
  return CanonTracked(expr, /*pred_ctx=*/true, stats);
}

ExprPtr CanonicalizeValueExpr(const ExprPtr& expr, OptimizerStats* stats) {
  return CanonTracked(expr, /*pred_ctx=*/false, stats);
}

const std::vector<std::string>& OptimizerRuleNames() {
  static const std::vector<std::string> kNames = {
      "canonicalize", "separate", "pushdown",  "equijoin",   "redundancy",
      "reorder",      "fuse",     "mergeproj", "joininputs",
  };
  return kNames;
}

namespace {

Status ApplyRuleToken(OptimizerOptions* o, const std::string& name,
                      bool value) {
  if (name == "canonicalize") {
    o->canonicalize = value;
  } else if (name == "separate") {
    o->separate_conjuncts = value;
  } else if (name == "pushdown") {
    o->push_down_selections = value;
  } else if (name == "equijoin") {
    o->extract_equi_joins = value;
  } else if (name == "redundancy") {
    o->eliminate_redundancy = value;
  } else if (name == "reorder") {
    o->reorder_selections = value;
  } else if (name == "fuse") {
    o->fuse_selections = value;
  } else if (name == "mergeproj") {
    o->merge_projections = value;
  } else if (name == "joininputs") {
    o->choose_join_inputs = value;
  } else {
    return Status::InvalidArgument("unknown optimizer rule '" + name + "'");
  }
  return Status::OK();
}

void SetAllRules(OptimizerOptions* o, bool value) {
  for (const std::string& name : OptimizerRuleNames()) {
    (void)ApplyRuleToken(o, name, value);
  }
}

}  // namespace

Result<OptimizerOptions> OptimizerOptionsFromSpec(const std::string& spec) {
  OptimizerOptions options;  // defaults: everything on
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : spec) {
    if (c == ',') {
      tokens.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur += c;
    }
  }
  tokens.push_back(cur);
  bool first = true;
  for (const std::string& token : tokens) {
    if (token.empty()) continue;
    if (token == "all") {
      SetAllRules(&options, true);
    } else if (token == "none") {
      SetAllRules(&options, false);
    } else if (token[0] == '+' || token[0] == '-') {
      CQ_RETURN_NOT_OK(
          ApplyRuleToken(&options, token.substr(1), token[0] == '+'));
    } else {
      // A bare rule name as the first token is the each-rule-solo form:
      // start from all-off, enable the listed rules.
      if (first) SetAllRules(&options, false);
      CQ_RETURN_NOT_OK(ApplyRuleToken(&options, token, true));
    }
    first = false;
  }
  return options;
}

Result<RelOpPtr> OptimizePlan(RelOpPtr plan, const OptimizerOptions& options,
                              OptimizerStats* stats) {
  if (plan == nullptr) return Status::PlanError("no plan to optimise");
  if (options.canonicalize) {
    CQ_ASSIGN_OR_RETURN(plan, CanonicalizePlan(plan, stats));
  }
  if (options.separate_conjuncts) {
    CQ_ASSIGN_OR_RETURN(plan, SeparateConjuncts(plan));
  }
  if (options.push_down_selections) {
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 64) {
      changed = false;
      CQ_ASSIGN_OR_RETURN(plan, PushDownOnce(plan, stats, &changed));
    }
  }
  if (options.extract_equi_joins) {
    CQ_ASSIGN_OR_RETURN(plan, ExtractEquiJoins(plan, stats));
  }
  if (options.choose_join_inputs) {
    CQ_ASSIGN_OR_RETURN(plan, ChooseJoinInputs(plan, stats));
  }
  if (options.merge_projections) {
    CQ_ASSIGN_OR_RETURN(plan, MergeProjections(plan, stats));
  }
  if (options.eliminate_redundancy) {
    CQ_ASSIGN_OR_RETURN(plan, EliminateRedundancy(plan, stats));
  }
  if (options.reorder_selections) {
    CQ_ASSIGN_OR_RETURN(plan, ReorderSelections(plan, stats));
  }
  if (options.fuse_selections) {
    CQ_ASSIGN_OR_RETURN(plan, FuseSelections(plan, stats));
  }
  return plan;
}

}  // namespace cq
