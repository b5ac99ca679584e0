#ifndef CQ_SQL_OPTIMIZER_H_
#define CQ_SQL_OPTIMIZER_H_

/// \file optimizer.h
/// \brief Static plan optimisations from the streaming-systems catalogue
/// (paper §4.2, Hirzel et al. [49]).
///
/// Rules, each independently switchable so bench E7 can ablate them and the
/// CI plan-optimizer lane can sweep them (see OptimizerOptionsFromSpec):
///  - canonicalization: constant folding, NOT-pushdown (De Morgan,
///    comparison negation, IS NULL flips), commutative-operand ordering,
///    conjunct flattening/sorting/dedup, and column display-name
///    normalization — so semantically-equal predicates render identical
///    fingerprint text (sql/fingerprint.h) and shared-subplan lookups hit;
///  - separation: split conjunctive selections into chains;
///  - operator reordering: push selections below joins/unions/projects/
///    aggregates/distinct/set-ops and order selection chains
///    most-selective-first;
///  - redundancy elimination: drop duplicate predicates and identity
///    projections;
///  - equi-join extraction: turn cross-product + equality predicates into
///    hash equi-joins (the special case of reordering that matters most);
///  - projection merge: collapse adjacent Project nodes by substitution;
///  - join-input selection: put the estimated more-selective (smaller)
///    input on the build side of a hash join, with a compensating
///    projection restoring the original column order;
///  - fusion: merge adjacent selections back into single operators to cut
///    per-operator overhead after placement.
///
/// Canonicalization contract: every rewrite preserves the relation the
/// plan computes at every instant under the engine's collapsed three-valued
/// semantics (predicates treat NULL as false). Two caveats are deliberate
/// and documented: (1) OR operands are never reordered — this engine
/// NULL-poisons on the *first* operand, so `NULL OR TRUE` is NULL while
/// `TRUE OR NULL` is TRUE; (2) reordering AND conjuncts (like the existing
/// selection reordering) may change *which* evaluation error surfaces for
/// ill-typed data, never the output of a well-typed query.

#include <string>
#include <vector>

#include "common/status.h"
#include "cql/plan.h"

namespace cq {

struct OptimizerOptions {
  bool canonicalize = true;
  bool separate_conjuncts = true;
  bool push_down_selections = true;
  bool extract_equi_joins = true;
  bool eliminate_redundancy = true;
  bool reorder_selections = true;
  bool fuse_selections = true;
  bool merge_projections = true;
  bool choose_join_inputs = true;
};

struct OptimizerStats {
  size_t exprs_canonicalized = 0;
  size_t constants_folded = 0;
  size_t selections_pushed = 0;
  size_t equi_joins_extracted = 0;
  size_t predicates_deduped = 0;
  size_t selections_fused = 0;
  size_t selections_reordered = 0;
  size_t projections_merged = 0;
  size_t join_inputs_swapped = 0;
};

/// \brief Rewrites the plan; the result computes the same relation at every
/// instant (all rules are semantics-preserving for bag semantics).
Result<RelOpPtr> OptimizePlan(RelOpPtr plan, const OptimizerOptions& options,
                              OptimizerStats* stats = nullptr);

/// \brief Estimated selectivity of a predicate in [0, 1] (lower = more
/// selective); the heuristic cost model behind selection reordering.
double EstimateSelectivity(const Expr& predicate);

/// \brief Canonical form of a predicate-context expression (NULL collapses
/// to false downstream). Deterministic: semantically-equal predicates map
/// to expressions with identical fingerprint text. Exposed for fingerprint
/// tooling and tests; OptimizePlan applies it to every predicate position.
ExprPtr CanonicalizePredicate(const ExprPtr& expr,
                              OptimizerStats* stats = nullptr);

/// \brief Canonical form of a value-context expression (projections,
/// aggregate inputs): constant folding, exact NOT rewrites, commutative
/// ordering of `*`/`=`/`<>` operands, and column-name normalization only —
/// no AND sorting, which is observable where NULL is a value.
ExprPtr CanonicalizeValueExpr(const ExprPtr& expr,
                              OptimizerStats* stats = nullptr);

// --- Kill-switch sweeps (CI plan-optimizer lane, bench ablations) ---

/// \brief Stable names of the switchable rules, in pipeline order:
/// canonicalize, separate, pushdown, equijoin, redundancy, reorder, fuse,
/// mergeproj, joininputs.
const std::vector<std::string>& OptimizerRuleNames();

/// \brief Parses a rule spec into options. Grammar: comma-separated tokens;
/// "all" / "none" reset every switch; a bare rule name as the first token
/// starts from all-off and enables the listed rules (each-rule-solo form);
/// "+name" / "-name" toggle individual rules from the current state.
/// Examples: "all", "none", "canonicalize", "all,-fuse", "none,+pushdown".
/// Unknown names error.
Result<OptimizerOptions> OptimizerOptionsFromSpec(const std::string& spec);

}  // namespace cq

#endif  // CQ_SQL_OPTIMIZER_H_
