#ifndef CQ_CEP_PATTERN_H_
#define CQ_CEP_PATTERN_H_

/// \file pattern.h
/// \brief Complex event recognition over streams (paper §6, [37]).
///
/// The survey positions CER as "a form of continuous querying" realised on
/// top of streaming systems. This module implements the core: sequence
/// patterns SEQ(s1, s2, ..., sn) WITHIN w over keyed streams, evaluated by
/// an NFA whose partial matches ("runs") live in per-key state, under the
/// selection policies of the CER literature:
///
///  - kStrictContiguity: the very next event of the key must match the next
///    step, or the run dies;
///  - kSkipTillNext: non-matching events are skipped; a matching event
///    advances the run (no branching);
///  - kSkipTillAny: every matching event forks the run — all combinations
///    are found.
///
/// Runs expire when event time passes start + within (enforced on watermark
/// in the operator, or explicitly via ExpireBefore).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cql/expr.h"
#include "dataflow/operator.h"

namespace cq {

/// \brief One step of a sequence pattern.
struct CepStep {
  /// Step label (used in diagnostics and match rendering).
  std::string name;
  /// Predicate over the event tuple.
  ExprPtr predicate;
};

enum class ContiguityPolicy {
  kStrictContiguity,
  kSkipTillNext,
  kSkipTillAny,
};

const char* ContiguityPolicyToString(ContiguityPolicy policy);

/// \brief A sequence pattern: SEQ(steps...) WITHIN within, per key.
struct CepPattern {
  std::vector<CepStep> steps;
  Duration within = 0;  // 0 = unbounded
  /// Partition columns; empty = one global sequence.
  std::vector<size_t> key_indexes;
  ContiguityPolicy policy = ContiguityPolicy::kSkipTillNext;
};

/// \brief A completed match.
struct CepMatch {
  Tuple key;
  /// The matched event per step, in step order.
  std::vector<Tuple> events;
  Timestamp start = 0;  // timestamp of the first matched event
  Timestamp end = 0;    // timestamp of the last matched event
};

/// \brief The NFA runtime for one pattern (all keys).
class PatternMatcher {
 public:
  explicit PatternMatcher(CepPattern pattern);

  /// \brief Feeds one event (assumed key-ordered per key by event time);
  /// returns the matches it completes.
  Result<std::vector<CepMatch>> Advance(const Tuple& event, Timestamp ts);

  /// \brief Drops partial runs that can no longer complete (their window
  /// start + within < cutoff).
  void ExpireBefore(Timestamp cutoff);

  /// \brief Live partial runs across all keys.
  size_t PartialRuns() const;

  const CepPattern& pattern() const { return pattern_; }

 private:
  struct Run {
    size_t next_step;  // index of the step awaited
    std::vector<Tuple> events;
    Timestamp start;
  };

  CepPattern pattern_;
  std::map<Tuple, std::vector<Run>> runs_;  // key -> active runs
};

/// \brief Dataflow operator: recognises the pattern per key, emits one
/// record per match with schema (key columns..., start, end) at the match's
/// end timestamp, and prunes expired runs on watermarks.
class CepOperator : public Operator {
 public:
  CepOperator(std::string name, CepPattern pattern)
      : Operator(std::move(name)), matcher_(std::move(pattern)) {}

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;
  Status OnWatermark(Timestamp watermark, const OperatorContext& ctx,
                     Collector* out) override;

  size_t StateSize() const override { return matcher_.PartialRuns(); }
  uint64_t matches() const { return matches_; }

 private:
  PatternMatcher matcher_;
  uint64_t matches_ = 0;
};

}  // namespace cq

#endif  // CQ_CEP_PATTERN_H_
