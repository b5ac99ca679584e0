#ifndef CQ_CQL_CONTINUOUS_QUERY_H_
#define CQ_CQL_CONTINUOUS_QUERY_H_

/// \file continuous_query.h
/// \brief Composed continuous queries and their semantics (paper §2, §3.1).
///
/// A continuous query is an S2R layer (one window per input stream), an R2R
/// plan, and an optional R2S operator. Two result definitions from the
/// survey are implemented:
///
///  - CQL / Arasu et al. (Definition 2.3): the result at tau is obtained by
///    recursively applying the operators to the streams up to tau —
///    `ReferenceExecutor` realises this literally, re-evaluating the plan at
///    every instant. It is the engine's executable specification.
///  - Babcock/Sellis union semantics: the result at tau_i is the *union* of
///    one-time query results over successive stream contents. Equal to the
///    CQL result exactly for monotonic queries (Barbara et al.) —
///    `BabcockSellisResult` lets tests and benches exhibit both sides.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "cql/plan.h"
#include "cql/r2s.h"
#include "cql/s2r.h"
#include "relation/relation.h"
#include "stream/stream.h"

namespace cq {

/// \brief A full continuous query: input windows, R2R plan, R2S output.
struct ContinuousQuery {
  /// One window spec per input slot (index-aligned with Scan nodes).
  std::vector<S2RSpec> input_windows;
  RelOpPtr plan;
  R2SKind output = R2SKind::kIStream;

  std::string ToString() const;
};

/// \brief Reference executor: Definition 2.3 made executable.
///
/// Evaluates the query at a set of instants by re-running the full plan over
/// the windowed inputs at each instant. O(ticks x history); exists as the
/// semantics oracle that every optimised evaluator is tested against, and as
/// the re-execution baseline of bench E1/F1.
class ReferenceExecutor {
 public:
  /// \brief Instants at which any input window can change, up to the largest
  /// record timestamp across inputs (plus window expirations).
  static std::vector<Timestamp> DefaultTicks(
      const ContinuousQuery& query,
      const std::vector<const BoundedStream*>& inputs);

  /// \brief Materialises the result time-varying relation (the R2R/S2R
  /// topmost case of CQL's result definition).
  static Result<TimeVaryingRelation> MaterializeRelation(
      const ContinuousQuery& query,
      const std::vector<const BoundedStream*>& inputs,
      const std::vector<Timestamp>& ticks);

  /// \brief Executes with the query's R2S operator, producing the output
  /// stream observed at `ticks` (the R2S topmost case).
  static Result<BoundedStream> Execute(
      const ContinuousQuery& query,
      const std::vector<const BoundedStream*>& inputs,
      const std::vector<Timestamp>& ticks);

  /// \brief The instantaneous result relation at a single instant.
  static Result<MultisetRelation> ResultAt(
      const ContinuousQuery& query,
      const std::vector<const BoundedStream*>& inputs, Timestamp tau);
};

/// \brief Babcock/Sellis continuous semantics: the union, over all ticks
/// tau <= tau_i, of the one-time query over the stream content accumulated
/// up to tau (set semantics). Ignores the query's window specs — the
/// formulation predates windows and reads whole stream prefixes.
Result<MultisetRelation> BabcockSellisResult(
    const RelOpPtr& plan, const std::vector<const BoundedStream*>& inputs,
    const std::vector<Timestamp>& ticks, Timestamp tau_i);

/// \brief A flat weighted delta: (tuple, weight) pairs in no particular
/// order. A tuple may appear more than once; its net weight is the sum. This
/// is how deltas travel between plan nodes — linear operators (Select,
/// Project, Union) never need net counts, so they never pay to consolidate.
using DeltaList = std::vector<std::pair<Tuple, int64_t>>;

/// \brief A hashed Z-set accumulator that remembers first-arrival order.
///
/// Add() costs one hash probe, so a +1 and a -1 for the same tuple cancel
/// in place. Take() moves the net-nonzero rows out as a DeltaList in the
/// order their tuples first arrived — deterministic for a given input
/// order, independent of hash-table layout.
class DeltaBuffer {
 public:
  /// \brief Adds `weight` copies of `t` (weight may be negative).
  void Add(Tuple t, int64_t weight);

  /// \brief Buffered rows with their net weights, zero weights included.
  const DeltaList& rows() const { return rows_; }

  /// \brief Moves out the rows with non-zero net weight and resets.
  DeltaList Take();

 private:
  void Rehash(size_t capacity);

  DeltaList rows_;
  std::vector<uint64_t> hashes_;  // Tuple::Hash of rows_[i]
  std::vector<uint32_t> slots_;   // linear probing; 0 = empty, else i + 1
};

/// \brief Incremental delta executor (Barbara et al.'s rewriting, §3.2, and
/// the kernel of IVM, §5.1 — DBToaster-style delta processing).
///
/// On a batch of input deltas, propagates exact output deltas through the
/// plan with per-update cost proportional to the data the update touches.
/// Deltas travel between nodes as flat DeltaLists; only nodes whose rule
/// needs net per-tuple counts consolidate them, through a hash map:
///
///  - Scan: moves its slot's batch; when several Scans read one slot (a
///    self-join), all but the last copy it;
///  - Select / Project / Union: linearity — filter in place, rewrite in
///    place, concatenate;
///  - Join (equi): bilinearity dJ = dL >< R + L' >< dR, realised with
///    maintained per-side hash indexes keyed by the join key, so each delta
///    tuple probes only its matching partners;
///  - ThetaJoin: bilinear expansion against the accumulated sides (no index
///    can help an arbitrary predicate);
///  - Aggregate: maintained per-group state in a hash map — running
///    count/sum for COUNT/SUM/AVG (retraction by arithmetic), ordered value
///    multisets for MIN/MAX (retraction by multiset removal); emits
///    -old_row / +new_row;
///  - Distinct / Except / Intersect: per-affected-tuple multiplicity logic
///    from the consolidated delta and the maintained child counts.
///
/// The plan's output delta is consolidated once per batch and sorted by
/// tuple, so callers see the same rows in the same order as an ordered
/// Z-set would give them.
class IncrementalPlanExecutor {
 public:
  /// \brief `maintain_output` keeps the accumulated output
  /// (current_output()) up to date; a caller that only consumes deltas
  /// passes false and skips that work.
  IncrementalPlanExecutor(RelOpPtr plan, size_t num_inputs,
                          bool maintain_output = true);

  /// \brief Applies one batch of input deltas (slot-aligned); returns the
  /// exact delta of the plan's output.
  Result<MultisetRelation> ApplyDeltas(
      const std::vector<MultisetRelation>& input_deltas);

  /// \brief Applies one batch of slot-aligned input deltas, consuming
  /// them. Returns the output delta consolidated: each tuple once, non-zero
  /// weight, ascending tuple order.
  Result<DeltaList> Apply(std::vector<DeltaList> input_deltas);

  /// \brief Accumulated output after all deltas applied so far (empty when
  /// constructed with maintain_output = false).
  const MultisetRelation& current_output() const { return output_; }

  /// \brief Total distinct tuples cached across plan nodes (state size).
  size_t StateSize() const;

  /// \brief Serializes every piece of maintained state — accumulated
  /// output, node caches, join indexes, aggregation groups — as
  /// deterministic bytes: hashed containers are sorted as they are
  /// encoded. Node-keyed maps are keyed by the node's preorder index in the
  /// plan tree, so a structurally identical plan (e.g. the same SQL
  /// replanned after a restart) restores byte-for-byte.
  Result<std::string> SnapshotState() const;

  /// \brief Restores state captured by SnapshotState into this executor,
  /// which must have been constructed over a plan with the same tree shape
  /// (preorder node count is verified). Replaces all current state.
  Status RestoreState(std::string_view snapshot);

 private:
  /// A consolidated Z-set keyed by tuple (zero weights erased).
  using ZSetMap = std::unordered_map<Tuple, int64_t>;

  /// Per-side hash index for equi-join nodes: join key -> matching tuples.
  struct JoinIndex {
    std::unordered_map<Tuple, std::map<Tuple, int64_t>> left;
    std::unordered_map<Tuple, std::map<Tuple, int64_t>> right;
  };

  /// Maintained state of one aggregation group.
  struct GroupState {
    int64_t rows = 0;  // sum of input-row multiplicities in the group
    /// Running state per aggregate (count/sum interpretation by kind).
    std::vector<AggState> running;
    /// Ordered value multisets for MIN/MAX aggregates (empty for others).
    std::vector<std::map<Value, int64_t>> ordered;
    bool has_row = false;  // an output row is currently materialised
    bool touched = false;  // changed by the batch in progress
    Tuple row;             // the materialised output row
  };
  /// A group key as the delta tuple it comes from: `t.Project(*indexes)`,
  /// looked up without building it.
  struct KeyOf {
    const Tuple* t;
    const std::vector<size_t>* indexes;
  };
  struct GroupKeyHash {
    using is_transparent = void;
    size_t operator()(const Tuple& key) const { return key.Hash(); }
    size_t operator()(const KeyOf& k) const {
      return k.t->ProjectedHash(*k.indexes);
    }
  };
  struct GroupKeyEq {
    using is_transparent = void;
    bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
    bool operator()(const KeyOf& a, const Tuple& b) const {
      return a.t->ProjectionEquals(*a.indexes, b);
    }
    bool operator()(const Tuple& a, const KeyOf& b) const {
      return b.t->ProjectionEquals(*b.indexes, a);
    }
  };
  using GroupMap =
      std::unordered_map<Tuple, GroupState, GroupKeyHash, GroupKeyEq>;
  struct AggIndex {
    GroupMap groups;
  };

  /// Per-batch scan bookkeeping: the slot deltas and how many Scan nodes
  /// of each slot are still to read it (the last one moves it).
  struct Batch {
    std::vector<DeltaList> inputs;
    std::vector<size_t> readers_left;
  };

  Result<DeltaList> Propagate(const RelOp* op, Batch* batch);
  Result<DeltaList> DeltaJoin(const RelOp* op, const DeltaList& dl,
                              const DeltaList& dr);
  Result<DeltaList> DeltaThetaJoin(const RelOp* op, const DeltaList& dl,
                                   const DeltaList& dr);
  Result<DeltaList> DeltaAggregate(const RelOp* op, const DeltaList& dc);
  Tuple GroupRow(const RelOp* op, const Tuple& key,
                 const GroupState& g) const;

  RelOpPtr plan_;
  size_t num_inputs_;
  bool maintain_output_;
  /// Scan nodes reading each slot (a slot read twice is copied once).
  std::vector<size_t> scan_readers_;
  MultisetRelation output_;
  /// Consolidates each batch's output delta (kept to reuse its table).
  DeltaBuffer net_;
  // Node-keyed state; std::map keeps references stable across inserts.
  std::map<const RelOp*, ZSetMap> cache_;
  std::map<const RelOp*, JoinIndex> join_indexes_;
  std::map<const RelOp*, AggIndex> agg_indexes_;
  /// Nodes whose accumulated output is actually consumed by a parent rule.
  std::set<const RelOp*> cached_nodes_;
};

}  // namespace cq

#endif  // CQ_CQL_CONTINUOUS_QUERY_H_
