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
///
/// The incremental side — `IncrementalPlanExecutor`, with `DeltaBuffer`
/// consolidating its input — maintains the result per delta batch. A
/// batch arrives as tuples or, for a one-slot Select/Project/Aggregate
/// plan, as typed columns (`ColumnarDeltaBuffer`, `ApplyColumnar`), which
/// are folded without building a tuple per input row; both forms yield
/// the same output delta and the same state bytes.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/time.h"
#include "cql/plan.h"
#include "cql/r2s.h"
#include "cql/s2r.h"
#include "relation/relation.h"
#include "stream/stream.h"
#include "types/column.h"

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

/// \brief The consolidation table of DeltaBuffer and ColumnarDeltaBuffer:
/// an open-addressing index from row hashes to row positions 0, 1, ... in
/// first-arrival order. The buffer owns the rows; the index only finds them.
class RowIndex {
 public:
  /// \brief The position of the row with hash `h` for which `equal(pos)`
  /// holds, or, when there is none, a new position (the old row count) that
  /// the caller must fill by appending the row.
  template <typename Equal>
  size_t FindOrAdd(uint64_t h, Equal equal) {
    if (2 * (hashes_.size() + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = MixU64(h) & mask;; i = (i + 1) & mask) {
      const uint32_t s = slots_[i];
      if (s == 0) {
        slots_[i] = static_cast<uint32_t>(hashes_.size() + 1);
        hashes_.push_back(h);
        return hashes_.size() - 1;
      }
      if (hashes_[s - 1] == h && equal(s - 1)) return s - 1;
    }
  }

  /// \brief Rows the table admits before it grows again.
  size_t capacity() const { return slots_.size() / 2; }

  /// \brief Forgets every row, keeping the table for the next batch unless
  /// this one was a rare spike.
  void Clear();

 private:
  void Rehash(size_t capacity);

  std::vector<uint64_t> hashes_;  // hash of row i
  std::vector<uint32_t> slots_;   // linear probing; 0 = empty, else i + 1
};

/// \brief A hashed Z-set accumulator that remembers first-arrival order.
///
/// Add() costs one hash probe, so a +1 and a -1 for the same tuple cancel
/// in place. Take() moves the net-nonzero rows out as a DeltaList in the
/// order their tuples first arrived — deterministic for a given input
/// order, independent of hash-table layout.
class DeltaBuffer {
 public:
  /// \brief Adds `weight` copies of `t` (weight may be negative).
  void Add(Tuple t, int64_t weight) {
    if (weight != 0) AddKeepingPosition(std::move(t), weight);
  }

  /// \brief Add, except that a zero weight still buffers `t` (at net
  /// weight 0), so `t` holds its first-arrival position — what moving the
  /// rows of another consolidated buffer in, one by one, needs.
  void AddKeepingPosition(Tuple t, int64_t weight);

  /// \brief Buffered rows with their net weights, zero weights included.
  const DeltaList& rows() const { return rows_; }

  /// \brief Moves out the rows with non-zero net weight and resets.
  DeltaList Take();

 private:
  DeltaList rows_;
  RowIndex index_;  // keyed by Tuple::Hash
};

/// \brief DeltaBuffer over typed columns: the same consolidation, with rows
/// hashed and compared straight from the columns they arrive in.
///
/// A row merges into a buffered row exactly when DeltaBuffer would merge
/// their tuples (equal Tuple::Hash, Value-equal columns), so the buffered
/// rows, their net weights and their first-arrival order are those a
/// DeltaBuffer holds for the same input. The buffer keeps one column per
/// tuple position, typed as the first run it took; only runs of exactly
/// those types can join.
class ColumnarDeltaBuffer {
 public:
  bool empty() const { return weights_.empty(); }
  size_t size() const { return weights_.size(); }

  /// \brief Whether rows of the first `arity` columns of `cols` can join:
  /// the buffer is empty, or has that arity and those column types.
  bool Accepts(const std::vector<Column>& cols, size_t arity) const;

  /// \brief Adds `weight` copies of row `i` of the first `arity` columns
  /// of `cols`. Precondition: Accepts(cols, arity).
  void Add(const std::vector<Column>& cols, size_t arity, size_t i,
           int64_t weight);

  /// \brief Buffered rows, one column per tuple position.
  const std::vector<Column>& columns() const { return columns_; }
  /// \brief Net weight of each buffered row, zero weights included.
  const std::vector<int64_t>& weights() const { return weights_; }

  /// \brief Buffered row `i` as a tuple.
  Tuple RowAt(size_t i) const {
    return TupleAt(columns_, columns_.size(), i);
  }

  /// \brief The rows with non-zero net weight, as tuples in arrival order.
  DeltaList NonZeroRows() const;

  /// \brief Empties the buffer, keeping its storage for the next batch
  /// (unless this one was a rare spike).
  void Clear();

 private:
  std::vector<Column> columns_;
  std::vector<int64_t> weights_;
  RowIndex index_;  // keyed by Tuple::Hash
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
///
/// A one-slot plan of Select/Project nodes over its Scan, with at most one
/// Aggregate among them, also takes its input delta as columns
/// (ApplyColumnar). Below the Aggregate (or through the whole chain) the
/// rows never become tuples: selections and projections run through
/// cql/vector_eval, group keys are hashed and compared in the columns, and
/// COUNT/SUM/AVG fold from the typed values. A group whose output row
/// comes out unchanged emits nothing and builds no row — the -old/+new pair
/// the tuple path builds for it cancels in the consolidation anyway. The
/// output rows and every byte of state match Apply on the same deltas.
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

  /// \brief Whether the plan has the shape ApplyColumnar folds: a one-slot
  /// Select/Project chain with at most one Aggregate.
  bool HasColumnarShape() const { return columnar_.covered; }

  /// \brief Whether ApplyColumnar covers this plan for input columns of
  /// types `types`: a one-slot Select/Project chain with at most one
  /// Aggregate, whose expressions below the Aggregate vectorize (and cannot
  /// fail) over those types, and whose SUM/AVG inputs are numeric. The
  /// verdict for the last types seen is kept, as batches mostly repeat them.
  bool CanApplyColumnar(std::span<const ValueType> types) const;

  /// \brief Apply for the one slot's delta given as columns: row i of
  /// `cols` with weight `weights[i]`, rows in first-arrival order, weights
  /// net per distinct row (zero weights are skipped) — the image of a
  /// DeltaBuffer. Same result and same state as Apply on those rows.
  /// Precondition: CanApplyColumnar on the types of `cols`.
  Result<DeltaList> ApplyColumnar(const std::vector<Column>& cols,
                                  const std::vector<int64_t>& weights);

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
  /// A group key as row `row` of columns, with its precomputed
  /// Tuple::Hash.
  struct ColumnKeyOf {
    const std::vector<Column>* cols;
    const std::vector<size_t>* indexes;
    size_t row;
    uint64_t hash;
    bool Equals(const Tuple& key) const;
  };
  struct GroupKeyHash {
    using is_transparent = void;
    size_t operator()(const Tuple& key) const { return key.Hash(); }
    size_t operator()(const KeyOf& k) const {
      return k.t->ProjectedHash(*k.indexes);
    }
    size_t operator()(const ColumnKeyOf& k) const { return k.hash; }
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
    bool operator()(const ColumnKeyOf& a, const Tuple& b) const {
      return a.Equals(b);
    }
    bool operator()(const Tuple& a, const ColumnKeyOf& b) const {
      return b.Equals(a);
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

  /// The plan as ApplyColumnar sees it; `covered` false when it is not a
  /// one-slot Select/Project chain with at most one Aggregate.
  struct ColumnarShape {
    bool covered = false;
    std::vector<const RelOp*> upper;  // above the Aggregate, root first
    const RelOp* aggregate = nullptr;
    std::vector<const RelOp*> lower;  // below it (or the chain), root first
  };
  bool CheckColumnarTypes(std::vector<ValueType> types) const;

  Result<DeltaList> Propagate(const RelOp* op, Batch* batch);
  /// Select / Project over a delta list of tuples, in place.
  Status ApplyLinear(const RelOp* op, DeltaList* delta) const;
  /// The one consolidation and sort of a batch's output delta.
  DeltaList Finish(DeltaList delta);
  Result<DeltaList> DeltaJoin(const RelOp* op, const DeltaList& dl,
                              const DeltaList& dr);
  Result<DeltaList> DeltaThetaJoin(const RelOp* op, const DeltaList& dl,
                                   const DeltaList& dr);
  Result<DeltaList> DeltaAggregate(const RelOp* op, const DeltaList& dc);
  /// DeltaAggregate over rows of `cols` with `keep` set, weighted by
  /// `weights`, in row order.
  DeltaList DeltaAggregateColumns(const RelOp* op,
                                  const std::vector<Column>& cols,
                                  const std::vector<int64_t>& weights,
                                  const std::vector<uint8_t>& keep);
  Tuple GroupRow(const RelOp* op, const Tuple& key,
                 const GroupState& g) const;
  /// Aggregate `i`'s output value for group state `g`.
  static Value AggOutput(AggregateKind kind, const GroupState& g, size_t i);
  /// Whether GroupRow(op, key, g) would equal g.row bit for bit.
  static bool RowUnchanged(const RelOp* op, const GroupState& g);

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
  ColumnarShape columnar_;
  /// CanApplyColumnar's last verdict and the types it was given.
  mutable bool checked_ = false;
  mutable std::vector<ValueType> checked_types_;
  mutable bool checked_ok_ = false;
  /// ApplyColumnar's working vectors, kept to reuse their storage.
  struct ColumnarScratch {
    std::vector<uint8_t> keep;
    std::vector<Column> projected;
    std::vector<Column> computed;
    std::vector<const Column*> inputs;
    std::vector<uint64_t> key_hash;
    std::vector<std::pair<const Tuple, GroupState>*> touched;
  };
  ColumnarScratch scratch_;
};

}  // namespace cq

#endif  // CQ_CQL_CONTINUOUS_QUERY_H_
