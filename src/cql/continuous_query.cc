#include "cql/continuous_query.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>

#include "cql/vector_eval.h"
#include "types/serde.h"

namespace cq {

std::string ContinuousQuery::ToString() const {
  std::string out = "ContinuousQuery{windows=[";
  for (size_t i = 0; i < input_windows.size(); ++i) {
    if (i) out += ", ";
    out += input_windows[i].ToString();
  }
  out += "], output=";
  out += R2SKindToString(output);
  out += "}\n";
  if (plan) out += plan->ToString(1);
  return out;
}

std::vector<Timestamp> ReferenceExecutor::DefaultTicks(
    const ContinuousQuery& query,
    const std::vector<const BoundedStream*>& inputs) {
  Timestamp horizon = kMinTimestamp;
  for (const auto* s : inputs) {
    horizon = std::max(horizon, s->MaxTimestamp());
  }
  std::set<Timestamp> ticks;
  for (size_t i = 0; i < inputs.size() && i < query.input_windows.size();
       ++i) {
    for (Timestamp t :
         ChangeInstants(*inputs[i], query.input_windows[i], horizon)) {
      ticks.insert(t);
    }
  }
  return {ticks.begin(), ticks.end()};
}

Result<MultisetRelation> ReferenceExecutor::ResultAt(
    const ContinuousQuery& query,
    const std::vector<const BoundedStream*>& inputs, Timestamp tau) {
  if (query.plan == nullptr) return Status::PlanError("query has no plan");
  if (inputs.size() != query.input_windows.size()) {
    return Status::PlanError("input stream count does not match window specs");
  }
  std::vector<MultisetRelation> windowed;
  windowed.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    CQ_ASSIGN_OR_RETURN(MultisetRelation w,
                        ApplyS2R(*inputs[i], query.input_windows[i], tau));
    windowed.push_back(std::move(w));
  }
  return query.plan->Eval(windowed);
}

Result<TimeVaryingRelation> ReferenceExecutor::MaterializeRelation(
    const ContinuousQuery& query,
    const std::vector<const BoundedStream*>& inputs,
    const std::vector<Timestamp>& ticks) {
  TimeVaryingRelation out;
  MultisetRelation previous;
  for (Timestamp tau : ticks) {
    CQ_ASSIGN_OR_RETURN(MultisetRelation current,
                        ResultAt(query, inputs, tau));
    out.ApplyDelta(tau, current.Minus(previous));
    previous = std::move(current);
  }
  return out;
}

Result<BoundedStream> ReferenceExecutor::Execute(
    const ContinuousQuery& query,
    const std::vector<const BoundedStream*>& inputs,
    const std::vector<Timestamp>& ticks) {
  BoundedStream out;
  MultisetRelation previous;
  for (Timestamp tau : ticks) {
    CQ_ASSIGN_OR_RETURN(MultisetRelation current,
                        ResultAt(query, inputs, tau));
    for (auto& e : R2SStep(previous, current, query.output, tau)) {
      out.Append(std::move(e));
    }
    previous = std::move(current);
  }
  return out;
}

Result<MultisetRelation> BabcockSellisResult(
    const RelOpPtr& plan, const std::vector<const BoundedStream*>& inputs,
    const std::vector<Timestamp>& ticks, Timestamp tau_i) {
  MultisetRelation acc;
  for (Timestamp tau : ticks) {
    if (tau > tau_i) break;
    std::vector<MultisetRelation> prefix;
    prefix.reserve(inputs.size());
    for (const auto* s : inputs) {
      MultisetRelation r;
      for (const auto& e : *s) {
        if (e.is_record() && e.timestamp <= tau) r.Add(e.tuple, 1);
      }
      prefix.push_back(std::move(r));
    }
    CQ_ASSIGN_OR_RETURN(MultisetRelation result, plan->Eval(prefix));
    // Set-union accumulation.
    acc = UnionOp(acc, result).Distinct();
  }
  return acc;
}

// --- RowIndex, DeltaBuffer, ColumnarDeltaBuffer ---

void RowIndex::Rehash(size_t capacity) {
  hashes_.reserve(capacity / 2);
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t r = 0; r < hashes_.size(); ++r) {
    size_t i = MixU64(hashes_[r]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(r + 1);
  }
}

void RowIndex::Clear() {
  const size_t distinct = hashes_.size();
  hashes_.clear();
  if (slots_.size() > 8 * std::max<size_t>(distinct, 16)) {
    slots_.clear();
  } else {
    std::fill(slots_.begin(), slots_.end(), 0u);
  }
}

void DeltaBuffer::AddKeepingPosition(Tuple t, int64_t weight) {
  const size_t r = index_.FindOrAdd(
      t.Hash(), [&](size_t i) { return rows_[i].first == t; });
  if (r == rows_.size()) {
    rows_.emplace_back(std::move(t), weight);
  } else {
    rows_[r].second += weight;
  }
}

DeltaList DeltaBuffer::Take() {
  DeltaList out = std::move(rows_);
  rows_.clear();
  index_.Clear();
  rows_.reserve(index_.capacity());
  std::erase_if(out, [](const auto& row) { return row.second == 0; });
  return out;
}

bool ColumnarDeltaBuffer::Accepts(const std::vector<Column>& cols,
                                  size_t arity) const {
  if (weights_.empty()) return true;
  if (columns_.size() != arity || cols.size() < arity) return false;
  for (size_t c = 0; c < arity; ++c) {
    if (columns_[c].type() != cols[c].type()) return false;
  }
  return true;
}

void ColumnarDeltaBuffer::Add(const std::vector<Column>& cols, size_t arity,
                              size_t i, int64_t weight) {
  if (weight == 0) return;
  if (weights_.empty()) {
    // The buffer takes the run's column types, NULL-only columns included.
    columns_.resize(arity);
    for (size_t c = 0; c < arity; ++c) columns_[c].Clear(cols[c].type());
  }
  size_t h = Tuple::kHashSeed;
  for (size_t c = 0; c < arity; ++c) h = HashCombine(h, cols[c].HashAt(i));
  const size_t r = index_.FindOrAdd(h, [&](size_t row) {
    for (size_t c = 0; c < arity; ++c) {
      if (columns_[c].CompareAt(row, cols[c], i) != 0) return false;
    }
    return true;
  });
  if (r == weights_.size()) {
    for (size_t c = 0; c < arity; ++c) columns_[c].AppendFrom(cols[c], i);
    weights_.push_back(weight);
  } else {
    weights_[r] += weight;
  }
}

DeltaList ColumnarDeltaBuffer::NonZeroRows() const {
  DeltaList out;
  for (size_t i = 0; i < weights_.size(); ++i) {
    if (weights_[i] != 0) out.emplace_back(RowAt(i), weights_[i]);
  }
  return out;
}

void ColumnarDeltaBuffer::Clear() {
  for (Column& c : columns_) c.Clear();
  weights_.clear();
  index_.Clear();
}

namespace {

/// Marks plan nodes whose accumulated output the delta rules actually read:
/// children of ThetaJoin (bilinear expansion), Distinct, Except, Intersect
/// (multiplicity lookups). Other nodes never materialise their output.
void MarkCachedNodes(const RelOp* op, std::set<const RelOp*>* cached) {
  switch (op->kind()) {
    case RelOpKind::kThetaJoin:
    case RelOpKind::kDistinct:
    case RelOpKind::kExcept:
    case RelOpKind::kIntersect:
      for (const auto& c : op->children()) cached->insert(c.get());
      break;
    default:
      break;
  }
  for (const auto& c : op->children()) MarkCachedNodes(c.get(), cached);
}

/// Counts the Scan nodes reading each input slot.
void CountScans(const RelOp* op, std::vector<size_t>* readers) {
  if (op->kind() == RelOpKind::kScan && op->input_index() < readers->size()) {
    ++(*readers)[op->input_index()];
  }
  for (const auto& c : op->children()) CountScans(c.get(), readers);
}

int64_t CountIn(const std::unordered_map<Tuple, int64_t>& zset,
                const Tuple& t) {
  auto it = zset.find(t);
  return it == zset.end() ? 0 : it->second;
}

void AddTo(std::unordered_map<Tuple, int64_t>* zset, const Tuple& t,
           int64_t weight) {
  auto [it, inserted] = zset->try_emplace(t, 0);
  it->second += weight;
  if (it->second == 0) zset->erase(it);
}

/// A projection whose output column i is its child's column i: it only
/// renames columns, so its delta is its child's delta.
bool RenamesOnly(const RelOp& project) {
  const auto& exprs = project.projections();
  if (exprs.size() != project.children()[0]->schema()->num_fields()) {
    return false;
  }
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i]->kind() != Expr::Kind::kColumn ||
        static_cast<const ColumnRef&>(*exprs[i]).index() != i) {
      return false;
    }
  }
  return true;
}

bool ByTuple(const std::pair<Tuple, int64_t>& a,
             const std::pair<Tuple, int64_t>& b) {
  return a.first < b.first;
}

bool IsLinear(const RelOp* op) {
  return op->kind() == RelOpKind::kSelect || op->kind() == RelOpKind::kProject;
}

/// The first positive-count value of a MIN (ascending) or MAX (descending)
/// multiset, or nullptr when it has none.
const Value* Extreme(const std::map<Value, int64_t>& ordered, bool min) {
  if (min) {
    for (const auto& [v, c] : ordered) {
      if (c > 0) return &v;
    }
  } else {
    for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
      if (it->second > 0) return &it->first;
    }
  }
  return nullptr;
}

/// Same type and same bits: a row holding `a` and one holding `b` in its
/// place are the same tuple to every hash and comparison.
bool Identical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.bool_value() == b.bool_value();
    case ValueType::kInt64:
      return a.int64_value() == b.int64_value();
    case ValueType::kDouble: {
      const double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

}  // namespace

IncrementalPlanExecutor::IncrementalPlanExecutor(RelOpPtr plan,
                                                 size_t num_inputs,
                                                 bool maintain_output)
    : plan_(std::move(plan)),
      num_inputs_(num_inputs),
      maintain_output_(maintain_output),
      scan_readers_(num_inputs, 0) {
  if (plan_ == nullptr) return;
  MarkCachedNodes(plan_.get(), &cached_nodes_);
  CountScans(plan_.get(), &scan_readers_);
  // The columnar shape: a Select/Project chain over the one slot's Scan,
  // split at its Aggregate if it has one.
  if (num_inputs_ != 1) return;
  std::vector<const RelOp*> chain;
  const RelOp* op = plan_.get();
  while (true) {
    if (IsLinear(op)) {
      chain.push_back(op);
    } else if (op->kind() == RelOpKind::kAggregate &&
               columnar_.aggregate == nullptr) {
      columnar_.aggregate = op;
      columnar_.upper = std::move(chain);
      chain.clear();
    } else {
      break;
    }
    op = op->children()[0].get();
  }
  if (op->kind() != RelOpKind::kScan || op->input_index() != 0) return;
  columnar_.lower = std::move(chain);
  columnar_.covered = true;
}

bool IncrementalPlanExecutor::CanApplyColumnar(
    std::span<const ValueType> types) const {
  if (!columnar_.covered) return false;
  if (!checked_ || !std::equal(types.begin(), types.end(),
                               checked_types_.begin(), checked_types_.end())) {
    checked_types_.assign(types.begin(), types.end());
    checked_ = true;
    checked_ok_ = CheckColumnarTypes(checked_types_);
  }
  return checked_ok_;
}

bool IncrementalPlanExecutor::CheckColumnarTypes(
    std::vector<ValueType> t) const {
  for (auto it = columnar_.lower.rbegin(); it != columnar_.lower.rend();
       ++it) {
    const RelOp* op = *it;
    ValueType out;
    if (op->kind() == RelOpKind::kSelect) {
      if (!CanVectorize(*op->predicate(), t, &out)) return false;
      continue;
    }
    if (RenamesOnly(*op)) continue;
    std::vector<ValueType> next;
    next.reserve(op->projections().size());
    for (const ExprPtr& e : op->projections()) {
      if (!CanVectorize(*e, t, &out)) return false;
      next.push_back(out);
    }
    t = std::move(next);
  }
  const RelOp* agg = columnar_.aggregate;
  if (agg == nullptr) return true;
  for (size_t k : agg->group_indexes()) {
    if (k >= t.size()) return false;
  }
  for (const AggSpec& a : agg->aggs()) {
    if (a.input == nullptr) continue;
    ValueType in;
    if (!CanVectorize(*a.input, t, &in)) return false;
    // SUM/AVG read the input as a number; the tuple path owns the rest.
    const bool numeric = in == ValueType::kInt64 ||
                         in == ValueType::kDouble || in == ValueType::kNull;
    if ((a.kind == AggregateKind::kSum || a.kind == AggregateKind::kAvg) &&
        !numeric) {
      return false;
    }
  }
  return true;
}

Result<DeltaList> IncrementalPlanExecutor::ApplyColumnar(
    const std::vector<Column>& cols, const std::vector<int64_t>& weights) {
  const size_t n = weights.size();
  // Rows the chain below the Aggregate keeps: non-zero weight, passing
  // every Select. Projections swap the column set.
  std::vector<uint8_t>& keep = scratch_.keep;
  keep.resize(n);
  for (size_t i = 0; i < n; ++i) keep[i] = weights[i] != 0 ? 1 : 0;
  std::vector<Column>& projected = scratch_.projected;
  const std::vector<Column>* cur = &cols;
  for (auto it = columnar_.lower.rbegin(); it != columnar_.lower.rend();
       ++it) {
    const RelOp* op = *it;
    if (op->kind() == RelOpKind::kSelect) {
      const Column pass = EvalVector(*op->predicate(), *cur, n);
      const bool typed = pass.type() == ValueType::kBool;
      for (size_t i = 0; i < n; ++i) {
        if (keep[i] &&
            !(typed && !pass.IsNull(i) && pass.bool_data()[i] != 0)) {
          keep[i] = 0;
        }
      }
      continue;
    }
    if (RenamesOnly(*op)) continue;
    std::vector<Column> next;
    next.reserve(op->projections().size());
    for (const ExprPtr& e : op->projections()) {
      next.push_back(EvalVector(*e, *cur, n));
    }
    projected = std::move(next);
    cur = &projected;
  }

  DeltaList delta;
  if (columnar_.aggregate == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!keep[i]) continue;
      delta.emplace_back(TupleAt(*cur, cur->size(), i), weights[i]);
    }
  } else {
    delta = DeltaAggregateColumns(columnar_.aggregate, *cur, weights, keep);
    for (auto it = columnar_.upper.rbegin(); it != columnar_.upper.rend();
         ++it) {
      CQ_RETURN_NOT_OK(ApplyLinear(*it, &delta));
    }
  }
  return Finish(std::move(delta));
}

Result<MultisetRelation> IncrementalPlanExecutor::ApplyDeltas(
    const std::vector<MultisetRelation>& input_deltas) {
  std::vector<DeltaList> lists;
  lists.reserve(input_deltas.size());
  for (const MultisetRelation& d : input_deltas) {
    lists.emplace_back(d.entries().begin(), d.entries().end());
  }
  CQ_ASSIGN_OR_RETURN(DeltaList delta, Apply(std::move(lists)));
  MultisetRelation out;
  for (const auto& [t, w] : delta) out.Add(t, w);
  return out;
}

Result<DeltaList> IncrementalPlanExecutor::Apply(
    std::vector<DeltaList> input_deltas) {
  if (plan_ == nullptr) return Status::PlanError("executor has no plan");
  if (input_deltas.size() != num_inputs_) {
    return Status::InvalidArgument("delta batch arity mismatch");
  }
  Batch batch{std::move(input_deltas), scan_readers_};
  CQ_ASSIGN_OR_RETURN(DeltaList delta, Propagate(plan_.get(), &batch));
  return Finish(std::move(delta));
}

DeltaList IncrementalPlanExecutor::Finish(DeltaList delta) {
  // The one consolidation and sort per batch: each tuple once, in tuple
  // order, so a -old/+new pair for an unchanged row cancels here.
  for (auto& [t, w] : delta) net_.Add(std::move(t), w);
  delta = net_.Take();
  std::sort(delta.begin(), delta.end(), ByTuple);
  if (maintain_output_) {
    for (const auto& [t, w] : delta) output_.Add(t, w);
  }
  return delta;
}

size_t IncrementalPlanExecutor::StateSize() const {
  size_t n = 0;
  for (const auto& [op, rel] : cache_) n += rel.size();
  for (const auto& [op, idx] : agg_indexes_) n += idx.groups.size();
  return n;
}

Result<DeltaList> IncrementalPlanExecutor::DeltaJoin(const RelOp* op,
                                                     const DeltaList& dl,
                                                     const DeltaList& dr) {
  JoinIndex& index = join_indexes_[op];
  DeltaList delta;
  const Expr* residual = op->predicate().get();

  auto combine = [&](const Tuple& lt, int64_t lc, const Tuple& rt,
                     int64_t rc) -> Status {
    Tuple joined = Tuple::Concat(lt, rt);
    if (residual != nullptr) {
      CQ_ASSIGN_OR_RETURN(Value v, residual->Eval(joined));
      if (!(v.is_bool() && v.bool_value())) return Status::OK();
    }
    delta.emplace_back(std::move(joined), lc * rc);
    return Status::OK();
  };
  auto fold = [](std::unordered_map<Tuple, std::map<Tuple, int64_t>>* side,
                 Tuple key, const Tuple& t, int64_t c) {
    std::map<Tuple, int64_t>& bucket = (*side)[std::move(key)];
    auto [it, inserted] = bucket.try_emplace(t, 0);
    it->second += c;
    if (it->second == 0) bucket.erase(it);
  };

  // dL >< R_old: probe the right index before applying dR.
  for (const auto& [lt, lc] : dl) {
    auto it = index.right.find(lt.Project(op->left_keys()));
    if (it == index.right.end()) continue;
    for (const auto& [rt, rc] : it->second) {
      CQ_RETURN_NOT_OK(combine(lt, lc, rt, rc));
    }
  }
  // Fold dL into the left index (making it L_new).
  for (const auto& [lt, lc] : dl) {
    fold(&index.left, lt.Project(op->left_keys()), lt, lc);
  }
  // L_new >< dR.
  for (const auto& [rt, rc] : dr) {
    auto it = index.left.find(rt.Project(op->right_keys()));
    if (it == index.left.end()) continue;
    for (const auto& [lt, lc] : it->second) {
      CQ_RETURN_NOT_OK(combine(lt, lc, rt, rc));
    }
  }
  // Fold dR into the right index.
  for (const auto& [rt, rc] : dr) {
    fold(&index.right, rt.Project(op->right_keys()), rt, rc);
  }
  return delta;
}

Result<DeltaList> IncrementalPlanExecutor::DeltaThetaJoin(
    const RelOp* op, const DeltaList& dl, const DeltaList& dr) {
  // dJ = dL >< R_new - dL >< dR + L_new >< dR, against the children's
  // maintained accumulations (already updated by this batch).
  const ZSetMap& l_new = cache_[op->children()[0].get()];
  const ZSetMap& r_new = cache_[op->children()[1].get()];
  const Expr* pred = op->predicate().get();
  DeltaList delta;
  auto emit = [&](const Tuple& lt, const Tuple& rt, int64_t w) -> Status {
    Tuple joined = Tuple::Concat(lt, rt);
    if (pred != nullptr) {
      CQ_ASSIGN_OR_RETURN(Value v, pred->Eval(joined));
      if (!(v.is_bool() && v.bool_value())) return Status::OK();
    }
    delta.emplace_back(std::move(joined), w);
    return Status::OK();
  };
  for (const auto& [lt, lc] : dl) {
    for (const auto& [rt, rc] : r_new) CQ_RETURN_NOT_OK(emit(lt, rt, lc * rc));
    for (const auto& [rt, rc] : dr) CQ_RETURN_NOT_OK(emit(lt, rt, -lc * rc));
  }
  for (const auto& [lt, lc] : l_new) {
    for (const auto& [rt, rc] : dr) CQ_RETURN_NOT_OK(emit(lt, rt, lc * rc));
  }
  return delta;
}

Tuple IncrementalPlanExecutor::GroupRow(const RelOp* op, const Tuple& key,
                                        const GroupState& g) const {
  const auto& aggs = op->aggs();
  std::vector<Value> vals;
  vals.reserve(key.size() + aggs.size());
  vals.insert(vals.end(), key.values().begin(), key.values().end());
  for (size_t i = 0; i < aggs.size(); ++i) {
    vals.push_back(AggOutput(aggs[i].kind, g, i));
  }
  return Tuple(std::move(vals));
}

Value IncrementalPlanExecutor::AggOutput(AggregateKind kind,
                                         const GroupState& g, size_t i) {
  const AggState& a = g.running[i];
  switch (kind) {
    case AggregateKind::kCount:
      return Value(a.count);
    case AggregateKind::kSum:
      return a.count == 0 ? Value::Null() : Value(a.sum);
    case AggregateKind::kAvg:
      return a.count == 0 ? Value::Null()
                          : Value(a.sum / static_cast<double>(a.count));
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const Value* v = Extreme(g.ordered[i], kind == AggregateKind::kMin);
      return v != nullptr ? *v : Value::Null();
    }
  }
  return Value::Null();
}

bool IncrementalPlanExecutor::RowUnchanged(const RelOp* op,
                                           const GroupState& g) {
  const auto& aggs = op->aggs();
  const size_t nkeys = g.row.size() - aggs.size();
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (!Identical(g.row[nkeys + i], AggOutput(aggs[i].kind, g, i))) {
      return false;
    }
  }
  return true;
}

bool IncrementalPlanExecutor::ColumnKeyOf::Equals(const Tuple& key) const {
  if (indexes->size() != key.size()) return false;
  for (size_t j = 0; j < key.size(); ++j) {
    if ((*cols)[(*indexes)[j]].CompareAt(row, key[j]) != 0) return false;
  }
  return true;
}

DeltaList IncrementalPlanExecutor::DeltaAggregateColumns(
    const RelOp* op, const std::vector<Column>& cols,
    const std::vector<int64_t>& weights, const std::vector<uint8_t>& keep) {
  AggIndex& index = agg_indexes_[op];
  const auto& aggs = op->aggs();
  const auto& key_cols = op->group_indexes();
  const bool global = key_cols.empty();
  const size_t n = weights.size();

  // Each aggregate's input as a column — a plain column reference reads
  // the input column itself; null for COUNT(*), which counts every row
  // (the tuple path's constant 1).
  std::vector<Column>& computed = scratch_.computed;
  std::vector<const Column*>& inputs = scratch_.inputs;
  computed.resize(aggs.size());
  inputs.assign(aggs.size(), nullptr);
  for (size_t j = 0; j < aggs.size(); ++j) {
    const Expr* e = aggs[j].input.get();
    if (e == nullptr) continue;
    if (e->kind() == Expr::Kind::kColumn) {
      inputs[j] = &cols[static_cast<const ColumnRef*>(e)->index()];
    } else {
      computed[j] = EvalVector(*e, cols, n);
      inputs[j] = &computed[j];
    }
  }
  // Tuple::ProjectedHash of every row's group key, a column at a time.
  std::vector<uint64_t>& key_hash = scratch_.key_hash;
  key_hash.assign(n, Tuple::kHashSeed);
  for (size_t k : key_cols) {
    const Column& c = cols[k];
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) key_hash[i] = HashCombine(key_hash[i], c.HashAt(i));
    }
  }

  std::vector<std::pair<const Tuple, GroupState>*>& touched = scratch_.touched;
  touched.clear();
  auto touch = [&](std::pair<const Tuple, GroupState>& entry) {
    if (entry.second.touched) return;
    entry.second.touched = true;
    touched.push_back(&entry);
  };
  auto new_group = [&](Tuple key) -> std::pair<const Tuple, GroupState>& {
    auto it = index.groups.try_emplace(std::move(key)).first;
    it->second.running.resize(aggs.size());
    it->second.ordered.resize(aggs.size());
    return *it;
  };
  if (global && index.groups.empty()) touch(new_group(Tuple()));

  // Fold in row order: the order the tuple path folds its deltas in, so
  // floating-point sums round identically.
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    const int64_t c = weights[i];
    auto it = index.groups.find(ColumnKeyOf{&cols, &key_cols, i, key_hash[i]});
    std::pair<const Tuple, GroupState>* entry;
    if (it != index.groups.end()) {
      entry = &*it;
    } else {
      std::vector<Value> key;
      key.reserve(key_cols.size());
      for (size_t k : key_cols) key.push_back(cols[k].ValueAt(i));
      entry = &new_group(Tuple(std::move(key)));
    }
    GroupState& g = entry->second;
    g.rows += c;
    for (size_t j = 0; j < aggs.size(); ++j) {
      const Column* in = inputs[j];
      if (in != nullptr && in->IsNull(i)) continue;  // NULLs count nowhere
      AggState& a = g.running[j];
      switch (aggs[j].kind) {
        case AggregateKind::kCount:
          a.count += c;
          break;
        case AggregateKind::kSum:
        case AggregateKind::kAvg: {
          double v = 1.0;
          if (in != nullptr) {
            v = in->type() == ValueType::kInt64
                    ? static_cast<double>(in->int64_data()[i])
                    : in->double_data()[i];
          }
          a.count += c;
          a.sum += static_cast<double>(c) * v;
          break;
        }
        case AggregateKind::kMin:
        case AggregateKind::kMax: {
          auto& bucket = g.ordered[j];
          auto [b, inserted] = bucket.try_emplace(
              in != nullptr ? in->ValueAt(i) : Value(int64_t{1}), 0);
          b->second += c;
          if (b->second == 0) bucket.erase(b);
          break;
        }
      }
    }
    touch(*entry);
  }

  DeltaList delta;
  delta.reserve(2 * touched.size());
  for (auto* entry : touched) {
    GroupState& g = entry->second;
    g.touched = false;
    const bool keeps_row = global || g.rows > 0;
    // An unchanged row's -old/+new pair would cancel in Finish: skip it.
    if (keeps_row && g.has_row && RowUnchanged(op, g)) continue;
    if (g.has_row) delta.emplace_back(std::move(g.row), -1);
    if (keeps_row) {
      g.row = GroupRow(op, entry->first, g);
      g.has_row = true;
      delta.emplace_back(g.row, 1);
    } else {
      index.groups.erase(index.groups.find(entry->first));
    }
  }
  return delta;
}

Result<DeltaList> IncrementalPlanExecutor::DeltaAggregate(
    const RelOp* op, const DeltaList& dc) {
  AggIndex& index = agg_indexes_[op];
  const auto& aggs = op->aggs();
  const bool global = op->group_indexes().empty();

  // Groups changed by this batch, in first-touch order. Node pointers stay
  // valid across rehashes; the touched flag keeps each group listed once.
  std::vector<std::pair<const Tuple, GroupState>*> touched;
  auto touch = [&](std::pair<const Tuple, GroupState>& entry) {
    if (entry.second.touched) return;
    entry.second.touched = true;
    touched.push_back(&entry);
  };
  // The group of delta tuple `t`; its key is built only for a new group.
  auto group = [&](const Tuple& t) -> std::pair<const Tuple, GroupState>& {
    auto it = index.groups.find(KeyOf{&t, &op->group_indexes()});
    if (it == index.groups.end()) {
      it = index.groups.try_emplace(t.Project(op->group_indexes())).first;
      it->second.running.resize(aggs.size());
      it->second.ordered.resize(aggs.size());
    }
    return *it;
  };
  // The global (scalar) aggregate always has a row (identity on empty
  // input); materialise its group on the first batch so the identity row is
  // emitted even when this batch carries no data for it.
  if (global && index.groups.empty()) touch(group(Tuple()));

  Status folded = [&]() -> Status {
    for (const auto& [t, c] : dc) {
      auto& entry = group(t);
      GroupState& g = entry.second;
      g.rows += c;
      for (size_t i = 0; i < aggs.size(); ++i) {
        Value in(static_cast<int64_t>(1));
        if (aggs[i].input != nullptr) {
          CQ_ASSIGN_OR_RETURN(in, aggs[i].input->Eval(t));
        }
        if (in.is_null()) continue;  // NULLs contribute to no aggregate
        switch (aggs[i].kind) {
          case AggregateKind::kCount:
            g.running[i].count += c;
            break;
          case AggregateKind::kSum:
          case AggregateKind::kAvg:
            g.running[i].count += c;
            g.running[i].sum += static_cast<double>(c) * in.AsDouble();
            break;
          case AggregateKind::kMin:
          case AggregateKind::kMax: {
            auto& bucket = g.ordered[i];
            auto [it, inserted] = bucket.try_emplace(std::move(in), 0);
            it->second += c;
            if (it->second == 0) bucket.erase(it);
            break;
          }
        }
      }
      touch(entry);
    }
    return Status::OK();
  }();
  if (!folded.ok()) {
    for (auto* entry : touched) entry->second.touched = false;
    return folded;
  }

  DeltaList delta;
  delta.reserve(2 * touched.size());
  for (auto* entry : touched) {
    GroupState& g = entry->second;
    g.touched = false;
    if (g.has_row) delta.emplace_back(std::move(g.row), -1);
    if (global || g.rows > 0) {
      g.row = GroupRow(op, entry->first, g);
      g.has_row = true;
      delta.emplace_back(g.row, 1);
    } else {
      index.groups.erase(index.groups.find(entry->first));
    }
  }
  return delta;
}

Status IncrementalPlanExecutor::ApplyLinear(const RelOp* op,
                                            DeltaList* delta) const {
  if (op->kind() == RelOpKind::kSelect) {
    const Expr& pred = *op->predicate();
    size_t kept = 0;
    for (size_t i = 0; i < delta->size(); ++i) {
      CQ_ASSIGN_OR_RETURN(Value v, pred.Eval((*delta)[i].first));
      if (!(v.is_bool() && v.bool_value())) continue;
      if (kept != i) (*delta)[kept] = std::move((*delta)[i]);
      ++kept;
    }
    delta->erase(delta->begin() + static_cast<std::ptrdiff_t>(kept),
                 delta->end());
    return Status::OK();
  }
  if (RenamesOnly(*op)) return Status::OK();
  const auto& exprs = op->projections();
  for (auto& row : *delta) {
    std::vector<Value> vals;
    vals.reserve(exprs.size());
    for (const auto& e : exprs) {
      CQ_ASSIGN_OR_RETURN(Value v, e->Eval(row.first));
      vals.push_back(std::move(v));
    }
    row.first = Tuple(std::move(vals));
  }
  return Status::OK();
}

Result<DeltaList> IncrementalPlanExecutor::Propagate(const RelOp* op,
                                                     Batch* batch) {
  DeltaList delta;
  switch (op->kind()) {
    case RelOpKind::kScan: {
      const size_t slot = op->input_index();
      if (slot >= batch->inputs.size()) {
        return Status::PlanError("scan reads a slot outside the delta batch");
      }
      // The last reader of a slot takes its batch; earlier ones copy.
      if (--batch->readers_left[slot] == 0) {
        delta = std::move(batch->inputs[slot]);
      } else {
        delta = batch->inputs[slot];
      }
      break;
    }
    case RelOpKind::kSelect:
    case RelOpKind::kProject: {
      CQ_ASSIGN_OR_RETURN(delta, Propagate(op->children()[0].get(), batch));
      CQ_RETURN_NOT_OK(ApplyLinear(op, &delta));
      break;
    }
    case RelOpKind::kUnion: {
      CQ_ASSIGN_OR_RETURN(delta, Propagate(op->children()[0].get(), batch));
      CQ_ASSIGN_OR_RETURN(DeltaList dr,
                          Propagate(op->children()[1].get(), batch));
      delta.insert(delta.end(), std::make_move_iterator(dr.begin()),
                   std::make_move_iterator(dr.end()));
      break;
    }
    case RelOpKind::kJoin:
    case RelOpKind::kThetaJoin: {
      CQ_ASSIGN_OR_RETURN(DeltaList dl,
                          Propagate(op->children()[0].get(), batch));
      CQ_ASSIGN_OR_RETURN(DeltaList dr,
                          Propagate(op->children()[1].get(), batch));
      if (op->kind() == RelOpKind::kJoin) {
        CQ_ASSIGN_OR_RETURN(delta, DeltaJoin(op, dl, dr));
      } else {
        CQ_ASSIGN_OR_RETURN(delta, DeltaThetaJoin(op, dl, dr));
      }
      break;
    }
    case RelOpKind::kAggregate: {
      CQ_ASSIGN_OR_RETURN(DeltaList dc,
                          Propagate(op->children()[0].get(), batch));
      CQ_ASSIGN_OR_RETURN(delta, DeltaAggregate(op, dc));
      break;
    }
    case RelOpKind::kDistinct: {
      const RelOp* child = op->children()[0].get();
      CQ_ASSIGN_OR_RETURN(DeltaList dc, Propagate(child, batch));
      const ZSetMap& c_new = cache_[child];
      DeltaBuffer net;
      for (auto& [t, c] : dc) net.Add(std::move(t), c);
      for (auto& [t, c] : net.Take()) {
        const int64_t now = CountIn(c_new, t);
        const int64_t before = now - c;
        const int64_t d = (now > 0 ? 1 : 0) - (before > 0 ? 1 : 0);
        if (d != 0) delta.emplace_back(std::move(t), d);
      }
      break;
    }
    case RelOpKind::kExcept:
    case RelOpKind::kIntersect: {
      const RelOp* l = op->children()[0].get();
      const RelOp* r = op->children()[1].get();
      CQ_ASSIGN_OR_RETURN(DeltaList dl, Propagate(l, batch));
      CQ_ASSIGN_OR_RETURN(DeltaList dr, Propagate(r, batch));
      const ZSetMap& l_new = cache_[l];
      const ZSetMap& r_new = cache_[r];
      auto clamp = [](int64_t x) { return x > 0 ? x : 0; };
      auto out_count = [&](int64_t lc, int64_t rc) {
        if (op->kind() == RelOpKind::kExcept) {
          return clamp(clamp(lc) - clamp(rc));
        }
        return std::min(clamp(lc), clamp(rc));
      };
      // Net (left, right) change per affected tuple.
      std::unordered_map<Tuple, std::pair<int64_t, int64_t>> affected;
      for (auto& [t, c] : dl) affected[std::move(t)].first += c;
      for (auto& [t, c] : dr) affected[std::move(t)].second += c;
      for (const auto& [t, d] : affected) {
        const int64_t l_now = CountIn(l_new, t), r_now = CountIn(r_new, t);
        const int64_t change = out_count(l_now, r_now) -
                               out_count(l_now - d.first, r_now - d.second);
        if (change != 0) delta.emplace_back(t, change);
      }
      break;
    }
  }
  if (cached_nodes_.count(op)) {
    ZSetMap& cache = cache_[op];
    for (const auto& [t, w] : delta) AddTo(&cache, t, w);
  }
  return delta;
}

namespace {

/// Preorder walk of the plan tree: the node-numbering contract between
/// SnapshotState and RestoreState. Structurally identical plans (same SQL
/// replanned after a restart) produce the same numbering even though the
/// RelOp pointers differ.
void CollectPreorder(const RelOp* op, std::vector<const RelOp*>* out) {
  if (op == nullptr) return;
  out->push_back(op);
  for (const auto& c : op->children()) CollectPreorder(c.get(), out);
}

/// A hashed container's entries sorted by key, for deterministic encoding.
template <typename Map>
std::vector<const typename Map::value_type*> SortedEntries(const Map& m) {
  std::vector<const typename Map::value_type*> out;
  out.reserve(m.size());
  for (const auto& e : m) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

void EncodeRelationState(const MultisetRelation& rel, std::string* out) {
  EncodeU32(static_cast<uint32_t>(rel.entries().size()), out);
  for (const auto& [t, c] : rel.entries()) {
    EncodeTuple(t, out);
    EncodeI64(c, out);
  }
}

/// Same bytes as EncodeRelationState of the equal MultisetRelation.
void EncodeZSetState(const std::unordered_map<Tuple, int64_t>& zset,
                     std::string* out) {
  EncodeU32(static_cast<uint32_t>(zset.size()), out);
  for (const auto* e : SortedEntries(zset)) {
    EncodeTuple(e->first, out);
    EncodeI64(e->second, out);
  }
}

Result<MultisetRelation> DecodeRelationState(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(in));
  MultisetRelation rel;
  for (uint32_t i = 0; i < n; ++i) {
    CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(in));
    CQ_ASSIGN_OR_RETURN(int64_t c, DecodeI64(in));
    rel.Add(t, c);
  }
  return rel;
}

Status DecodeZSetState(std::string_view* in,
                       std::unordered_map<Tuple, int64_t>* zset) {
  CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(in));
  for (uint32_t i = 0; i < n; ++i) {
    CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(in));
    CQ_ASSIGN_OR_RETURN(int64_t c, DecodeI64(in));
    AddTo(zset, t, c);
  }
  return Status::OK();
}

void EncodeJoinSide(
    const std::unordered_map<Tuple, std::map<Tuple, int64_t>>& side,
    std::string* out) {
  EncodeU32(static_cast<uint32_t>(side.size()), out);
  for (const auto* e : SortedEntries(side)) {
    EncodeTuple(e->first, out);
    EncodeU32(static_cast<uint32_t>(e->second.size()), out);
    for (const auto& [t, c] : e->second) {
      EncodeTuple(t, out);
      EncodeI64(c, out);
    }
  }
}

Status DecodeJoinSide(
    std::string_view* in,
    std::unordered_map<Tuple, std::map<Tuple, int64_t>>* side) {
  CQ_ASSIGN_OR_RETURN(uint32_t nkeys, DecodeU32(in));
  for (uint32_t i = 0; i < nkeys; ++i) {
    CQ_ASSIGN_OR_RETURN(Tuple key, DecodeTuple(in));
    CQ_ASSIGN_OR_RETURN(uint32_t nentries, DecodeU32(in));
    std::map<Tuple, int64_t>& bucket = (*side)[key];
    for (uint32_t j = 0; j < nentries; ++j) {
      CQ_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(in));
      CQ_ASSIGN_OR_RETURN(int64_t c, DecodeI64(in));
      bucket[t] = c;
    }
  }
  return Status::OK();
}

/// Encodes node-keyed state in plan preorder: the count, then per node its
/// preorder index and `encode(state)`.
template <typename State, typename EncodeFn>
Status EncodeNodeState(const std::vector<const RelOp*>& nodes,
                       const std::map<const RelOp*, State>& state,
                       EncodeFn encode, std::string* out) {
  EncodeU32(static_cast<uint32_t>(state.size()), out);
  size_t written = 0;
  for (uint32_t i = 0; i < nodes.size(); ++i) {
    auto it = state.find(nodes[i]);
    if (it == state.end()) continue;
    EncodeU32(i, out);
    encode(it->second);
    ++written;
  }
  if (written != state.size()) {
    return Status::Internal("plan state keyed by a node outside the tree");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> IncrementalPlanExecutor::SnapshotState() const {
  std::vector<const RelOp*> nodes;
  CollectPreorder(plan_.get(), &nodes);

  std::string out;
  EncodeU32(static_cast<uint32_t>(nodes.size()), &out);
  EncodeRelationState(output_, &out);

  CQ_RETURN_NOT_OK(EncodeNodeState(
      nodes, cache_, [&](const ZSetMap& rel) { EncodeZSetState(rel, &out); },
      &out));

  CQ_RETURN_NOT_OK(EncodeNodeState(
      nodes, join_indexes_,
      [&](const JoinIndex& ji) {
        EncodeJoinSide(ji.left, &out);
        EncodeJoinSide(ji.right, &out);
      },
      &out));

  CQ_RETURN_NOT_OK(EncodeNodeState(
      nodes, agg_indexes_,
      [&](const AggIndex& ai) {
        EncodeU32(static_cast<uint32_t>(ai.groups.size()), &out);
        for (const auto* entry : SortedEntries(ai.groups)) {
          const GroupState& g = entry->second;
          EncodeTuple(entry->first, &out);
          EncodeI64(g.rows, &out);
          EncodeU32(static_cast<uint32_t>(g.running.size()), &out);
          for (const AggState& a : g.running) {
            EncodeI64(a.count, &out);
            EncodeF64(a.sum, &out);
            EncodeValue(a.min, &out);
            EncodeValue(a.max, &out);
          }
          EncodeU32(static_cast<uint32_t>(g.ordered.size()), &out);
          for (const auto& multiset : g.ordered) {
            EncodeU32(static_cast<uint32_t>(multiset.size()), &out);
            for (const auto& [v, c] : multiset) {
              EncodeValue(v, &out);
              EncodeI64(c, &out);
            }
          }
          out.push_back(g.has_row ? 1 : 0);
          if (g.has_row) EncodeTuple(g.row, &out);
        }
      },
      &out));
  return out;
}

Status IncrementalPlanExecutor::RestoreState(std::string_view snapshot) {
  std::vector<const RelOp*> nodes;
  CollectPreorder(plan_.get(), &nodes);

  std::string_view in = snapshot;
  CQ_ASSIGN_OR_RETURN(uint32_t num_nodes, DecodeU32(&in));
  if (num_nodes != nodes.size()) {
    return Status::InvalidArgument(
        "plan snapshot covers " + std::to_string(num_nodes) +
        " nodes but the live plan has " + std::to_string(nodes.size()) +
        " — plans are not structurally identical");
  }
  auto node_at = [&](uint32_t idx) -> Result<const RelOp*> {
    if (idx >= nodes.size()) {
      return Status::IOError("plan snapshot node index out of range");
    }
    return nodes[idx];
  };

  output_ = MultisetRelation();
  cache_.clear();
  join_indexes_.clear();
  agg_indexes_.clear();

  CQ_ASSIGN_OR_RETURN(output_, DecodeRelationState(&in));
  // An executor that does not maintain its output never reads it.
  if (!maintain_output_) output_ = MultisetRelation();

  CQ_ASSIGN_OR_RETURN(uint32_t ncache, DecodeU32(&in));
  for (uint32_t i = 0; i < ncache; ++i) {
    CQ_ASSIGN_OR_RETURN(uint32_t idx, DecodeU32(&in));
    CQ_ASSIGN_OR_RETURN(const RelOp* op, node_at(idx));
    CQ_RETURN_NOT_OK(DecodeZSetState(&in, &cache_[op]));
  }

  CQ_ASSIGN_OR_RETURN(uint32_t njoin, DecodeU32(&in));
  for (uint32_t i = 0; i < njoin; ++i) {
    CQ_ASSIGN_OR_RETURN(uint32_t idx, DecodeU32(&in));
    CQ_ASSIGN_OR_RETURN(const RelOp* op, node_at(idx));
    JoinIndex& ji = join_indexes_[op];
    CQ_RETURN_NOT_OK(DecodeJoinSide(&in, &ji.left));
    CQ_RETURN_NOT_OK(DecodeJoinSide(&in, &ji.right));
  }

  CQ_ASSIGN_OR_RETURN(uint32_t nagg, DecodeU32(&in));
  for (uint32_t i = 0; i < nagg; ++i) {
    CQ_ASSIGN_OR_RETURN(uint32_t idx, DecodeU32(&in));
    CQ_ASSIGN_OR_RETURN(const RelOp* op, node_at(idx));
    AggIndex& ai = agg_indexes_[op];
    // The live path sizes both per-group vectors to the node's aggregate
    // count; any other length is corrupt and must not drive an allocation.
    const size_t naggs = op->aggs().size();
    auto check_len = [&](uint32_t n, const char* what) -> Status {
      if (n == naggs) return Status::OK();
      return Status::IOError("plan snapshot aggregation group has " +
                             std::to_string(n) + " " + what + " states for " +
                             std::to_string(naggs) + " aggregates");
    };
    CQ_ASSIGN_OR_RETURN(uint32_t ngroups, DecodeU32(&in));
    for (uint32_t gi = 0; gi < ngroups; ++gi) {
      CQ_ASSIGN_OR_RETURN(Tuple key, DecodeTuple(&in));
      GroupState& g = ai.groups[key];
      CQ_ASSIGN_OR_RETURN(g.rows, DecodeI64(&in));
      CQ_ASSIGN_OR_RETURN(uint32_t nrun, DecodeU32(&in));
      CQ_RETURN_NOT_OK(check_len(nrun, "running"));
      g.running.resize(nrun);
      for (AggState& a : g.running) {
        CQ_ASSIGN_OR_RETURN(a.count, DecodeI64(&in));
        CQ_ASSIGN_OR_RETURN(a.sum, DecodeF64(&in));
        CQ_ASSIGN_OR_RETURN(a.min, DecodeValue(&in));
        CQ_ASSIGN_OR_RETURN(a.max, DecodeValue(&in));
      }
      CQ_ASSIGN_OR_RETURN(uint32_t nord, DecodeU32(&in));
      CQ_RETURN_NOT_OK(check_len(nord, "ordered"));
      g.ordered.resize(nord);
      for (auto& multiset : g.ordered) {
        CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(&in));
        for (uint32_t j = 0; j < n; ++j) {
          CQ_ASSIGN_OR_RETURN(Value v, DecodeValue(&in));
          CQ_ASSIGN_OR_RETURN(int64_t c, DecodeI64(&in));
          multiset[v] = c;
        }
      }
      if (in.empty()) return Status::IOError("plan snapshot truncated");
      g.has_row = in.front() != 0;
      in.remove_prefix(1);
      if (g.has_row) {
        CQ_ASSIGN_OR_RETURN(g.row, DecodeTuple(&in));
      }
    }
  }
  if (!in.empty()) {
    return Status::IOError("trailing bytes after plan snapshot");
  }
  return Status::OK();
}

}  // namespace cq
