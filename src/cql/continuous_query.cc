#include "cql/continuous_query.h"

#include <algorithm>
#include <iterator>
#include <set>

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

// --- DeltaBuffer ---

void DeltaBuffer::Add(Tuple t, int64_t weight) {
  if (weight == 0) return;
  if (2 * (rows_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const uint64_t h = t.Hash();
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixU64(h) & mask;; i = (i + 1) & mask) {
    const uint32_t s = slots_[i];
    if (s == 0) {
      slots_[i] = static_cast<uint32_t>(rows_.size() + 1);
      rows_.emplace_back(std::move(t), weight);
      hashes_.push_back(h);
      return;
    }
    if (hashes_[s - 1] == h && rows_[s - 1].first == t) {
      rows_[s - 1].second += weight;
      return;
    }
  }
}

void DeltaBuffer::Rehash(size_t capacity) {
  // Room for every row the table admits before it grows again.
  rows_.reserve(capacity / 2);
  hashes_.reserve(capacity / 2);
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t r = 0; r < rows_.size(); ++r) {
    size_t i = MixU64(hashes_[r]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(r + 1);
  }
}

DeltaList DeltaBuffer::Take() {
  const size_t distinct = rows_.size();
  DeltaList out = std::move(rows_);
  rows_.clear();
  hashes_.clear();
  // Keep the table for the next batch unless this one was a rare spike.
  if (slots_.size() > 8 * std::max<size_t>(distinct, 16)) {
    slots_.clear();
  } else {
    std::fill(slots_.begin(), slots_.end(), 0u);
    rows_.reserve(slots_.size() / 2);
  }
  std::erase_if(out, [](const auto& row) { return row.second == 0; });
  return out;
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

}  // namespace

IncrementalPlanExecutor::IncrementalPlanExecutor(RelOpPtr plan,
                                                 size_t num_inputs,
                                                 bool maintain_output)
    : plan_(std::move(plan)),
      num_inputs_(num_inputs),
      maintain_output_(maintain_output),
      scan_readers_(num_inputs, 0) {
  if (plan_ != nullptr) {
    MarkCachedNodes(plan_.get(), &cached_nodes_);
    CountScans(plan_.get(), &scan_readers_);
  }
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
    switch (aggs[i].kind) {
      case AggregateKind::kCount:
        vals.push_back(Value(g.running[i].count));
        break;
      case AggregateKind::kSum:
        vals.push_back(g.running[i].count == 0 ? Value::Null()
                                               : Value(g.running[i].sum));
        break;
      case AggregateKind::kAvg:
        vals.push_back(g.running[i].count == 0
                           ? Value::Null()
                           : Value(g.running[i].sum /
                                   static_cast<double>(g.running[i].count)));
        break;
      case AggregateKind::kMin: {
        Value out = Value::Null();
        for (const auto& [v, c] : g.ordered[i]) {
          if (c > 0) {
            out = v;
            break;
          }
        }
        vals.push_back(std::move(out));
        break;
      }
      case AggregateKind::kMax: {
        Value out = Value::Null();
        for (auto it = g.ordered[i].rbegin(); it != g.ordered[i].rend();
             ++it) {
          if (it->second > 0) {
            out = it->first;
            break;
          }
        }
        vals.push_back(std::move(out));
        break;
      }
    }
  }
  return Tuple(std::move(vals));
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
    case RelOpKind::kSelect: {
      CQ_ASSIGN_OR_RETURN(delta, Propagate(op->children()[0].get(), batch));
      const Expr& pred = *op->predicate();
      size_t kept = 0;
      for (size_t i = 0; i < delta.size(); ++i) {
        CQ_ASSIGN_OR_RETURN(Value v, pred.Eval(delta[i].first));
        if (!(v.is_bool() && v.bool_value())) continue;
        if (kept != i) delta[kept] = std::move(delta[i]);
        ++kept;
      }
      delta.erase(delta.begin() + static_cast<std::ptrdiff_t>(kept),
                  delta.end());
      break;
    }
    case RelOpKind::kProject: {
      CQ_ASSIGN_OR_RETURN(delta, Propagate(op->children()[0].get(), batch));
      if (RenamesOnly(*op)) break;
      const auto& exprs = op->projections();
      for (auto& row : delta) {
        std::vector<Value> vals;
        vals.reserve(exprs.size());
        for (const auto& e : exprs) {
          CQ_ASSIGN_OR_RETURN(Value v, e->Eval(row.first));
          vals.push_back(std::move(v));
        }
        row.first = Tuple(std::move(vals));
      }
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
