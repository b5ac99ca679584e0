#include "dataflow/window_operator.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "cql/vector_eval.h"
#include "runtime/columnar_batch.h"
#include "types/serde.h"

namespace cq {

namespace {

void EncodeAggState(const AggState& s, std::string* out) {
  EncodeI64(s.count, out);
  EncodeF64(s.sum, out);
  EncodeValue(s.min, out);
  EncodeValue(s.max, out);
}

Result<AggState> DecodeAggState(std::string_view* in) {
  AggState s;
  CQ_ASSIGN_OR_RETURN(s.count, DecodeI64(in));
  CQ_ASSIGN_OR_RETURN(s.sum, DecodeF64(in));
  CQ_ASSIGN_OR_RETURN(s.min, DecodeValue(in));
  CQ_ASSIGN_OR_RETURN(s.max, DecodeValue(in));
  return s;
}

}  // namespace

WindowedAggregateOperator::WindowedAggregateOperator(
    std::string name, WindowedAggregateConfig config)
    : Operator(std::move(name)), config_(std::move(config)) {
  if (config_.trigger == nullptr) {
    config_.trigger = TriggerFactory::AfterWatermark();
  }
  for (const auto& a : config_.aggs) {
    funcs_.push_back(AggregateFunction::Make(a.kind));
  }
  if (config_.state == nullptr) {
    owned_state_ = std::make_unique<InMemoryStateBackend>();
    state_ = owned_state_.get();
  } else {
    state_ = config_.state;
  }
}

std::string WindowedAggregateOperator::WindowNamespace(
    const TimeInterval& w) const {
  std::string ns = "w:";
  EncodeI64(w.start, &ns);
  EncodeI64(w.end, &ns);
  return ns;
}

Result<WindowedAggregateOperator::Cell> WindowedAggregateOperator::LoadCell(
    const std::string& key, const TimeInterval& w) const {
  Cell cell;
  Result<std::string> bytes = state_->Get(key, WindowNamespace(w));
  if (!bytes.ok()) {
    if (bytes.status().IsNotFound()) {
      cell.states.resize(funcs_.size());
      for (size_t i = 0; i < funcs_.size(); ++i) {
        cell.states[i] = funcs_[i]->Identity();
      }
      return cell;
    }
    return bytes.status();
  }
  std::string_view in = *bytes;
  CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(&in));
  cell.states.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CQ_ASSIGN_OR_RETURN(AggState s, DecodeAggState(&in));
    cell.states.push_back(s);
  }
  CQ_ASSIGN_OR_RETURN(cell.since_fire, DecodeI64(&in));
  if (in.empty()) return Status::ParseError("window cell truncated");
  cell.fired = in[0] != 0;
  return cell;
}

Status WindowedAggregateOperator::StoreCell(const std::string& key,
                                            const TimeInterval& w,
                                            const Cell& cell) {
  std::string out;
  EncodeU32(static_cast<uint32_t>(cell.states.size()), &out);
  for (const auto& s : cell.states) EncodeAggState(s, &out);
  EncodeI64(cell.since_fire, &out);
  out.push_back(cell.fired ? 1 : 0);
  return state_->Put(key, WindowNamespace(w), std::move(out));
}

Trigger* WindowedAggregateOperator::GetOrCreateTrigger(const std::string& key,
                                                       const TimeInterval& w,
                                                       bool primed_fired) {
  ActiveKey akey{w.end, w.start, key};
  auto it = active_.find(akey);
  if (it == active_.end()) {
    auto trigger = config_.trigger->Create(w);
    if (primed_fired) {
      // The window had already fired before a restore; move the fresh
      // trigger past its on-time firing so it refines instead of re-firing.
      (void)trigger->OnWatermark(w.end);
    }
    it = active_.emplace(std::move(akey), std::move(trigger)).first;
  }
  return it->second.get();
}

Status WindowedAggregateOperator::FirePane(const std::string& key,
                                           const TimeInterval& w,
                                           Collector* out, bool purge) {
  CQ_ASSIGN_OR_RETURN(Cell cell, LoadCell(key, w));
  CQ_ASSIGN_OR_RETURN(Tuple key_tuple, TupleFromBytes(key));
  std::vector<Value> vals = key_tuple.values();
  vals.push_back(Value(w.start));
  vals.push_back(Value(w.end));
  for (size_t i = 0; i < funcs_.size(); ++i) {
    vals.push_back(funcs_[i]->Lower(cell.states[i]));
  }
  out->Emit(StreamElement::Record(Tuple(std::move(vals)), w.end - 1));
  ++panes_emitted_;

  if (purge) {
    CQ_RETURN_NOT_OK(state_->Remove(key, WindowNamespace(w)));
    active_.erase(ActiveKey{w.end, w.start, key});
    return Status::OK();
  }
  cell.fired = true;
  cell.since_fire = 0;
  if (config_.accumulation == AccumulationMode::kDiscarding) {
    for (size_t i = 0; i < funcs_.size(); ++i) {
      cell.states[i] = funcs_[i]->Identity();
    }
  }
  return StoreCell(key, w, cell);
}

Status WindowedAggregateOperator::HandleTriggerAction(TriggerAction action,
                                                      const std::string& key,
                                                      const TimeInterval& w,
                                                      Collector* out) {
  switch (action) {
    case TriggerAction::kContinue:
      return Status::OK();
    case TriggerAction::kFire:
      return FirePane(key, w, out, /*purge=*/false);
    case TriggerAction::kFireAndPurge:
      return FirePane(key, w, out, /*purge=*/true);
  }
  return Status::Internal("unhandled trigger action");
}

Status WindowedAggregateOperator::ProcessElement(size_t,
                                                 const StreamElement& element,
                                                 const OperatorContext& ctx,
                                                 Collector* out) {
  const Tuple& tuple = element.tuple;
  Timestamp ts = element.timestamp;
  std::string key = TupleToBytes(tuple.Project(config_.key_indexes));

  for (const TimeInterval& w : config_.assigner->AssignWindows(ts)) {
    if (w.end + config_.allowed_lateness <= ctx.watermark) {
      ++dropped_late_;
      if (late_drop_counter_ != nullptr) late_drop_counter_->Increment();
      // First drop at WARN so pipelines losing data are visible by default;
      // the rest at DEBUG to keep heavy out-of-order workloads quiet.
      LogLevel lvl = dropped_late_ == 1 ? LogLevel::kWarn : LogLevel::kDebug;
      if (Logger::Instance().Enabled(lvl)) {
        LogMessage(lvl) << "window operator '" << name()
                        << "' dropped late record ts=" << ts << " for window ["
                        << w.start << "," << w.end << ") behind watermark "
                        << ctx.watermark << " (total dropped " << dropped_late_
                        << ")";
      }
      continue;
    }
    CQ_ASSIGN_OR_RETURN(Cell cell, LoadCell(key, w));
    for (size_t i = 0; i < funcs_.size(); ++i) {
      Value in;
      if (config_.aggs[i].input == nullptr) {
        in = Value(static_cast<int64_t>(1));
      } else {
        CQ_ASSIGN_OR_RETURN(in, config_.aggs[i].input->Eval(tuple));
      }
      cell.states[i] = funcs_[i]->Combine(cell.states[i], funcs_[i]->Lift(in));
    }
    cell.since_fire += 1;
    bool was_fired = cell.fired;
    CQ_RETURN_NOT_OK(StoreCell(key, w, cell));
    Trigger* trigger = GetOrCreateTrigger(key, w, was_fired);
    CQ_RETURN_NOT_OK(HandleTriggerAction(
        trigger->OnElement(ts, ctx.processing_time), key, w, out));
  }
  return Status::OK();
}

bool WindowedAggregateOperator::CanProcessColumnar(
    const std::vector<ValueType>& in_types, std::vector<ValueType>*) const {
  for (size_t idx : config_.key_indexes) {
    if (idx >= in_types.size()) return false;
  }
  for (const auto& a : config_.aggs) {
    if (a.input == nullptr) continue;  // COUNT(*): no input column
    ValueType t;
    if (!CanVectorize(*a.input, in_types, &t)) return false;
  }
  return true;
}

Status WindowedAggregateOperator::ProcessColumnarSegment(
    size_t, const ColumnarBatch& batch, size_t begin, size_t end,
    const OperatorContext& ctx, Collector*, bool* handled) {
  *handled = false;
  if (!config_.trigger->PassiveOnElement()) return Status::OK();

  // Tumbling/sliding assigners have grid structure: a window containing ts
  // is [start, start + size) for grid starts in (ts - size, Align(ts)], so
  // windows are arithmetic (no per-row vector allocation) and cells can live
  // in dense per-key slot arrays (slot = (start - base) / slide) instead of
  // an ordered map keyed by (window, key bytes).
  Duration size = 0;
  Duration slide = 0;
  Timestamp offset = 0;
  const WindowAssigner* assigner = config_.assigner.get();
  if (const auto* t = dynamic_cast<const TumblingWindowAssigner*>(assigner)) {
    size = t->size();
    slide = t->size();
    offset = t->offset();
  } else if (const auto* s =
                 dynamic_cast<const SlidingWindowAssigner*>(assigner)) {
    size = s->size();
    slide = s->slide();
    offset = s->offset();
  }
  if (slide <= 0) return Status::OK();  // no grid: decline to per-element
  // Floor of ts to the grid (same arithmetic as the assigners; robust to
  // negative timestamps).
  auto align = [slide, offset](Timestamp ts) {
    Timestamp rem = (ts - offset) % slide;
    if (rem < 0) rem += slide;
    return ts - rem;
  };

  Timestamp min_ts = 0;
  Timestamp max_ts = 0;
  bool any = false;
  for (size_t i = begin; i < end; ++i) {
    if (!batch.IsSelected(i)) continue;
    Timestamp ts = batch.timestamp(i);
    if (!any) {
      min_ts = max_ts = ts;
      any = true;
    } else {
      min_ts = std::min(min_ts, ts);
      max_ts = std::max(max_ts, ts);
    }
  }
  if (!any) {
    *handled = true;  // nothing selected: per-element would emit nothing too
    return Status::OK();
  }
  // Minimal / maximal possible window starts across the segment bound the
  // slot range. top < base only when slide > size leaves every row windowless.
  const Timestamp base = align(min_ts - size) + slide;
  const Timestamp top = align(max_ts);
  const size_t num_slots =
      top < base ? 0 : static_cast<size_t>((top - base) / slide) + 1;
  if (num_slots > 4 * (end - begin) + 64) {
    // Degenerate sparse span (huge timestamp spread): dense slots would
    // allocate far more cells than rows, so decline to per-element.
    return Status::OK();
  }

  // Aggregate inputs as typed column loops, one evaluation per segment, and
  // a per-aggregate accumulation plan: the numeric kinds fold straight off
  // the typed storage with arithmetic identical to Combine(a, Lift(v));
  // anything else replays the generic Lift/Combine per row.
  enum class Acc { kCountStar, kCount, kSum, kMin, kMax, kGeneric };
  struct Plan {
    Acc acc;
    const Column* in;  // nullptr for COUNT(*) / generic constant input
  };
  std::vector<Column> inputs(config_.aggs.size());
  std::vector<Plan> plans(config_.aggs.size());
  for (size_t f = 0; f < config_.aggs.size(); ++f) {
    if (config_.aggs[f].input == nullptr) {
      plans[f] = {funcs_[f]->kind() == AggregateKind::kCount ? Acc::kCountStar
                                                             : Acc::kGeneric,
                  nullptr};
      continue;
    }
    inputs[f] =
        EvalVector(*config_.aggs[f].input, batch.columns(), batch.num_rows());
    const Column* in = &inputs[f];
    switch (funcs_[f]->kind()) {
      case AggregateKind::kCount:
        plans[f] = {Acc::kCount, in};
        break;
      case AggregateKind::kSum:
      case AggregateKind::kAvg:
        // Sum/avg partials are (count, double sum); only int64/double (or
        // all-NULL) inputs accumulate typed — AsDouble on anything else is
        // the row path's business.
        plans[f] = {in->type() == ValueType::kInt64 ||
                            in->type() == ValueType::kDouble ||
                            in->type() == ValueType::kNull
                        ? Acc::kSum
                        : Acc::kGeneric,
                    in};
        break;
      case AggregateKind::kMin:
        plans[f] = {Acc::kMin, in};
        break;
      case AggregateKind::kMax:
        plans[f] = {Acc::kMax, in};
        break;
      default:
        plans[f] = {Acc::kGeneric, in};
        break;
    }
  }

  // Fold: intern the key bytes once per row (encoded straight from column
  // storage), then accumulate into dense (key, slot) cells. Nothing is
  // stored or emitted until the whole segment has folded, so bailing out
  // (late row, already-fired restored window) can still replay per element.
  struct LocalCell {
    Cell cell;
    int64_t touches = 0;
    bool init = false;
  };
  std::unordered_map<std::string, uint32_t> key_ids;
  std::vector<std::string> keys;
  std::vector<std::vector<LocalCell>> cells;
  std::string key;
  // Single non-null int64 group key: intern by the raw value (one integer
  // hash per row); the serde-encoded key bytes are built only when a new
  // key id is minted.
  const Column* int_key_col = nullptr;
  if (config_.key_indexes.size() == 1) {
    const Column& kc = batch.column(config_.key_indexes[0]);
    if (kc.type() == ValueType::kInt64 && !kc.has_nulls()) int_key_col = &kc;
  }
  std::unordered_map<int64_t, uint32_t> int_key_ids;
  // Per-row lifted increments, computed once per row and then applied to
  // each containing window — adding the same increment to k cells is exactly
  // what k Combine(a, Lift(v)) calls would do.
  struct RowAcc {
    int64_t count = 0;
    double sum = 0;
    Value v;        // min/max comparand
    AggState lift;  // generic path partial
  };
  std::vector<RowAcc> row_accs(plans.size());
  for (size_t i = begin; i < end; ++i) {
    if (!batch.IsSelected(i)) continue;
    const Timestamp ts = batch.timestamp(i);
    const Timestamp last_start = align(ts);
    if (last_start <= ts - size) continue;  // slide > size gap: no window
    uint32_t id;
    if (int_key_col != nullptr) {
      auto [it, inserted] = int_key_ids.try_emplace(
          int_key_col->int64_data()[i], static_cast<uint32_t>(keys.size()));
      if (inserted) {
        key.clear();
        EncodeU32(1, &key);
        int_key_col->EncodeValueAt(i, &key);
        keys.push_back(key);
        cells.emplace_back(num_slots);
      }
      id = it->second;
    } else {
      key.clear();
      EncodeU32(static_cast<uint32_t>(config_.key_indexes.size()), &key);
      for (size_t idx : config_.key_indexes) {
        batch.column(idx).EncodeValueAt(i, &key);
      }
      auto it = key_ids.find(key);
      if (it == key_ids.end()) {
        id = static_cast<uint32_t>(keys.size());
        key_ids.emplace(key, id);
        keys.push_back(key);
        cells.emplace_back(num_slots);
      } else {
        id = it->second;
      }
    }
    std::vector<LocalCell>& row_cells = cells[id];
    for (size_t f = 0; f < plans.size(); ++f) {
      RowAcc& ra = row_accs[f];
      const Plan& p = plans[f];
      switch (p.acc) {
        case Acc::kCountStar:
          ra.count = 1;
          break;
        case Acc::kCount:
          ra.count = p.in->IsNull(i) ? 0 : 1;
          break;
        case Acc::kSum:
          // Combine(a, Lift(v)) adds (count, sum) fieldwise; NULL lifts to
          // (0, 0.0), and sum is never -0.0, so adding zero is bit-identical.
          if (p.in->IsNull(i)) {
            ra.count = 0;
            ra.sum = 0.0;
          } else {
            ra.count = 1;
            ra.sum = p.in->type() == ValueType::kInt64
                         ? static_cast<double>(p.in->int64_data()[i])
                         : p.in->double_data()[i];
          }
          break;
        case Acc::kMin:
        case Acc::kMax:
          ra.v = p.in->ValueAt(i);
          break;
        case Acc::kGeneric:
          ra.lift = funcs_[f]->Lift(p.in == nullptr
                                        ? Value(static_cast<int64_t>(1))
                                        : p.in->ValueAt(i));
          break;
      }
    }
    size_t slot = static_cast<size_t>((last_start - base) / slide);
    for (Timestamp start = last_start; start > ts - size;
         start -= slide, --slot) {
      if (start + size <= ctx.watermark) return Status::OK();  // late row
      LocalCell& lc = row_cells[slot];
      if (!lc.init) {
        CQ_ASSIGN_OR_RETURN(Cell loaded,
                            LoadCell(keys[id], {start, start + size}));
        if (loaded.fired) {
          // Already-fired restored window: refinement semantics are
          // per-element; nothing stored yet, so the segment can replay.
          return Status::OK();
        }
        lc.cell = std::move(loaded);
        lc.init = true;
      }
      for (size_t f = 0; f < plans.size(); ++f) {
        AggState& s = lc.cell.states[f];
        const RowAcc& ra = row_accs[f];
        switch (plans[f].acc) {
          case Acc::kCountStar:
          case Acc::kCount:
            s.count += ra.count;
            break;
          case Acc::kSum:
            s.count += ra.count;
            s.sum += ra.sum;
            break;
          case Acc::kMin:
            // Combine keeps a on ties, adopts v only when strictly smaller
            // (or when the partial is still empty).
            if (s.min.is_null()) {
              s.min = ra.v;
            } else if (!ra.v.is_null() && ra.v < s.min) {
              s.min = ra.v;
            }
            break;
          case Acc::kMax:
            if (s.max.is_null()) {
              s.max = ra.v;
            } else if (!ra.v.is_null() && s.max < ra.v) {
              s.max = ra.v;
            }
            break;
          case Acc::kGeneric:
            s = funcs_[f]->Combine(s, ra.lift);
            break;
        }
      }
      ++lc.touches;
    }
  }

  // Commit: one StoreCell per touched cell, plus a live trigger awaiting the
  // on-time firing (OnElement is passive, so not invoking it per element
  // emits exactly what per-element delivery would).
  for (size_t id = 0; id < keys.size(); ++id) {
    for (size_t slot = 0; slot < num_slots; ++slot) {
      LocalCell& lc = cells[id][slot];
      if (!lc.init) continue;
      Timestamp start = base + static_cast<Timestamp>(slot) * slide;
      TimeInterval w{start, start + size};
      lc.cell.since_fire += lc.touches;
      CQ_RETURN_NOT_OK(StoreCell(keys[id], w, lc.cell));
      GetOrCreateTrigger(keys[id], w, /*primed_fired=*/false);
    }
  }
  *handled = true;
  return Status::OK();
}

void WindowedAggregateOperator::AttachMetrics(MetricsRegistry* registry,
                                              const LabelSet& labels) {
  late_drop_counter_ =
      registry == nullptr
          ? nullptr
          : registry->GetCounter("cq_dataflow_late_records_dropped_total",
                                 labels);
}

Status WindowedAggregateOperator::OnWatermark(Timestamp watermark,
                                              const OperatorContext&,
                                              Collector* out) {
  // Phase 1: deliver the watermark to triggers of windows that have closed
  // (end <= watermark). The active_ map is ordered by window end, so this is
  // a prefix scan.
  std::vector<std::pair<ActiveKey, TriggerAction>> actions;
  for (auto& [akey, trigger] : active_) {
    Timestamp end = std::get<0>(akey);
    if (end > watermark) break;
    TriggerAction a = trigger->OnWatermark(watermark);
    if (a != TriggerAction::kContinue) actions.push_back({akey, a});
  }
  for (const auto& [akey, action] : actions) {
    TimeInterval w{std::get<1>(akey), std::get<0>(akey)};
    CQ_RETURN_NOT_OK(HandleTriggerAction(action, std::get<2>(akey), w, out));
  }

  // Phase 2: garbage-collect windows past their allowed lateness. Windows
  // holding an unfired residual pane (e.g. a count trigger's tail) fire one
  // final time before being dropped.
  std::vector<ActiveKey> expired;
  for (auto& [akey, trigger] : active_) {
    if (std::get<0>(akey) + config_.allowed_lateness > watermark) break;
    expired.push_back(akey);
  }
  for (const auto& akey : expired) {
    TimeInterval w{std::get<1>(akey), std::get<0>(akey)};
    const std::string& key = std::get<2>(akey);
    CQ_ASSIGN_OR_RETURN(Cell cell, LoadCell(key, w));
    if (cell.since_fire > 0) {
      CQ_RETURN_NOT_OK(FirePane(key, w, out, /*purge=*/true));
    } else {
      CQ_RETURN_NOT_OK(state_->Remove(key, WindowNamespace(w)));
      active_.erase(akey);
    }
  }
  return Status::OK();
}

Status WindowedAggregateOperator::OnProcessingTime(const OperatorContext& ctx,
                                                   Collector* out) {
  std::vector<std::pair<ActiveKey, TriggerAction>> actions;
  for (auto& [akey, trigger] : active_) {
    TriggerAction a = trigger->OnProcessingTime(ctx.processing_time);
    if (a != TriggerAction::kContinue) actions.push_back({akey, a});
  }
  for (const auto& [akey, action] : actions) {
    TimeInterval w{std::get<1>(akey), std::get<0>(akey)};
    CQ_RETURN_NOT_OK(HandleTriggerAction(action, std::get<2>(akey), w, out));
  }
  return Status::OK();
}

Result<std::string> WindowedAggregateOperator::SnapshotState() const {
  return state_->Snapshot();
}

Status WindowedAggregateOperator::RestoreState(std::string_view snapshot) {
  CQ_RETURN_NOT_OK(state_->Restore(snapshot));
  active_.clear();
  // Rebuild the active-window index (and primed triggers) from state cells.
  return state_->ForEach([this](const std::string& key, const std::string& ns,
                                const std::string& value) -> Status {
    if (ns.size() < 2 || ns[0] != 'w' || ns[1] != ':') {
      return Status::ParseError("unexpected state namespace");
    }
    std::string_view in(ns);
    in.remove_prefix(2);
    CQ_ASSIGN_OR_RETURN(Timestamp start, DecodeI64(&in));
    CQ_ASSIGN_OR_RETURN(Timestamp end, DecodeI64(&in));
    // Parse the cell's fired flag (last byte).
    bool fired = !value.empty() && value.back() != 0;
    GetOrCreateTrigger(key, TimeInterval{start, end}, fired);
    return Status::OK();
  });
}

}  // namespace cq
