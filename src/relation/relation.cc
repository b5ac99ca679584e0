#include "relation/relation.h"

namespace cq {

void MultisetRelation::Add(const Tuple& t, int64_t count) {
  if (count == 0) return;
  // One tree walk: lower_bound finds the entry or the insertion hint.
  auto it = entries_.lower_bound(t);
  if (it == entries_.end() || t < it->first) {
    entries_.emplace_hint(it, t, count);
    return;
  }
  it->second += count;
  if (it->second == 0) entries_.erase(it);
}

int64_t MultisetRelation::Count(const Tuple& t) const {
  auto it = entries_.find(t);
  return it == entries_.end() ? 0 : it->second;
}

int64_t MultisetRelation::Cardinality() const {
  int64_t n = 0;
  for (const auto& [t, c] : entries_) {
    if (c > 0) n += c;
  }
  return n;
}

MultisetRelation MultisetRelation::Plus(const MultisetRelation& other) const {
  MultisetRelation out = *this;
  out.PlusInPlace(other);
  return out;
}

void MultisetRelation::PlusInPlace(const MultisetRelation& other) {
  for (const auto& [t, c] : other.entries_) Add(t, c);
}

MultisetRelation MultisetRelation::Negate() const {
  MultisetRelation out;
  for (const auto& [t, c] : entries_) out.entries_.emplace(t, -c);
  return out;
}

MultisetRelation MultisetRelation::Minus(const MultisetRelation& other) const {
  MultisetRelation out = *this;
  for (const auto& [t, c] : other.entries_) out.Add(t, -c);
  return out;
}

MultisetRelation MultisetRelation::PositivePart() const {
  MultisetRelation out;
  for (const auto& [t, c] : entries_) {
    if (c > 0) out.entries_.emplace(t, c);
  }
  return out;
}

MultisetRelation MultisetRelation::NegativePartAbs() const {
  MultisetRelation out;
  for (const auto& [t, c] : entries_) {
    if (c < 0) out.entries_.emplace(t, -c);
  }
  return out;
}

MultisetRelation MultisetRelation::Distinct() const {
  MultisetRelation out;
  for (const auto& [t, c] : entries_) {
    if (c > 0) out.entries_.emplace(t, 1);
  }
  return out;
}

std::vector<Tuple> MultisetRelation::ToBag() const {
  std::vector<Tuple> out;
  for (const auto& [t, c] : entries_) {
    for (int64_t i = 0; i < c; ++i) out.push_back(t);
  }
  return out;
}

std::string MultisetRelation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [t, c] : entries_) {
    if (!first) out += ", ";
    first = false;
    out += t.ToString();
    if (c != 1) out += " x" + std::to_string(c);
  }
  out += "}";
  return out;
}

void TimeVaryingRelation::ApplyDelta(Timestamp tau,
                                     const MultisetRelation& delta) {
  if (delta.Empty()) return;
  auto it = deltas_.find(tau);
  if (it == deltas_.end()) {
    deltas_.emplace(tau, delta);
  } else {
    it->second = it->second.Plus(delta);
    if (it->second.Empty()) deltas_.erase(it);
  }
}

MultisetRelation TimeVaryingRelation::At(Timestamp tau) const {
  MultisetRelation out;
  for (const auto& [t, d] : deltas_) {
    if (t > tau) break;
    out = out.Plus(d);
  }
  return out;
}

MultisetRelation TimeVaryingRelation::DeltaAt(Timestamp tau) const {
  auto it = deltas_.find(tau);
  return it == deltas_.end() ? MultisetRelation() : it->second;
}

std::vector<Timestamp> TimeVaryingRelation::ChangeInstants() const {
  std::vector<Timestamp> out;
  out.reserve(deltas_.size());
  for (const auto& [t, d] : deltas_) out.push_back(t);
  return out;
}

}  // namespace cq
