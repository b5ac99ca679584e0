#ifndef CQ_TYPES_TUPLE_H_
#define CQ_TYPES_TUPLE_H_

/// \file tuple.h
/// \brief Relational tuples: the data items carried by streams (the o in the
/// stream elements (o, tau) of Definition 2.2).

#include <initializer_list>
#include <string>
#include <vector>

#include "common/hash.h"
#include "types/schema.h"
#include "types/value.h"

namespace cq {

/// \brief A fixed-arity row of Values. Schema is tracked out-of-band (by the
/// operator / plan), keeping tuples lean on hot paths.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& at(size_t i) const { return values_[i]; }
  const Value& operator[](size_t i) const { return values_[i]; }
  Value& operator[](size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// \brief Concatenation (join output construction).
  static Tuple Concat(const Tuple& left, const Tuple& right) {
    std::vector<Value> vals = left.values_;
    vals.insert(vals.end(), right.values_.begin(), right.values_.end());
    return Tuple(std::move(vals));
  }

  /// \brief Projection onto the given column indexes.
  Tuple Project(const std::vector<size_t>& indexes) const {
    std::vector<Value> vals;
    vals.reserve(indexes.size());
    for (size_t i : indexes) vals.push_back(values_[i]);
    return Tuple(std::move(vals));
  }

  int Compare(const Tuple& other) const {
    size_t n = values_.size() < other.values_.size() ? values_.size()
                                                     : other.values_.size();
    for (size_t i = 0; i < n; ++i) {
      int c = values_[i].Compare(other.values_[i]);
      if (c != 0) return c;
    }
    if (values_.size() != other.values_.size()) {
      return values_.size() < other.values_.size() ? -1 : 1;
    }
    return 0;
  }

  bool operator==(const Tuple& other) const { return Compare(other) == 0; }
  bool operator!=(const Tuple& other) const { return Compare(other) != 0; }
  bool operator<(const Tuple& other) const { return Compare(other) < 0; }

  /// \brief The seed Hash() and ProjectedHash() fold each Value::Hash()
  /// into with HashCombine; a key hashed straight from columns starts here
  /// to land on the same hash as its tuple.
  static constexpr size_t kHashSeed = 0x51ed270b;

  uint64_t Hash() const {
    size_t h = kHashSeed;
    for (const auto& v : values_) h = HashCombine(h, v.Hash());
    return h;
  }

  /// \brief Project(indexes).Hash(), without building the projection.
  uint64_t ProjectedHash(const std::vector<size_t>& indexes) const {
    size_t h = kHashSeed;
    for (size_t i : indexes) h = HashCombine(h, values_[i].Hash());
    return h;
  }

  /// \brief Project(indexes) == other, without building the projection.
  bool ProjectionEquals(const std::vector<size_t>& indexes,
                        const Tuple& other) const {
    if (indexes.size() != other.size()) return false;
    for (size_t i = 0; i < indexes.size(); ++i) {
      if (values_[indexes[i]].Compare(other.values_[i]) != 0) return false;
    }
    return true;
  }

  /// \brief "(v1, v2, ...)".
  std::string ToString() const {
    std::string out = "(";
    for (size_t i = 0; i < values_.size(); ++i) {
      if (i) out += ", ";
      out += values_[i].ToString();
    }
    out += ")";
    return out;
  }

 private:
  std::vector<Value> values_;
};

}  // namespace cq

namespace std {
template <>
struct hash<cq::Tuple> {
  size_t operator()(const cq::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // CQ_TYPES_TUPLE_H_
