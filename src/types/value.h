#ifndef CQ_TYPES_VALUE_H_
#define CQ_TYPES_VALUE_H_

/// \file value.h
/// \brief Dynamically typed scalar values carried by stream tuples.
///
/// Continuous queries in the paper's lineage (CQL, streaming SQL dialects)
/// operate over relational tuples with late-bound schemas, so the engine
/// uses a compact tagged-union scalar.

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/hash.h"
#include "common/status.h"

namespace cq {

/// \brief Scalar type tags supported by the engine.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

const char* ValueTypeToString(ValueType type);

/// \brief A dynamically typed scalar: NULL, BOOL, INT64, DOUBLE, or STRING.
///
/// Ordering and equality follow SQL-ish rules with a total order extension:
/// NULL sorts lowest, numeric types compare numerically across INT64/DOUBLE,
/// and cross-type comparisons otherwise order by type tag. This total order
/// makes Value usable as a key in ordered containers and in the KV store.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(int i) : v_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(v_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int64() || is_double(); }

  /// \brief Unchecked accessors; preconditions mirror the type tests above.
  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int64_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }

  /// \brief Numeric value widened to double; precondition: is_numeric().
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : double_value();
  }

  /// \brief Three-way total-order comparison (see class comment).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// \brief Stable (cross-process reproducible) hash.
  uint64_t Hash() const;

  /// \brief Hash() of a value of each kind, for hashing straight from
  /// typed storage (columns) without building the Value.
  static uint64_t HashNull() { return 0x9ae16a3b2f90404fULL; }
  static uint64_t HashBool(bool b) { return MixU64(b ? 2 : 1); }
  static uint64_t HashInt64(int64_t i) {
    return MixU64(static_cast<uint64_t>(i));
  }
  static uint64_t HashDouble(double d);
  static uint64_t HashString(std::string_view s) { return Fnv1a64(s); }

  /// \brief SQL-style rendering: NULL, true, 42, 3.5, 'text'.
  std::string ToString() const;

  /// \brief Arithmetic with numeric promotion; Status on type mismatch.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Subtract(const Value& a, const Value& b);
  static Result<Value> Multiply(const Value& a, const Value& b);
  static Result<Value> Divide(const Value& a, const Value& b);
  static Result<Value> Modulo(const Value& a, const Value& b);

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

}  // namespace cq

namespace std {
template <>
struct hash<cq::Value> {
  size_t operator()(const cq::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // CQ_TYPES_VALUE_H_
