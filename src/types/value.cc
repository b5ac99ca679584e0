#include "types/value.h"

#include <charconv>
#include <cmath>

namespace cq {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // Numeric cross-type comparison: INT64 and DOUBLE compare by value.
  if (is_numeric() && other.is_numeric()) {
    if (is_int64() && other.is_int64()) {
      int64_t a = int64_value(), b = other.int64_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      int a = bool_value(), b = other.bool_value();
      return a - b;
    }
    case ValueType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // unreachable: numerics handled above
  }
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return HashNull();
    case ValueType::kBool:
      return HashBool(bool_value());
    case ValueType::kInt64:
      return HashInt64(int64_value());
    case ValueType::kDouble:
      return HashDouble(double_value());
    case ValueType::kString:
      return HashString(string_value());
  }
  return 0;
}

uint64_t Value::HashDouble(double d) {
  // Hash doubles that are exact integers identically to the integer so
  // that Compare-equal values hash equal (required by hash containers).
  if (d == std::floor(d) && d >= -9.2e18 && d <= 9.2e18) {
    return HashInt64(static_cast<int64_t>(d));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return MixU64(bits);
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return bool_value() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(int64_value());
    case ValueType::kDouble: {
      // Shortest text that parses back to the same double: 1234567.89 stays
      // "1234567.89" on the wire, not a 6-digit "1.23457e+06".
      char buf[32];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), double_value());
      (void)ec;  // 32 bytes hold any double's shortest form
      return std::string(buf, end);
    }
    case ValueType::kString:
      return "'" + string_value() + "'";
  }
  return "?";
}

namespace {

Status NumericOperandError(const char* op, const Value& a, const Value& b) {
  return Status::TypeError(std::string("operator ") + op +
                           " requires numeric operands, got " +
                           ValueTypeToString(a.type()) + " and " +
                           ValueTypeToString(b.type()));
}

}  // namespace

Result<Value> Value::Add(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_string() && b.is_string()) {
    return Value(a.string_value() + b.string_value());
  }
  if (!a.is_numeric() || !b.is_numeric()) return NumericOperandError("+", a, b);
  if (a.is_int64() && b.is_int64()) {
    return Value(a.int64_value() + b.int64_value());
  }
  return Value(a.AsDouble() + b.AsDouble());
}

Result<Value> Value::Subtract(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) return NumericOperandError("-", a, b);
  if (a.is_int64() && b.is_int64()) {
    return Value(a.int64_value() - b.int64_value());
  }
  return Value(a.AsDouble() - b.AsDouble());
}

Result<Value> Value::Multiply(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) return NumericOperandError("*", a, b);
  if (a.is_int64() && b.is_int64()) {
    return Value(a.int64_value() * b.int64_value());
  }
  return Value(a.AsDouble() * b.AsDouble());
}

Result<Value> Value::Divide(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) return NumericOperandError("/", a, b);
  if (b.is_int64() && b.int64_value() == 0) {
    return Status::InvalidArgument("division by zero");
  }
  if (b.is_double() && b.double_value() == 0.0) {
    return Status::InvalidArgument("division by zero");
  }
  if (a.is_int64() && b.is_int64()) {
    return Value(a.int64_value() / b.int64_value());
  }
  return Value(a.AsDouble() / b.AsDouble());
}

Result<Value> Value::Modulo(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_int64() || !b.is_int64()) {
    return Status::TypeError("operator % requires INT64 operands");
  }
  if (b.int64_value() == 0) {
    return Status::InvalidArgument("modulo by zero");
  }
  return Value(a.int64_value() % b.int64_value());
}

}  // namespace cq
