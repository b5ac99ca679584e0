#include "types/column.h"

#include "types/serde.h"

namespace cq {

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      b8_.reserve(n);
      break;
    case ValueType::kInt64:
      i64_.reserve(n);
      break;
    case ValueType::kDouble:
      f64_.reserve(n);
      break;
    case ValueType::kString:
      offsets_.reserve(n + 1);
      break;
  }
}

Status Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (type_ != ValueType::kNull && v.type() != type_) {
    return Status::TypeError(std::string("column of ") +
                             ValueTypeToString(type_) + " cannot hold " +
                             ValueTypeToString(v.type()));
  }
  switch (v.type()) {
    case ValueType::kBool:
      AppendBool(v.bool_value());
      break;
    case ValueType::kInt64:
      AppendInt64(v.int64_value());
      break;
    case ValueType::kDouble:
      AppendDouble(v.double_value());
      break;
    case ValueType::kString:
      AppendString(v.string_value());
      break;
    case ValueType::kNull:
      break;  // unreachable: handled above
  }
  return Status::OK();
}

void Column::EnsureType(ValueType t) {
  if (type_ == t) return;
  type_ = t;
  // Backfill placeholder storage for rows appended while untyped (all NULL).
  switch (t) {
    case ValueType::kBool:
      b8_.assign(size_, 0);
      break;
    case ValueType::kInt64:
      i64_.assign(size_, 0);
      break;
    case ValueType::kDouble:
      f64_.assign(size_, 0.0);
      break;
    case ValueType::kString:
      offsets_.assign(size_ + 1, 0);
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::MarkNull(size_t i) {
  if (!has_nulls_) {
    has_nulls_ = true;
    nulls_.assign((i >> 6) + 1, 0);
  } else if ((i >> 6) >= nulls_.size()) {
    nulls_.resize((i >> 6) + 1, 0);
  }
  nulls_[i >> 6] |= uint64_t{1} << (i & 63);
}

void Column::AppendPlaceholder() {
  switch (type_) {
    case ValueType::kNull:
      break;  // untyped: no storage yet
    case ValueType::kBool:
      b8_.push_back(0);
      break;
    case ValueType::kInt64:
      i64_.push_back(0);
      break;
    case ValueType::kDouble:
      f64_.push_back(0.0);
      break;
    case ValueType::kString:
      // String column starts with offsets_ == {0} (set by EnsureType); an
      // empty slot repeats the current end offset.
      offsets_.push_back(static_cast<uint32_t>(chars_.size()));
      break;
  }
}

Value Column::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      return Value(b8_[i] != 0);
    case ValueType::kInt64:
      return Value(i64_[i]);
    case ValueType::kDouble:
      return Value(f64_[i]);
    case ValueType::kString:
      return Value(std::string(string_at(i)));
  }
  return Value::Null();
}

void Column::Clear(ValueType type) {
  type_ = ValueType::kNull;
  size_ = 0;
  has_nulls_ = false;
  nulls_.clear();
  i64_.clear();
  f64_.clear();
  b8_.clear();
  offsets_.clear();
  chars_.clear();
  EnsureType(type);
}

uint64_t Column::HashAt(size_t i) const {
  if (IsNull(i)) return Value::HashNull();
  switch (type_) {
    case ValueType::kNull:
      return Value::HashNull();
    case ValueType::kBool:
      return Value::HashBool(b8_[i] != 0);
    case ValueType::kInt64:
      return Value::HashInt64(i64_[i]);
    case ValueType::kDouble:
      return Value::HashDouble(f64_[i]);
    case ValueType::kString:
      return Value::HashString(string_at(i));
  }
  return Value::HashNull();
}

namespace {

/// One scalar viewed in place, from a column row or a Value.
struct ScalarView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

ScalarView ViewOf(const Value& v) {
  ScalarView out;
  out.type = v.type();
  switch (out.type) {
    case ValueType::kBool:
      out.i = v.bool_value() ? 1 : 0;
      break;
    case ValueType::kInt64:
      out.i = v.int64_value();
      break;
    case ValueType::kDouble:
      out.d = v.double_value();
      break;
    case ValueType::kString:
      out.s = v.string_value();
      break;
    case ValueType::kNull:
      break;
  }
  return out;
}

/// Value::Compare over views: numerics compare by value across INT64 and
/// DOUBLE, other cross-type pairs by type tag.
int CompareViews(const ScalarView& a, const ScalarView& b) {
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt64 || t == ValueType::kDouble;
  };
  if (numeric(a.type) && numeric(b.type)) {
    if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64) {
      return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    }
    const double x =
        a.type == ValueType::kInt64 ? static_cast<double>(a.i) : a.d;
    const double y =
        b.type == ValueType::kInt64 ? static_cast<double>(b.i) : b.d;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type != b.type) {
    return static_cast<int>(a.type) < static_cast<int>(b.type) ? -1 : 1;
  }
  switch (a.type) {
    case ValueType::kBool:
      return static_cast<int>(a.i - b.i);
    case ValueType::kString: {
      const int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // NULLs; numerics handled above
  }
}

ScalarView ViewAt(const Column& c, size_t i) {
  ScalarView out;
  if (c.IsNull(i)) return out;
  out.type = c.type();
  switch (out.type) {
    case ValueType::kBool:
      out.i = c.bool_data()[i] != 0 ? 1 : 0;
      break;
    case ValueType::kInt64:
      out.i = c.int64_data()[i];
      break;
    case ValueType::kDouble:
      out.d = c.double_data()[i];
      break;
    case ValueType::kString:
      out.s = c.string_at(i);
      break;
    case ValueType::kNull:
      break;
  }
  return out;
}

}  // namespace

int Column::CompareAt(size_t i, const Value& v) const {
  return CompareViews(ViewAt(*this, i), ViewOf(v));
}

int Column::CompareAt(size_t i, const Column& other, size_t j) const {
  return CompareViews(ViewAt(*this, i), ViewAt(other, j));
}

void Column::EncodeValueAt(size_t i, std::string* out) const {
  if (IsNull(i) || type_ == ValueType::kNull) {
    out->push_back(static_cast<char>(ValueType::kNull));
    return;
  }
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case ValueType::kBool:
      out->push_back(b8_[i] != 0 ? 1 : 0);
      break;
    case ValueType::kInt64:
      EncodeI64(i64_[i], out);
      break;
    case ValueType::kDouble:
      EncodeF64(f64_[i], out);
      break;
    case ValueType::kString:
      EncodeString(string_at(i), out);
      break;
    case ValueType::kNull:
      break;  // unreachable
  }
}

bool Column::operator==(const Column& other) const {
  if (size_ != other.size_) return false;
  for (size_t i = 0; i < size_; ++i) {
    bool n = IsNull(i), on = other.IsNull(i);
    if (n != on) return false;
    if (n) continue;
    if (type_ != other.type_) return false;
    switch (type_) {
      case ValueType::kBool:
        if (b8_[i] != other.b8_[i]) return false;
        break;
      case ValueType::kInt64:
        if (i64_[i] != other.i64_[i]) return false;
        break;
      case ValueType::kDouble:
        if (f64_[i] != other.f64_[i]) return false;
        break;
      case ValueType::kString:
        if (string_at(i) != other.string_at(i)) return false;
        break;
      case ValueType::kNull:
        break;
    }
  }
  return true;
}

Tuple TupleAt(const std::vector<Column>& cols, size_t ncols, size_t i) {
  std::vector<Value> vals;
  vals.reserve(ncols);
  for (size_t c = 0; c < ncols; ++c) vals.push_back(cols[c].ValueAt(i));
  return Tuple(std::move(vals));
}

size_t Column::ApproxBytes() const {
  return nulls_.size() * sizeof(uint64_t) + i64_.size() * sizeof(int64_t) +
         f64_.size() * sizeof(double) + b8_.size() +
         offsets_.size() * sizeof(uint32_t) + chars_.size();
}

}  // namespace cq
