#ifndef CQ_TYPES_COLUMN_H_
#define CQ_TYPES_COLUMN_H_

/// \file column.h
/// \brief Typed column storage: the building block of columnar batches.
///
/// The survey's substrate story (§5) is that modern engines exchange columnar
/// batches and run vectorized kernels over them instead of dispatching on a
/// per-row tagged union. A Column holds one attribute of a batch in a typed
/// vector — int64/double/bool flat arrays, strings as a shared character
/// buffer with offsets — plus a null bitmap, so operators can run tight
/// typed loops (`data[i] > 10`) with no std::variant dispatch per row.
///
/// A column has one scalar type for all its non-null rows. A column whose
/// rows are all NULL stays "untyped" (ValueType::kNull) and adopts the type
/// of the first non-null value appended; appending a value of a different
/// type fails, which is how the row->column converter detects mixed-type
/// batches and routes them to the row fallback path.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/tuple.h"
#include "types/value.h"

namespace cq {

class Column {
 public:
  /// \brief An untyped (all-NULL so far) column.
  Column() = default;
  /// \brief A column of `type` (kNull = untyped).
  explicit Column(ValueType type) { EnsureType(type); }

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n);

  /// \brief Appends a value, adopting its type if the column is still
  /// untyped. TypeError when the value's type conflicts with the column's.
  Status Append(const Value& v);

  /// \brief Typed appends. Precondition: the column is untyped or already of
  /// the appended type (they promote an untyped column like Append does).
  void AppendNull() {
    MarkNull(size_);
    AppendPlaceholder();
    ++size_;
  }
  void AppendInt64(int64_t v) {
    EnsureType(ValueType::kInt64);
    GrowNulls();
    i64_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    EnsureType(ValueType::kDouble);
    GrowNulls();
    f64_.push_back(v);
    ++size_;
  }
  void AppendBool(bool v) {
    EnsureType(ValueType::kBool);
    GrowNulls();
    b8_.push_back(v ? 1 : 0);
    ++size_;
  }
  void AppendString(std::string_view v) {
    EnsureType(ValueType::kString);
    GrowNulls();
    chars_.append(v.data(), v.size());
    offsets_.push_back(static_cast<uint32_t>(chars_.size()));
    ++size_;
  }

  /// \brief Appends row `i` of `src`. Precondition: this column is untyped,
  /// `src` is, or both have the same type.
  void AppendFrom(const Column& src, size_t i) {
    if (src.IsNull(i)) {
      AppendNull();
      return;
    }
    switch (src.type_) {
      case ValueType::kInt64:
        AppendInt64(src.i64_[i]);
        break;
      case ValueType::kDouble:
        AppendDouble(src.f64_[i]);
        break;
      case ValueType::kBool:
        AppendBool(src.b8_[i] != 0);
        break;
      case ValueType::kString:
        AppendString(src.string_at(i));
        break;
      case ValueType::kNull:
        AppendNull();
        break;
    }
  }

  /// \brief Empties the column, keeping its storage, and types it `type`
  /// (kNull = untyped).
  void Clear(ValueType type = ValueType::kNull);

  /// \brief Whether row `i` is NULL.
  bool IsNull(size_t i) const {
    return has_nulls_ && ((nulls_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  bool has_nulls() const { return has_nulls_; }

  /// \brief Raw typed storage. Preconditions mirror type(); entries at NULL
  /// rows are unspecified placeholders and must not be interpreted.
  const int64_t* int64_data() const { return i64_.data(); }
  const double* double_data() const { return f64_.data(); }
  /// 0/1 per row.
  const uint8_t* bool_data() const { return b8_.data(); }
  std::string_view string_at(size_t i) const {
    return std::string_view(chars_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  /// \brief Materializes row `i` as a Value (row-fallback conversion).
  Value ValueAt(size_t i) const;

  /// \brief `ValueAt(i).Hash()`, without materializing the Value.
  uint64_t HashAt(size_t i) const;

  /// \brief `ValueAt(i).Compare(v)` and `ValueAt(i).Compare(other.ValueAt(j))`
  /// (Value's total order), without materializing a Value.
  int CompareAt(size_t i, const Value& v) const;
  int CompareAt(size_t i, const Column& other, size_t j) const;

  /// \brief Appends the serde encoding of row `i` to `out`, byte-identical
  /// to `EncodeValue(ValueAt(i), out)` but without materializing the Value —
  /// used for state/join keys built straight from columns.
  void EncodeValueAt(size_t i, std::string* out) const;

  /// \brief Semantic equality: same type, size, null pattern, and non-null
  /// values. Placeholder bytes under NULL rows are ignored.
  bool operator==(const Column& other) const;
  bool operator!=(const Column& other) const { return !(*this == other); }

  /// \brief Approximate resident bytes (storage vectors + null bitmap).
  size_t ApproxBytes() const;

 private:
  /// Adopts `t` for an untyped column, backfilling placeholder storage for
  /// any already-appended NULL rows. Appending a conflicting type is a
  /// precondition violation of the typed appends; Append(Value) checks first.
  void EnsureType(ValueType t);
  /// Keeps the null bitmap covering `size_ + 1` rows when nulls exist.
  void GrowNulls() {
    if (has_nulls_ && (size_ >> 6) == nulls_.size()) nulls_.push_back(0);
  }
  void MarkNull(size_t i);
  /// Appends an unspecified placeholder slot in the typed storage (NULL row).
  void AppendPlaceholder();

  ValueType type_ = ValueType::kNull;
  size_t size_ = 0;
  bool has_nulls_ = false;
  std::vector<uint64_t> nulls_;  // bitmap, bit = 1 -> NULL
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> b8_;
  std::vector<uint32_t> offsets_;  // strings: size_+1 entries once typed
  std::string chars_;              // strings: shared character buffer
};

/// \brief Row `i` of the first `ncols` of `cols` as a tuple.
Tuple TupleAt(const std::vector<Column>& cols, size_t ncols, size_t i);

}  // namespace cq

#endif  // CQ_TYPES_COLUMN_H_
