#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "cql/expr.h"
#include "cql/vector_eval.h"
#include "runtime/columnar_batch.h"
#include "types/column.h"
#include "types/serde.h"

namespace cq {
namespace {

// --- Column storage ---------------------------------------------------------

TEST(ColumnTest, AppendAndReadBack) {
  Column c;
  ASSERT_TRUE(c.Append(Value(int64_t{7})).ok());
  ASSERT_TRUE(c.Append(Value()).ok());
  ASSERT_TRUE(c.Append(Value(int64_t{-3})).ok());
  EXPECT_EQ(c.type(), ValueType::kInt64);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.ValueAt(0), Value(int64_t{7}));
  EXPECT_TRUE(c.ValueAt(1).is_null());
  EXPECT_EQ(c.ValueAt(2), Value(int64_t{-3}));
}

TEST(ColumnTest, LeadingNullsBackfillOnFirstTypedAppend) {
  Column c;
  ASSERT_TRUE(c.Append(Value()).ok());
  ASSERT_TRUE(c.Append(Value()).ok());
  EXPECT_EQ(c.type(), ValueType::kNull);
  ASSERT_TRUE(c.Append(Value("abc")).ok());
  EXPECT_EQ(c.type(), ValueType::kString);
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.ValueAt(2), Value("abc"));
}

TEST(ColumnTest, MixedTypesRejected) {
  Column c;
  ASSERT_TRUE(c.Append(Value(int64_t{1})).ok());
  EXPECT_FALSE(c.Append(Value("str")).ok());
}

TEST(ColumnTest, EncodeValueAtMatchesRowEncoding) {
  std::vector<Value> vals = {Value(int64_t{5}), Value(),      Value(2.25),
                             Value("xyz"),      Value(true),  Value(""),
                             Value(int64_t{0}), Value(false), Value(-1.5)};
  // Group by column type (a Column holds one type + nulls).
  std::vector<std::vector<Value>> cols = {
      {vals[0], vals[1], vals[6]},           // int64 with a null
      {vals[2], vals[8], Value()},           // double with a null
      {vals[3], vals[5], Value()},           // string with a null
      {vals[4], vals[7], Value()},           // bool with a null
  };
  for (const auto& col_vals : cols) {
    Column c;
    for (const Value& v : col_vals) ASSERT_TRUE(c.Append(v).ok());
    for (size_t i = 0; i < col_vals.size(); ++i) {
      std::string via_column, via_value;
      c.EncodeValueAt(i, &via_column);
      EncodeValue(col_vals[i], &via_value);
      EXPECT_EQ(via_column, via_value) << "index " << i;
    }
  }
}

// --- ColumnarBatch ----------------------------------------------------------

StreamBatch MixedRowBatch() {
  StreamBatch rows;
  rows.AddRecord(Tuple({Value(int64_t{1}), Value("a"), Value(1.5)}), 10);
  rows.AddRecord(Tuple({Value(int64_t{2}), Value(), Value(2.5)}), 12);
  rows.AddWatermark(11);
  rows.AddRecord(Tuple({Value(), Value("c"), Value()}), 14);
  rows.AddWatermark(13);
  rows.AddWatermark(15);
  return rows;
}

TEST(ColumnTest, HashAndCompareAtMatchTheMaterializedValue) {
  // Every kind of value, NULLs and the numeric corner cases included, in
  // one column per type; an untyped all-NULL column besides.
  const std::vector<std::vector<Value>> per_type = {
      {Value(true), Value(false), Value()},
      {Value(int64_t{-1}), Value(int64_t{0}), Value(int64_t{5}),
       Value(int64_t{INT64_MIN}), Value()},
      {Value(0.0), Value(-0.0), Value(5.0), Value(0.5), Value(1e300),
       Value(-2.5), Value()},
      {Value(std::string()), Value("a"), Value("ab"), Value("b"), Value()},
      {Value(), Value()},
  };
  std::vector<Column> cols(per_type.size());
  std::vector<Value> all;
  for (size_t t = 0; t < per_type.size(); ++t) {
    for (const Value& v : per_type[t]) {
      ASSERT_TRUE(cols[t].Append(v).ok());
      all.push_back(v);
    }
  }
  for (const Column& c : cols) {
    for (size_t i = 0; i < c.size(); ++i) {
      const Value vi = c.ValueAt(i);
      EXPECT_EQ(c.HashAt(i), vi.Hash()) << vi.ToString();
      for (const Value& v : all) {
        EXPECT_EQ(c.CompareAt(i, v), vi.Compare(v))
            << vi.ToString() << " vs " << v.ToString();
      }
      for (const Column& d : cols) {
        for (size_t j = 0; j < d.size(); ++j) {
          EXPECT_EQ(c.CompareAt(i, d, j), vi.Compare(d.ValueAt(j)))
              << vi.ToString() << " vs " << d.ValueAt(j).ToString();
        }
      }
    }
  }
}

TEST(ColumnTest, ClearKeepsNothingButStorage) {
  Column c;
  ASSERT_TRUE(c.Append(Value("x")).ok());
  ASSERT_TRUE(c.Append(Value()).ok());
  c.Clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.type(), ValueType::kNull);
  EXPECT_FALSE(c.has_nulls());
  // A cleared column takes any type again.
  ASSERT_TRUE(c.Append(Value(int64_t{4})).ok());
  EXPECT_EQ(c.ValueAt(0), Value(int64_t{4}));
  // Cleared to a type, it keeps that type through NULL rows.
  c.Clear(ValueType::kString);
  EXPECT_EQ(c.type(), ValueType::kString);
  c.AppendNull();
  c.AppendString("y");
  EXPECT_EQ(c.type(), ValueType::kString);
  EXPECT_TRUE(c.ValueAt(0).is_null());
  EXPECT_EQ(c.ValueAt(1), Value("y"));
}

TEST(ColumnarBatchTest, RowColumnRowRoundTripPreservesEverything) {
  StreamBatch rows = MixedRowBatch();
  Result<ColumnarBatch> cb = ColumnarBatch::FromRows(rows);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  EXPECT_EQ(cb->num_rows(), 3u);
  EXPECT_EQ(cb->watermarks().size(), 3u);
  StreamBatch back = cb->ToRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back.elements()[i].kind, rows.elements()[i].kind) << i;
    EXPECT_EQ(back.elements()[i].timestamp, rows.elements()[i].timestamp) << i;
    EXPECT_EQ(TupleToBytes(back.elements()[i].tuple),
              TupleToBytes(rows.elements()[i].tuple))
        << i;
  }
}

TEST(ColumnarBatchTest, BarriersStayOnTheRowPath) {
  StreamBatch rows;
  rows.AddRecord(Tuple({Value(int64_t{1})}), 1);
  rows.Add(StreamElement::Barrier(7));
  EXPECT_FALSE(ColumnarBatch::FromRows(rows).ok());
}

TEST(ColumnarBatchTest, RaggedArityStaysOnTheRowPath) {
  StreamBatch rows;
  rows.AddRecord(Tuple({Value(int64_t{1})}), 1);
  rows.AddRecord(Tuple({Value(int64_t{1}), Value(int64_t{2})}), 2);
  EXPECT_FALSE(ColumnarBatch::FromRows(rows).ok());
}

TEST(ColumnarBatchTest, FilterSelectionSemantics) {
  ColumnarBatch batch;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(batch.AppendRow(Tuple({Value(int64_t{i})}), i).ok());
  }
  // Predicate column: true for even i, NULL for i==4, false otherwise.
  Column keep(ValueType::kBool);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        keep.Append(i == 4 ? Value() : Value(i % 2 == 0)).ok());
  }
  batch.FilterSelection(keep);
  EXPECT_EQ(batch.SelectedCount(), 3u);  // 0, 2, 6 (4 is NULL -> no match)
  EXPECT_TRUE(batch.IsSelected(0));
  EXPECT_FALSE(batch.IsSelected(1));
  EXPECT_TRUE(batch.IsSelected(2));
  EXPECT_FALSE(batch.IsSelected(4));
  EXPECT_TRUE(batch.IsSelected(6));
  EXPECT_EQ(batch.MaxSelectedTimestamp(), 6);
  // Narrowing composes: a second filter only sees surviving rows.
  Column none(ValueType::kBool);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(none.Append(Value(false)).ok());
  batch.FilterSelection(none);
  EXPECT_EQ(batch.SelectedCount(), 0u);
  EXPECT_EQ(batch.ToRows().num_records(), 0u);
}

TEST(ColumnarBatchTest, ToRowsSkipsUnselectedButKeepsWatermarks) {
  StreamBatch rows = MixedRowBatch();
  ColumnarBatch cb = *ColumnarBatch::FromRows(rows);
  Column keep(ValueType::kBool);
  for (size_t i = 0; i < cb.num_rows(); ++i) {
    ASSERT_TRUE(keep.Append(Value(i == 2)).ok());
  }
  cb.FilterSelection(keep);
  StreamBatch back = cb.ToRows();
  EXPECT_EQ(back.num_records(), 1u);
  size_t wms = 0;
  for (const auto& e : back.elements()) {
    if (e.is_watermark()) ++wms;
  }
  EXPECT_EQ(wms, 3u);
}

// --- Vectorized expression evaluation ---------------------------------------

/// Randomized columns (int64, int64, double, string, bool) with NULLs.
std::vector<Column> RandomColumns(uint32_t seed, size_t n) {
  std::mt19937 rng(seed);
  std::vector<Column> cols(5);
  const char* strs[] = {"", "a", "bb", "ccc"};
  for (size_t i = 0; i < n; ++i) {
    auto maybe_null = [&](Value v) { return rng() % 5 == 0 ? Value() : v; };
    EXPECT_TRUE(
        cols[0].Append(maybe_null(Value(static_cast<int64_t>(rng() % 100))))
            .ok());
    EXPECT_TRUE(
        cols[1]
            .Append(maybe_null(Value(static_cast<int64_t>(rng() % 50) - 25)))
            .ok());
    EXPECT_TRUE(
        cols[2]
            .Append(maybe_null(Value(0.25 * static_cast<double>(rng() % 40))))
            .ok());
    EXPECT_TRUE(cols[3].Append(maybe_null(Value(strs[rng() % 4]))).ok());
    EXPECT_TRUE(cols[4].Append(maybe_null(Value(rng() % 2 == 0))).ok());
  }
  return cols;
}

Tuple RowOf(const std::vector<Column>& cols, size_t i) {
  std::vector<Value> vals;
  vals.reserve(cols.size());
  for (const auto& c : cols) vals.push_back(c.ValueAt(i));
  return Tuple(std::move(vals));
}

void ExpectVectorMatchesRowEval(const ExprPtr& expr,
                                const std::vector<Column>& cols, size_t n,
                                const std::string& what) {
  std::vector<ValueType> types = ColumnTypes(cols);
  ValueType out_type;
  ASSERT_TRUE(CanVectorize(*expr, types, &out_type)) << what;
  Column out = EvalVector(*expr, cols, n);
  ASSERT_EQ(out.size(), n) << what;
  for (size_t i = 0; i < n; ++i) {
    Result<Value> row = expr->Eval(RowOf(cols, i));
    ASSERT_TRUE(row.ok()) << what << " row " << i;
    std::string via_vec, via_row;
    out.EncodeValueAt(i, &via_vec);
    EncodeValue(*row, &via_row);
    EXPECT_EQ(via_vec, via_row) << what << " row " << i;
  }
}

TEST(VectorEvalTest, RandomizedEquivalenceWithRowEval) {
  std::vector<std::pair<std::string, ExprPtr>> exprs = {
      {"col", Col(0)},
      {"lit", Lit(int64_t{42})},
      {"add_ii", Bin(BinaryOp::kAdd, Col(0), Col(1))},
      {"add_id", Bin(BinaryOp::kAdd, Col(0), Col(2))},
      {"sub", Bin(BinaryOp::kSub, Col(1), Lit(int64_t{3}))},
      {"mul", Bin(BinaryOp::kMul, Col(2), Lit(2.0))},
      {"concat", Bin(BinaryOp::kAdd, Col(3), Lit("!"))},
      {"eq_str", Eq(Col(3), Lit("a"))},
      {"lt_ii", Lt(Col(0), Col(1))},
      {"gt_id", Gt(Col(0), Col(2))},
      {"and", And(Gt(Col(0), Lit(int64_t{50})), Col(4))},
      {"or", Or(Col(4), Lt(Col(1), Lit(int64_t{0})))},
      {"not", Not(Col(4))},
      {"isnull", Bin(BinaryOp::kAdd, Col(0), Col(1))},
  };
  for (uint32_t seed : {2u, 19u, 77u}) {
    std::vector<Column> cols = RandomColumns(seed, 64);
    for (const auto& [what, e] : exprs) {
      ExpectVectorMatchesRowEval(e, cols, 64, what);
    }
  }
}

TEST(VectorEvalTest, AllNullColumnsDegradeGracefully) {
  // An untyped (all-NULL) operand propagates NULL row-wise, exactly like
  // the row path.
  std::vector<Column> cols(2);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cols[0].Append(Value()).ok());
    ASSERT_TRUE(cols[1].Append(Value(int64_t{i})).ok());
  }
  for (const ExprPtr& e :
       {Bin(BinaryOp::kAdd, Col(0), Col(1)), Lt(Col(0), Col(1)),
        And(Gt(Col(1), Lit(int64_t{3})), Col(0))}) {
    ExpectVectorMatchesRowEval(e, cols, 8, "all-null operand");
  }
}

TEST(VectorEvalTest, DivisionAndTypeErrorsAreRejectedUpFront) {
  std::vector<Column> cols = RandomColumns(1, 4);
  std::vector<ValueType> types = ColumnTypes(cols);
  ValueType t;
  // Division can fail per row (divide by zero): never vectorized.
  EXPECT_FALSE(CanVectorize(*Bin(BinaryOp::kDiv, Col(0), Col(1)), types, &t));
  EXPECT_FALSE(CanVectorize(*Bin(BinaryOp::kMod, Col(0), Col(1)), types, &t));
  // String arithmetic other than + is a row-path TypeError: rejected.
  EXPECT_FALSE(CanVectorize(*Bin(BinaryOp::kSub, Col(3), Col(3)), types, &t));
  // Cross-type comparison (int vs string) would TypeError row-wise.
  EXPECT_FALSE(CanVectorize(*Lt(Col(0), Col(3)), types, &t));
  // Out-of-range column reference.
  EXPECT_FALSE(CanVectorize(*Col(9), types, &t));
}

}  // namespace
}  // namespace cq
