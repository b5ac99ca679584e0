#include <gtest/gtest.h>

#include <charconv>

#include "types/schema.h"
#include "types/serde.h"
#include "types/tuple.h"
#include "types/value.h"

namespace cq {
namespace {

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{7}).is_int64());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(int64_t{1}).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.0), Value(int64_t{2}));
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // NULL < BOOL < numerics < STRING by type tag.
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{5}), Value("a"));
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(42.0).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value("abc").Hash(), Value("abd").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ValueTest, DoubleRendersShortestRoundTripText) {
  EXPECT_EQ(Value(1234567.89).ToString(), "1234567.89");
  EXPECT_EQ(Value(0.1234567891).ToString(), "0.1234567891");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(-3.0).ToString(), "-3");
  for (double d : {1234567.89, 0.1234567891, 1e20, -0.25, 1.0 / 3.0, 5e-324}) {
    const std::string text = Value(d).ToString();
    double back = 0;
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                     back);
    EXPECT_TRUE(ec == std::errc() && end == text.data() + text.size()) << text;
    EXPECT_EQ(back, d) << text;
  }
}

TEST(ValueTest, ArithmeticWithPromotion) {
  EXPECT_EQ(*Value::Add(Value(int64_t{2}), Value(int64_t{3})),
            Value(int64_t{5}));
  EXPECT_EQ(*Value::Add(Value(int64_t{2}), Value(0.5)), Value(2.5));
  EXPECT_EQ(*Value::Multiply(Value(int64_t{4}), Value(int64_t{3})),
            Value(int64_t{12}));
  EXPECT_EQ(*Value::Subtract(Value(10.0), Value(int64_t{4})), Value(6.0));
  EXPECT_EQ(*Value::Divide(Value(int64_t{7}), Value(int64_t{2})),
            Value(int64_t{3}));  // integer division
  EXPECT_EQ(*Value::Modulo(Value(int64_t{7}), Value(int64_t{2})),
            Value(int64_t{1}));
}

TEST(ValueTest, ArithmeticNullPropagation) {
  EXPECT_TRUE(Value::Add(Value(), Value(int64_t{1}))->is_null());
  EXPECT_TRUE(Value::Divide(Value(1.0), Value())->is_null());
}

TEST(ValueTest, ArithmeticErrors) {
  EXPECT_TRUE(Value::Divide(Value(int64_t{1}), Value(int64_t{0}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Value::Modulo(Value(int64_t{1}), Value(int64_t{0}))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Value::Add(Value(int64_t{1}), Value(true)).status().IsTypeError());
  EXPECT_TRUE(
      Value::Subtract(Value("a"), Value("b")).status().IsTypeError());
}

TEST(ValueTest, StringConcatViaAdd) {
  EXPECT_EQ(*Value::Add(Value("foo"), Value("bar")), Value("foobar"));
}

TEST(SchemaTest, FieldLookup) {
  Schema s({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(*s.FieldIndex("name"), 1u);
  EXPECT_TRUE(s.FieldIndex("missing").status().IsNotFound());
  EXPECT_TRUE(s.HasField("id"));
}

TEST(SchemaTest, QualifiedLookup) {
  auto s = Schema::Make({{"id", ValueType::kInt64}})->Qualified("P");
  EXPECT_EQ(s->field(0).name, "P.id");
  // Unqualified lookup finds the qualified field when unambiguous.
  EXPECT_EQ(*s->FieldIndex("id"), 0u);
  EXPECT_EQ(*s->FieldIndex("P.id"), 0u);
}

TEST(SchemaTest, AmbiguousUnqualifiedLookupFails) {
  auto p = Schema::Make({{"id", ValueType::kInt64}})->Qualified("P");
  auto o = Schema::Make({{"id", ValueType::kInt64}})->Qualified("O");
  auto joined = Schema::Concat(*p, *o);
  EXPECT_TRUE(joined->FieldIndex("id").status().IsInvalidArgument());
  EXPECT_EQ(*joined->FieldIndex("O.id"), 1u);
}

TEST(SchemaTest, ConcatAndEquals) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"y", ValueType::kDouble}});
  auto c = Schema::Concat(a, b);
  EXPECT_EQ(c->num_fields(), 2u);
  EXPECT_EQ(c->field(1).name, "y");
  EXPECT_TRUE(a.Equals(a));
  EXPECT_FALSE(a.Equals(b));
  EXPECT_EQ(a.ToString(), "(x INT64)");
}

TEST(TupleTest, ProjectConcatCompare) {
  Tuple t({Value(int64_t{1}), Value("a"), Value(2.5)});
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value(2.5));
  EXPECT_EQ(p[1], Value(int64_t{1}));

  Tuple u = Tuple::Concat(t, p);
  EXPECT_EQ(u.size(), 5u);

  EXPECT_LT(Tuple({Value(int64_t{1})}), Tuple({Value(int64_t{2})}));
  // Prefix tuples sort before longer ones.
  EXPECT_LT(Tuple({Value(int64_t{1})}),
            Tuple({Value(int64_t{1}), Value(int64_t{0})}));
  EXPECT_EQ(t.ToString(), "(1, 'a', 2.5)");
}

TEST(TupleTest, HashConsistentWithEquality) {
  Tuple a({Value(int64_t{1}), Value("x")});
  Tuple b({Value(1.0), Value("x")});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(SerdeTest, ValueRoundTrip) {
  for (const Value& v :
       {Value(), Value(true), Value(false), Value(int64_t{-123456789}),
        Value(3.14159), Value(""), Value("hello world")}) {
    std::string buf;
    EncodeValue(v, &buf);
    std::string_view in = buf;
    Result<Value> back = DecodeValue(&in);
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(*back, v);
    EXPECT_EQ(back->type(), v.type());
    EXPECT_TRUE(in.empty());
  }
}

TEST(SerdeTest, TupleRoundTrip) {
  Tuple t({Value(int64_t{5}), Value("room-3"), Value(), Value(1.25)});
  Result<Tuple> back = TupleFromBytes(TupleToBytes(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
  EXPECT_EQ(back->at(2).type(), ValueType::kNull);
}

TEST(SerdeTest, UnderflowIsAnError) {
  std::string buf;
  EncodeU64(7, &buf);
  buf.resize(3);
  std::string_view in = buf;
  EXPECT_TRUE(DecodeU64(&in).status().IsParseError());
  std::string_view empty;
  EXPECT_TRUE(DecodeValue(&empty).status().IsParseError());
}

TEST(SerdeTest, TupleArityBeyondInputIsAnError) {
  // A 4-byte arity with no values behind it: every value needs at least its
  // tag byte, so the decoder must reject it before sizing any buffer.
  for (std::string bytes : {std::string("\xff\xff\xff\xff", 4),
                            std::string("\xff\xff\xff\x0f", 4)}) {
    Result<Tuple> t = TupleFromBytes(bytes);
    EXPECT_FALSE(t.ok());
    EXPECT_TRUE(t.status().IsParseError()) << t.status().ToString();
  }
}

TEST(SerdeTest, PrimitiveRoundTrips) {
  std::string buf;
  EncodeU32(0xDEADBEEF, &buf);
  EncodeI64(-42, &buf);
  EncodeF64(-2.5, &buf);
  EncodeString("abc", &buf);
  std::string_view in = buf;
  EXPECT_EQ(*DecodeU32(&in), 0xDEADBEEFu);
  EXPECT_EQ(*DecodeI64(&in), -42);
  EXPECT_EQ(*DecodeF64(&in), -2.5);
  EXPECT_EQ(*DecodeString(&in), "abc");
  EXPECT_TRUE(in.empty());
}

}  // namespace
}  // namespace cq
