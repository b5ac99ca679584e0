#include "types/serde.h"

#include <cstring>

namespace cq {

void EncodeU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void EncodeU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void EncodeI64(int64_t v, std::string* out) {
  EncodeU64(static_cast<uint64_t>(v), out);
}

void EncodeF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  EncodeU64(bits, out);
}

void EncodeString(std::string_view s, std::string* out) {
  EncodeU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

namespace {
Status Underflow() { return Status::ParseError("serde: buffer underflow"); }
}  // namespace

Result<uint32_t> DecodeU32(std::string_view* in) {
  if (in->size() < 4) return Underflow();
  uint32_t v;
  std::memcpy(&v, in->data(), 4);
  in->remove_prefix(4);
  return v;
}

Result<uint64_t> DecodeU64(std::string_view* in) {
  if (in->size() < 8) return Underflow();
  uint64_t v;
  std::memcpy(&v, in->data(), 8);
  in->remove_prefix(8);
  return v;
}

Result<int64_t> DecodeI64(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint64_t v, DecodeU64(in));
  return static_cast<int64_t>(v);
}

Result<double> DecodeF64(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint64_t bits, DecodeU64(in));
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<std::string> DecodeString(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint32_t len, DecodeU32(in));
  if (in->size() < len) return Underflow();
  std::string out(in->substr(0, len));
  in->remove_prefix(len);
  return out;
}

void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      out->push_back(v.bool_value() ? 1 : 0);
      break;
    case ValueType::kInt64:
      EncodeI64(v.int64_value(), out);
      break;
    case ValueType::kDouble:
      EncodeF64(v.double_value(), out);
      break;
    case ValueType::kString:
      EncodeString(v.string_value(), out);
      break;
  }
}

Result<Value> DecodeValue(std::string_view* in) {
  if (in->empty()) return Underflow();
  auto type = static_cast<ValueType>((*in)[0]);
  in->remove_prefix(1);
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      if (in->empty()) return Underflow();
      bool b = (*in)[0] != 0;
      in->remove_prefix(1);
      return Value(b);
    }
    case ValueType::kInt64: {
      CQ_ASSIGN_OR_RETURN(int64_t i, DecodeI64(in));
      return Value(i);
    }
    case ValueType::kDouble: {
      CQ_ASSIGN_OR_RETURN(double d, DecodeF64(in));
      return Value(d);
    }
    case ValueType::kString: {
      CQ_ASSIGN_OR_RETURN(std::string s, DecodeString(in));
      return Value(std::move(s));
    }
  }
  return Status::ParseError("serde: unknown value type tag");
}

void EncodeTuple(const Tuple& t, std::string* out) {
  EncodeU32(static_cast<uint32_t>(t.size()), out);
  for (const auto& v : t.values()) EncodeValue(v, out);
}

Result<Tuple> DecodeTuple(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint32_t arity, DecodeU32(in));
  // Every value takes at least its 1-byte tag, so an arity beyond the bytes
  // left is malformed; checking first keeps reserve() bounded by the input.
  if (arity > in->size()) return Underflow();
  std::vector<Value> vals;
  vals.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    CQ_ASSIGN_OR_RETURN(Value v, DecodeValue(in));
    vals.push_back(std::move(v));
  }
  return Tuple(std::move(vals));
}

std::string TupleToBytes(const Tuple& t) {
  std::string out;
  EncodeTuple(t, &out);
  return out;
}

Result<Tuple> TupleFromBytes(std::string_view bytes) {
  std::string_view in = bytes;
  return DecodeTuple(&in);
}

}  // namespace cq
