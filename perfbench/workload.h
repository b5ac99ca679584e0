#ifndef CQ_PERFBENCH_WORKLOAD_H_
#define CQ_PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// \brief The benchmark's traffic mixes and the seeded input they share.
///
/// Every workload pushes the same stream, `trades(sym, price, qty)`, with
/// event time equal to the record sequence number and a watermark after
/// every 20 records. The frame sequence is a pure function of the seed and
/// the frame index, so the correctness oracle replays exactly what the
/// generator sent without storing it.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cq::perfbench {

constexpr uint64_t kWatermarkEvery = 20;
/// Frames per watermark period: kWatermarkEvery records, then the mark.
constexpr uint64_t kFramesPerPeriod = kWatermarkEvery + 1;

struct Workload {
  std::string name;
  /// 1 = LocalBackend; more = ShardedBackend keyed by `sym`.
  size_t shards = 1;
  /// Size of the `sym` dictionary (the aggregates' working set).
  size_t keys = 1000;
  std::vector<std::string> queries;
  /// LISTEN feeds per query, spread round-robin over the subscriber
  /// connections.
  size_t feeds_per_query = 1;
  size_t subscriber_conns = 1;
  /// Open-loop rate in records per second.
  double rate = 0;
  /// Closed-loop outstanding-frame window (unacknowledged PUSH and
  /// WATERMARK frames), sent in two batches of whole watermark periods: a
  /// multiple of 2 * kFramesPerPeriod.
  size_t window = 252;
  /// The shared prefix every query reads (run record only).
  std::string prefix;
};

/// \brief The traffic mixes; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief FNV-1a; the digest of one rendered result tuple.
inline uint64_t Hash64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Record {
  uint32_t sym = 0;  // dictionary index
  int64_t price = 0;
  int64_t qty = 0;
};

/// \brief The seeded input: a symbol dictionary and the record at each
/// sequence number. Prices are uniform in [1, 1000], quantities in
/// [1, 100].
class Traffic {
 public:
  Traffic(uint64_t seed, size_t keys) : seed_(SplitMix64(seed)) {
    names_.reserve(keys);
    for (size_t i = 0; i < keys; ++i) {
      uint64_t h = SplitMix64(seed_ ^ (0x5bd1e995ULL * (i + 1)));
      std::string name;
      for (int j = 0; j < 3; ++j) {
        name += static_cast<char>('A' + h % 26);
        h /= 26;
      }
      name += std::to_string(i);  // unique even when the letters collide
      names_.push_back(std::move(name));
    }
  }

  Record At(uint64_t seq) const {
    const uint64_t h = SplitMix64(seed_ + seq);
    Record r;
    r.sym = static_cast<uint32_t>(h % names_.size());
    r.price = 1 + static_cast<int64_t>((h >> 20) % 1000);
    r.qty = 1 + static_cast<int64_t>((h >> 40) % 100);
    return r;
  }

  const std::string& name(uint32_t i) const { return names_[i]; }

 private:
  uint64_t seed_;
  std::vector<std::string> names_;
};

// --- The frame sequence ------------------------------------------------------
//
// Frame f is a WATERMARK when f % 21 == 20, else a PUSH. Records are numbered
// 0, 1, 2, ... in frame order and the watermark carries the sequence number
// of the record just before it, so watermark n has value 20n + 19 and
// releases every record up to and including that one.

inline bool IsWatermarkFrame(uint64_t f) {
  return f % kFramesPerPeriod == kFramesPerPeriod - 1;
}
/// Sequence number of record frame f, or the value of watermark frame f.
inline uint64_t FrameSeq(uint64_t f) {
  const uint64_t records_before = f - f / kFramesPerPeriod;
  return IsWatermarkFrame(f) ? records_before - 1 : records_before;
}
/// Index of the watermark whose value is `ts`; false if `ts` is no
/// watermark value.
inline bool WatermarkIndex(int64_t ts, uint64_t* index) {
  if (ts < 0 || (static_cast<uint64_t>(ts) + 1) % kWatermarkEvery != 0) {
    return false;
  }
  *index = (static_cast<uint64_t>(ts) + 1) / kWatermarkEvery - 1;
  return true;
}

/// \brief Appends frame f as wire bytes (u32 big-endian length + payload)
/// to `out` without temporary strings, so the generator formats into one
/// reused buffer.
inline void AppendFrame(const Traffic& traffic, uint64_t f, std::string* out) {
  const size_t header = out->size();
  out->append(4, '\0');
  char num[24];
  auto put_int = [&](int64_t v) {
    auto res = std::to_chars(num, num + sizeof(num), v);
    out->append(num, static_cast<size_t>(res.ptr - num));
  };
  const uint64_t seq = FrameSeq(f);
  if (IsWatermarkFrame(f)) {
    out->append("WATERMARK trades ");
    put_int(static_cast<int64_t>(seq));
  } else {
    const Record r = traffic.At(seq);
    out->append("PUSH trades ");
    put_int(static_cast<int64_t>(seq));
    out->push_back(' ');
    out->append(traffic.name(r.sym));
    out->push_back(',');
    put_int(r.price);
    out->push_back(',');
    put_int(r.qty);
  }
  const uint32_t len = static_cast<uint32_t>(out->size() - header - 4);
  (*out)[header] = static_cast<char>(len >> 24);
  (*out)[header + 1] = static_cast<char>(len >> 16);
  (*out)[header + 2] = static_cast<char>(len >> 8);
  (*out)[header + 3] = static_cast<char>(len);
}

}  // namespace cq::perfbench

#endif  // CQ_PERFBENCH_WORKLOAD_H_
