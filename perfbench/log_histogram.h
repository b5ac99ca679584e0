#ifndef CQ_PERFBENCH_LOG_HISTOGRAM_H_
#define CQ_PERFBENCH_LOG_HISTOGRAM_H_

/// \file log_histogram.h
/// \brief Fixed, preallocated log-linear histogram of nanosecond values.
///
/// Each power of two is split into 64 linear sub-buckets, so a quantile is
/// exact to within 1/64 (1.6%) of its value. Recording is an index
/// computation and one increment — cheap enough for every DATA frame the
/// generator receives, and it never allocates.

#include <array>
#include <bit>
#include <cstdint>

namespace cq::perfbench {

class LogHistogram {
 public:
  void Record(int64_t ns) {
    const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    ++counts_[Index(v)];
    ++total_;
  }

  uint64_t count() const { return total_; }

  /// \brief The value at quantile q in [0, 1] (bucket midpoint); 0 when
  /// empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) rank = total_ - 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return Midpoint(i);
    }
    return Midpoint(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = 1u << kSubBits;
  static constexpr int kOctaves = 40;  // up to ~2^45 ns, far beyond a run

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);  // >= kSubBits
    const int octave = msb - kSubBits + 1;
    if (octave >= kOctaves) return kBuckets - 1;
    const uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(octave) * kSub + static_cast<size_t>(sub);
  }

  static double Midpoint(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t octave = i / kSub;
    const uint64_t sub = i % kSub;
    const int shift = static_cast<int>(octave) - 1;
    const double lo = static_cast<double>((kSub + sub) << shift);
    const double width = static_cast<double>(uint64_t{1} << shift);
    return lo + width / 2;
  }

  static constexpr size_t kBuckets = kOctaves * kSub;
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

}  // namespace cq::perfbench

#endif  // CQ_PERFBENCH_LOG_HISTOGRAM_H_
