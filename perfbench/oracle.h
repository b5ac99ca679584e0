#ifndef CQ_PERFBENCH_ORACLE_H_
#define CQ_PERFBENCH_ORACLE_H_

/// \file oracle.h
/// \brief In-process references for one run: the correctness oracle and
/// the per-layer replay of the recorded input.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload.h"

namespace cq::perfbench {

/// \brief Order-insensitive digest of a set of result frames: the frame
/// count and the wrapping sum of Hash64 over each frame's "t=<ts> <tuple>"
/// text.
struct Digest {
  uint64_t frames = 0;
  uint64_t hash_sum = 0;

  void Add(uint64_t h) {
    ++frames;
    hash_sum += h;
  }
  bool operator==(const Digest& o) const {
    return frames == o.frames && hash_sum == o.hash_sum;
  }
};

/// \brief One feed's results split by the watermark that released them
/// (index = WatermarkIndex of the frame's t=). A batch a subscription
/// channel dropped shows as one empty period, which tells a lost batch from
/// a wrong result.
using PeriodDigests = std::vector<Digest>;

/// \brief Adds a frame released by watermark `period` to `d`.
inline void AddToPeriod(PeriodDigests* d, uint64_t period, uint64_t hash) {
  if (d->size() <= period) d->resize(period + 1);
  (*d)[period].Add(hash);
}

/// \brief Replays frames [0, frames) through an in-process, unsharded
/// QueryService with the workload's queries and returns each query's
/// digests, in registration order.
Result<std::vector<PeriodDigests>> RunOracle(const Workload& workload,
                                             const Traffic& traffic,
                                             uint64_t frames);

struct LayerReplay {
  double decode_ns_per_frame = 0;  // FrameReader::Next
  double parse_ns_per_record = 0;  // ParseRow
  double mux_ns_per_frame = 0;     // SubscriberMux::Pump, per frame
};

/// \brief Re-runs the first `frames` input frames through the server's
/// building blocks in process, in the style of bench_e14: the wire bytes
/// through FrameReader::Next, each PUSH row through ParseRow, and the
/// workload's feeds through SubscriberMux::Pump over discarding sinks.
Result<LayerReplay> ReplayLayers(const Workload& workload,
                                 const Traffic& traffic, uint64_t frames);

}  // namespace cq::perfbench

#endif  // CQ_PERFBENCH_ORACLE_H_
