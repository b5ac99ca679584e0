#ifndef CQ_FT_CHECKPOINTABLE_H_
#define CQ_FT_CHECKPOINTABLE_H_

/// \file checkpointable.h
/// \brief The single checkpoint/restore traversal every pipeline exposes.
///
/// Checkpointable gives the synchronous PipelineExecutor, the threaded
/// shard::ShardedPipeline and the query services one checkpoint image
/// format and restore walk: a pipeline is a sequence of *state slots* (one
/// per operator for the executor; a meta slot plus one per task for the
/// sharded pipeline, each task slot itself a blob list of its operators),
/// and the CheckpointCoordinator snapshots, diffs, persists, and restores
/// slots without knowing which pipeline shape it is driving.
///
/// Header-only (interface + inline codec) so src/dataflow can implement it
/// without a link-time dependency on the ft library.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/serde.h"

namespace cq::ft {

/// \brief A pipeline whose state can be snapshotted and restored as an
/// ordered list of opaque slot blobs.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// \brief Brings the pipeline to an aligned point: all accepted input
  /// fully processed, no in-flight work. Called before SnapshotSlots /
  /// RestoreSlots by stop-the-world checkpoints; barrier-based checkpoints
  /// align in-band instead.
  virtual Status QuiesceForSnapshot() { return Status::OK(); }

  /// \brief Serializes every state slot, in a stable order.
  virtual Result<std::vector<std::string>> SnapshotSlots() = 0;

  /// \brief Restores from a SnapshotSlots image. Slot count must match the
  /// pipeline's shape (node count / parallelism).
  virtual Status RestoreSlots(const std::vector<std::string>& slots) = 0;
};

/// \brief A pipeline that supports in-band epoch barriers (Chandy-Lamport
/// style aligned snapshots without quiescing): the coordinator injects a
/// barrier at the source side, each internal consumer snapshots its slot
/// when the barrier reaches it, and processing continues immediately.
class BarrierInjectable {
 public:
  /// \brief Invoked (possibly from a worker thread) with one slot's
  /// snapshot when the barrier for `epoch` passes it.
  using BarrierHandler = std::function<void(uint64_t epoch, size_t slot,
                                            Result<std::string> snapshot)>;

  virtual ~BarrierInjectable() = default;

  /// \brief Registers the per-slot snapshot callback. Must be set before
  /// the pipeline starts.
  virtual void SetBarrierHandler(BarrierHandler handler) = 0;

  /// \brief Injects the epoch barrier after all previously sent records —
  /// the snapshot for `epoch` reflects exactly the pre-barrier prefix.
  virtual Status InjectBarrier(uint64_t epoch) = 0;

  /// \brief Number of slots the handler will report per epoch.
  virtual size_t BarrierFanIn() const = 0;
};

/// \brief Appends a length-prefixed blob list: [u32 n][string]*n.
inline void EncodeBlobList(const std::vector<std::string>& blobs,
                           std::string* out) {
  EncodeU32(static_cast<uint32_t>(blobs.size()), out);
  for (const auto& b : blobs) EncodeString(b, out);
}

/// \brief Decodes a blob list from the front of `in`, advancing it.
inline Result<std::vector<std::string>> DecodeBlobList(std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint32_t n, DecodeU32(in));
  std::vector<std::string> blobs;
  blobs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string b, DecodeString(in));
    blobs.push_back(std::move(b));
  }
  return blobs;
}

/// \brief Appends an offset map: [u32 m]([string key][i64 offset])*m.
inline void EncodeOffsetMap(const std::map<std::string, int64_t>& offsets,
                            std::string* out) {
  EncodeU32(static_cast<uint32_t>(offsets.size()), out);
  for (const auto& [name, offset] : offsets) {
    EncodeString(name, out);
    EncodeI64(offset, out);
  }
}

/// \brief Decodes an offset map from the front of `in`, advancing it.
inline Result<std::map<std::string, int64_t>> DecodeOffsetMap(
    std::string_view* in) {
  CQ_ASSIGN_OR_RETURN(uint32_t m, DecodeU32(in));
  std::map<std::string, int64_t> offsets;
  for (uint32_t i = 0; i < m; ++i) {
    CQ_ASSIGN_OR_RETURN(std::string name, DecodeString(in));
    CQ_ASSIGN_OR_RETURN(int64_t offset, DecodeI64(in));
    offsets[std::move(name)] = offset;
  }
  return offsets;
}

/// \brief The one on-the-wire checkpoint image format: slot blob list
/// followed by source offsets. Used by PipelineExecutor::Checkpoint,
/// ShardedPipeline::Checkpoint, and the SnapshotStore payloads.
inline std::string EncodeCheckpointImage(
    const std::vector<std::string>& slots,
    const std::map<std::string, int64_t>& source_offsets) {
  std::string out;
  EncodeBlobList(slots, &out);
  EncodeOffsetMap(source_offsets, &out);
  return out;
}

struct CheckpointImage {
  std::vector<std::string> slots;
  std::map<std::string, int64_t> source_offsets;
};

inline Result<CheckpointImage> DecodeCheckpointImage(std::string_view image) {
  CheckpointImage out;
  CQ_ASSIGN_OR_RETURN(out.slots, DecodeBlobList(&image));
  CQ_ASSIGN_OR_RETURN(out.source_offsets, DecodeOffsetMap(&image));
  return out;
}

}  // namespace cq::ft

#endif  // CQ_FT_CHECKPOINTABLE_H_
