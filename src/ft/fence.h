#ifndef CQ_FT_FENCE_H_
#define CQ_FT_FENCE_H_

/// \file fence.h
/// \brief Effectively-once output: epoch-fenced sinks over a durable log,
/// two-phase-commit style.
///
/// Checkpoint + replay alone gives at-least-once at the pipeline edge: the
/// replayed window re-fires the sink. The fence closes that gap the way
/// transactional sinks do in production systems (Flink's 2PC sinks,
/// MillWheel's idempotent production), with a staged two-phase protocol:
///
///  - Phase 1 (prepare): EpochSinkOperator buffers its output instead of
///    emitting it. At snapshot time the pending buffer is serialized *into
///    the checkpoint image* as a self-identifying staged frame, and — once
///    every node of the pipeline has captured — the live buffer is dropped
///    (OnSnapshotStaged). From that moment the buffer belongs to the epoch
///    image, not to operator memory, so post-barrier records accumulating
///    concurrently can never leak into epoch N.
///  - Phase 2 (commit): when the epoch's manifest commits, the coordinator
///    reads the slots back from the durable SnapshotStore, extracts the
///    staged frames, and publishes each to the DurableOutputLog as file
///    `out-<N>-<part>` — written atomically, and *idempotent by filename*:
///    publishing an epoch that is already on disk is a no-op.
///
/// Every crash position is then safe: before the manifest commit, recovery
/// rolls back to epoch N-1 and the window replays into a fresh buffer;
/// after the commit but before the publish, recovery re-reads the staged
/// frames from the same durable image and publishes the missing files;
/// after the publish, the re-publish hits the existing files and skips.
/// Replayed batches can never double-fire the output. An epoch that fails
/// *between* staging and manifest commit is aborted: the staged buffer died
/// with the discarded image, so the caller must recover from the previous
/// durable epoch (which replays those records).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/operator.h"

namespace cq::ft {

/// \brief Idempotent per-epoch output files under one directory.
class DurableOutputLog {
 public:
  explicit DurableOutputLog(std::string dir);

  /// \brief Creates the log directory (and parents) if missing.
  Status Init();

  /// \brief Durably writes `records` as epoch `epoch`, part `part`
  /// (tmp + fsync + atomic rename). If the epoch/part file already exists
  /// the call is a no-op — the publish fence.
  Status Publish(uint64_t epoch, size_t part,
                 const std::vector<std::string>& records);

  /// \brief True when epoch/part has been published.
  bool Published(uint64_t epoch, size_t part) const;

  /// \brief All published records, ordered by (epoch, part) then record
  /// order — the externally observable output of the pipeline.
  Result<std::vector<std::string>> ReadAll() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string Path(uint64_t epoch, size_t part) const;
  std::string dir_;
};

/// \brief A staged sink buffer extracted from a checkpoint image.
struct StagedSinkFrame {
  size_t part = 0;
  std::vector<std::string> records;
};

/// \brief Tries to parse one checkpoint slot as an EpochSinkOperator staged
/// frame (magic-tagged, fully consumed); nullopt when the slot is anything
/// else.
std::optional<StagedSinkFrame> TryDecodeStagedFrame(std::string_view slot);

/// \brief Scans a checkpoint image's slots for staged sink frames, looking
/// one level deep into task slots (blob lists of node states) so both the
/// synchronous executor's per-node layout and the sharded pipeline's
/// per-task layout are covered.
std::vector<StagedSinkFrame> ExtractStagedFrames(
    const std::vector<std::string>& slots);

/// \brief Publishes every staged frame found in `slots` as `epoch` through
/// `log` — the phase-2 commit, run against slots read back from the durable
/// SnapshotStore (or just restored by recovery).
Status PublishStagedFrames(const std::vector<std::string>& slots,
                           uint64_t epoch, DurableOutputLog* log);

/// \brief Terminal sink operator that buffers output until its epoch is
/// durable; the epoch's buffer travels inside the snapshot image and is
/// published from there.
///
/// `part` distinguishes parallel sink instances (shard index); each
/// publishes its own per-epoch file.
class EpochSinkOperator : public Operator {
 public:
  EpochSinkOperator(std::string name, DurableOutputLog* log, size_t part);

  Status ProcessElement(size_t port, const StreamElement& element,
                        const OperatorContext& ctx, Collector* out) override;

  /// \brief Serializes the pending buffer as a magic-tagged staged frame —
  /// self-identifying so the coordinator can find it among opaque slots.
  Result<std::string> SnapshotState() const override;

  /// \brief Validates the staged frame and restarts with an EMPTY live
  /// buffer: the staged records belong to the restored epoch's image and
  /// are republished from it by recovery; restoring them live would leak
  /// them into epoch N+1.
  Status RestoreState(std::string_view snapshot) override;

  /// \brief Phase-1 handoff: once the whole pipeline has snapshotted, the
  /// image owns the buffer; drop the live copy (fault point `fence.stage`).
  Status OnSnapshotStaged() override;

  size_t StateSize() const override { return pending_.size(); }

  size_t part() const { return part_; }

  /// \brief Records buffered since the last staging (tests/diagnostics).
  const std::vector<std::string>& pending() const { return pending_; }

  /// \brief Encoding used for published records: [i64 ts][tuple bytes].
  static std::string EncodeRecord(const StreamElement& element);

 private:
  DurableOutputLog* log_;
  size_t part_;
  std::vector<std::string> pending_;
};

}  // namespace cq::ft

#endif  // CQ_FT_FENCE_H_
