#include "ft/fence.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "ft/checkpointable.h"
#include "ft/fault.h"
#include "ft/framed_file.h"
#include "types/serde.h"

namespace cq::ft {

namespace fs = std::filesystem;

namespace {

/// Magic tag prefixing a staged sink frame. A plain blob list starts with a
/// u32 element count, so no realistic slot can alias this value.
constexpr uint32_t kStagedFrameMagic = 0x46454E43;  // "FENC"

}  // namespace

DurableOutputLog::DurableOutputLog(std::string dir) : dir_(std::move(dir)) {}

Status DurableOutputLog::Init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create output dir '" + dir_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

std::string DurableOutputLog::Path(uint64_t epoch, size_t part) const {
  return dir_ + "/out-" + std::to_string(epoch) + "-" + std::to_string(part);
}

bool DurableOutputLog::Published(uint64_t epoch, size_t part) const {
  std::error_code ec;
  return fs::exists(Path(epoch, part), ec);
}

Status DurableOutputLog::Publish(uint64_t epoch, size_t part,
                                 const std::vector<std::string>& records) {
  const std::string path = Path(epoch, part);
  std::error_code ec;
  if (fs::exists(path, ec)) return Status::OK();  // already published: fence
  std::string payload;
  EncodeBlobList(records, &payload);
  return WriteFramedAtomic(path, payload, faultpoint::kSinkPublish);
}

Result<std::vector<std::string>> DurableOutputLog::ReadAll() const {
  // Collect (epoch, part) keys, read in order.
  std::vector<std::pair<uint64_t, uint64_t>> keys;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) {
    return Status::IOError("cannot list output dir '" + dir_ +
                           "': " + ec.message());
  }
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    if (name.rfind("out-", 0) != 0) continue;
    if (name.find(".tmp") != std::string::npos) continue;
    size_t dash = name.rfind('-');
    if (dash == std::string::npos || dash <= 4) continue;
    std::string epoch_str = name.substr(4, dash - 4);
    std::string part_str = name.substr(dash + 1);
    if (epoch_str.find_first_not_of("0123456789") != std::string::npos ||
        part_str.empty() ||
        part_str.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    keys.emplace_back(std::stoull(epoch_str), std::stoull(part_str));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> out;
  for (const auto& [epoch, part] : keys) {
    CQ_ASSIGN_OR_RETURN(std::string payload,
                        ReadFramed(Path(epoch, static_cast<size_t>(part))));
    std::string_view in = payload;
    CQ_ASSIGN_OR_RETURN(std::vector<std::string> records, DecodeBlobList(&in));
    for (auto& r : records) out.push_back(std::move(r));
  }
  return out;
}

// --- Staged frame codec ---

std::optional<StagedSinkFrame> TryDecodeStagedFrame(std::string_view slot) {
  std::string_view in = slot;
  Result<uint32_t> magic = DecodeU32(&in);
  if (!magic.ok() || *magic != kStagedFrameMagic) return std::nullopt;
  Result<uint64_t> part = DecodeU64(&in);
  if (!part.ok()) return std::nullopt;
  Result<std::vector<std::string>> records = DecodeBlobList(&in);
  if (!records.ok() || !in.empty()) return std::nullopt;
  StagedSinkFrame frame;
  frame.part = static_cast<size_t>(*part);
  frame.records = std::move(*records);
  return frame;
}

std::vector<StagedSinkFrame> ExtractStagedFrames(
    const std::vector<std::string>& slots) {
  std::vector<StagedSinkFrame> frames;
  for (const std::string& slot : slots) {
    if (auto frame = TryDecodeStagedFrame(slot)) {
      frames.push_back(std::move(*frame));
      continue;
    }
    // Task slots (sharded pipeline) and service images wrap their node
    // states in a blob list; look one level deep.
    std::string_view in = slot;
    Result<std::vector<std::string>> nested = DecodeBlobList(&in);
    if (!nested.ok() || !in.empty()) continue;
    for (const std::string& inner : *nested) {
      if (auto frame = TryDecodeStagedFrame(inner)) {
        frames.push_back(std::move(*frame));
      }
    }
  }
  return frames;
}

Status PublishStagedFrames(const std::vector<std::string>& slots,
                           uint64_t epoch, DurableOutputLog* log) {
  for (const StagedSinkFrame& frame : ExtractStagedFrames(slots)) {
    CQ_RETURN_NOT_OK(log->Publish(epoch, frame.part, frame.records));
  }
  return Status::OK();
}

// --- EpochSinkOperator ---

EpochSinkOperator::EpochSinkOperator(std::string name, DurableOutputLog* log,
                                     size_t part)
    : Operator(std::move(name)), log_(log), part_(part) {
  (void)log_;  // publishing moved to the coordinator; kept for diagnostics
}

std::string EpochSinkOperator::EncodeRecord(const StreamElement& element) {
  std::string out;
  EncodeI64(element.timestamp, &out);
  EncodeTuple(element.tuple, &out);
  return out;
}

Status EpochSinkOperator::ProcessElement(size_t port,
                                         const StreamElement& element,
                                         const OperatorContext& ctx,
                                         Collector* out) {
  (void)port;
  (void)ctx;
  (void)out;  // terminal: nothing flows downstream
  if (element.is_record()) pending_.push_back(EncodeRecord(element));
  return Status::OK();
}

Result<std::string> EpochSinkOperator::SnapshotState() const {
  std::string out;
  EncodeU32(kStagedFrameMagic, &out);
  EncodeU64(static_cast<uint64_t>(part_), &out);
  EncodeBlobList(pending_, &out);
  return out;
}

Status EpochSinkOperator::RestoreState(std::string_view snapshot) {
  pending_.clear();
  if (snapshot.empty()) return Status::OK();  // fresh sink
  std::optional<StagedSinkFrame> frame = TryDecodeStagedFrame(snapshot);
  if (!frame.has_value()) {
    return Status::InvalidArgument("sink '" + name() +
                                   "' received a non-staged-frame snapshot");
  }
  if (frame->part != part_) {
    return Status::InvalidArgument(
        "sink '" + name() + "' (part " + std::to_string(part_) +
        ") received the staged frame of part " + std::to_string(frame->part));
  }
  // The staged records stay with the epoch image (recovery republishes them
  // from there); the live buffer restarts empty for the next epoch.
  return Status::OK();
}

Status EpochSinkOperator::OnSnapshotStaged() {
  CQ_RETURN_NOT_OK(FaultInjector::Global().Hit(faultpoint::kFenceStage));
  pending_.clear();
  return Status::OK();
}

}  // namespace cq::ft
