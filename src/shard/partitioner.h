#ifndef CQ_SHARD_PARTITIONER_H_
#define CQ_SHARD_PARTITIONER_H_

/// \file partitioner.h
/// \brief The one hash-partitioning function of the sharded runtime.
///
/// Every placement decision in src/shard — which shard a record is routed
/// to, which rows of a columnar batch a shard's selection bitmap keeps, and
/// which shard a restored state cell re-hashes to during an N→M re-shard —
/// must agree byte-for-byte, or keyed state silently splits across shards.
/// The canonical key encoding is the serde tuple encoding of the key
/// projection:
///
///   key_bytes = EncodeU32(|key|) · EncodeValue(row[key_0]) · …
///
/// which is exactly TupleToBytes(tuple.Project(key_columns)) on the row
/// path, is reproduced column-wise via Column::EncodeValueAt (documented
/// byte-identical, no Value materialisation) on the columnar path, and is
/// exactly the cell-key format KeyedStateBackend snapshots use (window
/// state keys are TupleToBytes of the key projection). The shard index is
/// Fnv1a64(key_bytes) % nshards.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "runtime/columnar_batch.h"
#include "types/serde.h"
#include "types/tuple.h"

namespace cq::shard {

class ShardPartitioner {
 public:
  ShardPartitioner() = default;
  ShardPartitioner(size_t nshards, std::vector<size_t> key_columns)
      : nshards_(nshards == 0 ? 1 : nshards),
        key_(std::move(key_columns)) {}

  size_t nshards() const { return nshards_; }
  const std::vector<size_t>& key_columns() const { return key_; }

  /// \brief Shard owning an already-encoded key (state-cell re-hashing).
  static size_t ShardOfKeyBytes(std::string_view key_bytes, size_t nshards) {
    return nshards <= 1 ? 0
                        : static_cast<size_t>(Fnv1a64(key_bytes) % nshards);
  }

  /// \brief Appends the canonical key bytes of a row of `batch` — the
  /// columnar mirror of TupleToBytes(tuple.Project(key_columns)).
  void AppendRowKeyBytes(const ColumnarBatch& batch, size_t row,
                         std::string* out) const {
    EncodeU32(static_cast<uint32_t>(key_.size()), out);
    for (size_t c : key_) batch.column(c).EncodeValueAt(row, out);
  }

  /// \brief Shard owning a record (row path). Records with no key columns
  /// configured all land on shard 0.
  size_t ShardOfTuple(const Tuple& tuple) const {
    if (nshards_ <= 1) return 0;
    return ShardOfKeyBytes(TupleToBytes(tuple.Project(key_)), nshards_);
  }

  /// \brief Shard owning a row of a columnar batch. `scratch` is reused
  /// across calls to avoid per-row allocation.
  size_t ShardOfRow(const ColumnarBatch& batch, size_t row,
                    std::string* scratch) const {
    if (nshards_ <= 1) return 0;
    scratch->clear();
    AppendRowKeyBytes(batch, row, scratch);
    return ShardOfKeyBytes(*scratch, nshards_);
  }

 private:
  size_t nshards_ = 1;
  std::vector<size_t> key_;
};

/// \brief Re-hashes KeyedStateBackend cell images across a new shard count:
/// decodes the (key, namespace, value) triples of every old shard's blob
/// and re-encodes each cell into the blob of the shard
/// ShardOfKeyBytes(key, new_shards) now owns — the N→M re-shard primitive
/// applied to operators whose KeyedStateReshardable() is true. Old shards
/// are processed in order and cells within a shard keep their (sorted)
/// snapshot order, so the result is deterministic.
Result<std::vector<std::string>> ReshardKeyedStateBlobs(
    const std::vector<std::string>& old_blobs, size_t new_shards);

}  // namespace cq::shard

#endif  // CQ_SHARD_PARTITIONER_H_
