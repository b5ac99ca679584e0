#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <random>

#include "kvstore/kvstore.h"

namespace cq {
namespace {

std::unique_ptr<KVStore> OpenMem(size_t memtable = 4096) {
  KVStoreOptions opts;
  opts.memtable_max_entries = memtable;
  return std::move(KVStore::Open(opts)).value();
}

TEST(KVStoreTest, PutGetDelete) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("b", "2").ok());
  EXPECT_EQ(*db->Get("a"), "1");
  ASSERT_TRUE(db->Put("a", "1b").ok());
  EXPECT_EQ(*db->Get("a"), "1b");
  ASSERT_TRUE(db->Delete("a").ok());
  EXPECT_TRUE(db->Get("a").status().IsNotFound());
  EXPECT_EQ(*db->Get("b"), "2");
  EXPECT_TRUE(db->Get("missing").status().IsNotFound());
}

TEST(KVStoreTest, GetAcrossFlushedRuns) {
  auto db = OpenMem(4);  // tiny memtable: force flushes
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i), std::to_string(i)).ok());
  }
  KVStoreStats stats = db->stats();
  EXPECT_GT(stats.flushes, 0u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*db->Get("k" + std::to_string(i)), std::to_string(i));
  }
}

TEST(KVStoreTest, NewestVersionWinsAcrossRuns) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("k", "old").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("k", "new").ok());
  EXPECT_EQ(*db->Get("k"), "new");
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(*db->Get("k"), "new");
}

TEST(KVStoreTest, TombstoneShadowsOlderRuns) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Delete("k").ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST(KVStoreTest, SnapshotIsolation) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("k", "v1").ok());
  KVSnapshot snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "v2").ok());
  ASSERT_TRUE(db->Delete("j").ok());
  EXPECT_EQ(*db->Get("k"), "v2");
  EXPECT_EQ(*db->Get("k", snap), "v1");
  // Snapshot reads survive flushes.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(*db->Get("k", snap), "v1");
  db->ReleaseSnapshot(snap);
}

TEST(KVStoreTest, IteratorMergesSourcesNewestWins) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("c", "3").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("b", "2").ok());
  ASSERT_TRUE(db->Put("c", "3new").ok());
  ASSERT_TRUE(db->Delete("a").ok());

  auto it = db->NewIterator();
  std::vector<std::pair<std::string, std::string>> got;
  for (; it->Valid(); it->Next()) got.emplace_back(it->key(), it->value());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair(std::string("b"), std::string("2")));
  EXPECT_EQ(got[1], std::make_pair(std::string("c"), std::string("3new")));
}

TEST(KVStoreTest, IteratorSeek) {
  auto db = OpenMem();
  for (char c = 'a'; c <= 'f'; ++c) {
    ASSERT_TRUE(db->Put(std::string(1, c), "v").ok());
  }
  auto it = db->NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "c");
  it->Seek("cc");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST(KVStoreTest, SnapshotIterator) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("a", "1").ok());
  KVSnapshot snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("b", "2").ok());
  auto it = db->NewIterator(snap);
  size_t n = 0;
  for (; it->Valid(); it->Next()) ++n;
  EXPECT_EQ(n, 1u);
  db->ReleaseSnapshot(snap);
}

TEST(KVStoreTest, CompactionPreservesVisibleState) {
  auto db = OpenMem(8);
  std::map<std::string, std::string> model;
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<int> key(0, 30), op(0, 3);
  for (int i = 0; i < 500; ++i) {
    std::string k = "k" + std::to_string(key(rng));
    if (op(rng) == 0) {
      ASSERT_TRUE(db->Delete(k).ok());
      model.erase(k);
    } else {
      std::string v = "v" + std::to_string(i);
      ASSERT_TRUE(db->Put(k, v).ok());
      model[k] = v;
    }
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_LE(db->stats().num_runs, 1u);
  for (const auto& [k, v] : model) {
    EXPECT_EQ(*db->Get(k), v) << k;
  }
  auto it = db->NewIterator();
  size_t n = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(model.at(it->key()), it->value());
    ++n;
  }
  EXPECT_EQ(n, model.size());
}

TEST(KVStoreTest, CompactionRespectsSnapshots) {
  auto db = OpenMem();
  ASSERT_TRUE(db->Put("k", "old").ok());
  KVSnapshot snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "new").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(*db->Get("k", snap), "old");
  EXPECT_EQ(*db->Get("k"), "new");
  db->ReleaseSnapshot(snap);
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(*db->Get("k"), "new");
}

TEST(KVStoreTest, WalRecovery) {
  std::string wal = std::filesystem::temp_directory_path() /
                    "cq_kvstore_test_wal.log";
  std::remove(wal.c_str());
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = std::move(KVStore::Open(opts)).value();
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
    ASSERT_TRUE(db->Delete("a").ok());
    ASSERT_TRUE(db->Put("c", "3").ok());
  }  // "crash": destructor flushes the WAL
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = std::move(KVStore::Open(opts)).value();
    EXPECT_TRUE(db->Get("a").status().IsNotFound());
    EXPECT_EQ(*db->Get("b"), "2");
    EXPECT_EQ(*db->Get("c"), "3");
  }
  std::remove(wal.c_str());
}

TEST(KVStoreTest, WalTornTailIsTruncated) {
  std::string wal = std::filesystem::temp_directory_path() /
                    "cq_kvstore_torn_wal.log";
  std::remove(wal.c_str());
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = std::move(KVStore::Open(opts)).value();
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
  }
  // Corrupt the tail: truncate mid-record.
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 3);
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = std::move(KVStore::Open(opts)).value();
    EXPECT_EQ(*db->Get("a"), "1");           // intact record replayed
    EXPECT_FALSE(db->Get("b").ok());         // torn record dropped cleanly
  }
  std::remove(wal.c_str());
}

TEST(KVStoreTest, WalOversizedLengthIsTornTail) {
  // Valid records, then a header whose key length claims far more bytes
  // than the file holds: replay keeps the valid prefix and stops there
  // without sizing a buffer for the claimed length.
  std::string wal = std::filesystem::temp_directory_path() /
                    "cq_kvstore_oversized_wal.log";
  std::remove(wal.c_str());
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = std::move(KVStore::Open(opts)).value();
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
  }
  {
    // [u32 crc][u8 op][u32 klen][u32 vlen], native byte order like the writer.
    FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint32_t crc = 0;
    const uint8_t op = 0;
    const uint32_t klen = 0xFFFFFFF0u;
    const uint32_t vlen = 0xFFFFFFF0u;
    std::fwrite(&crc, sizeof(crc), 1, f);
    std::fwrite(&op, sizeof(op), 1, f);
    std::fwrite(&klen, sizeof(klen), 1, f);
    std::fwrite(&vlen, sizeof(vlen), 1, f);
    std::fclose(f);
  }
  {
    KVStoreOptions opts;
    opts.wal_path = wal;
    auto db = KVStore::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(*(*db)->Get("a"), "1");
    EXPECT_EQ(*(*db)->Get("b"), "2");
  }
  std::remove(wal.c_str());
}

TEST(KVStoreTest, BloomFiltersShortCircuitMisses) {
  auto db = OpenMem(64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db->Put("present" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  uint64_t before = db->stats().bloom_negative;
  for (int i = 0; i < 100; ++i) {
    // Absent keys within the run's [min,max] range so only the bloom check
    // can skip the search.
    EXPECT_FALSE(db->Get("present" + std::to_string(i) + "x").ok());
  }
  EXPECT_GT(db->stats().bloom_negative, before);
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(100);
  for (int i = 0; i < 100; ++i) bloom.Add("key" + std::to_string(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bloom.MayContain("key" + std::to_string(i)));
  }
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (bloom.MayContain("other" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 100);  // ~1% expected; allow slack
}

TEST(KVStoreTest, StatsReflectState) {
  auto db = OpenMem(4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->Put(std::to_string(i), "v").ok());
  }
  KVStoreStats s = db->stats();
  EXPECT_GT(s.flushes, 0u);
  EXPECT_GT(s.num_runs + (s.memtable_entries > 0 ? 1 : 0), 0u);
  EXPECT_EQ(s.run_entries + s.memtable_entries, 10u);
}

}  // namespace
}  // namespace cq
