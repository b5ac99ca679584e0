#include "kvstore/wal.h"

#include <cstdio>
#include <memory>

#include "common/hash.h"

namespace cq {

namespace {

// Record layout: [u32 crc][u8 op][u32 klen][u32 vlen][key bytes][val bytes].
// crc covers everything after itself. "crc" is a 32-bit fold of FNV-1a —
// adequate for torn-write detection in this store.

uint32_t Checksum(uint8_t op, const std::string& key,
                  const std::string& value) {
  uint64_t h = Fnv1a64(key);
  h = HashCombine(h, Fnv1a64(value));
  h = HashCombine(h, op);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

bool WriteU32(FILE* f, uint32_t v) {
  return fwrite(&v, sizeof(v), 1, f) == 1;
}

bool ReadU32(FILE* f, uint32_t* v) {
  return fread(v, sizeof(*v), 1, f) == 1;
}

}  // namespace

WalWriter::~WalWriter() {
  if (file_ != nullptr) fclose(file_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  FILE* f = fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open WAL at '" + path + "'");
  }
  return std::unique_ptr<WalWriter>(new WalWriter(f));
}

Status WalWriter::Append(const WalRecord& record) {
  uint8_t op = static_cast<uint8_t>(record.op);
  uint32_t crc = Checksum(op, record.key, record.value);
  uint32_t klen = static_cast<uint32_t>(record.key.size());
  uint32_t vlen = static_cast<uint32_t>(record.value.size());
  if (!WriteU32(file_, crc) || fwrite(&op, 1, 1, file_) != 1 ||
      !WriteU32(file_, klen) || !WriteU32(file_, vlen)) {
    return Status::IOError("WAL header write failed");
  }
  if (klen > 0 && fwrite(record.key.data(), 1, klen, file_) != klen) {
    return Status::IOError("WAL key write failed");
  }
  if (vlen > 0 && fwrite(record.value.data(), 1, vlen, file_) != vlen) {
    return Status::IOError("WAL value write failed");
  }
  return Status::OK();
}

Status WalWriter::Flush() {
  if (fflush(file_) != 0) return Status::IOError("WAL flush failed");
  return Status::OK();
}

Result<std::vector<WalRecord>> ReadWal(const std::string& path) {
  std::vector<WalRecord> out;
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return out;  // no log yet: empty store
  std::unique_ptr<FILE, int (*)(FILE*)> closer(f, fclose);
  if (fseek(f, 0, SEEK_END) != 0) return Status::IOError("WAL seek failed");
  const long file_size = ftell(f);
  if (file_size < 0 || fseek(f, 0, SEEK_SET) != 0) {
    return Status::IOError("WAL seek failed");
  }
  while (true) {
    uint32_t crc, klen, vlen;
    uint8_t op;
    if (!ReadU32(f, &crc)) break;  // clean end
    if (fread(&op, 1, 1, f) != 1 || !ReadU32(f, &klen) || !ReadU32(f, &vlen)) {
      break;  // torn header: stop replay
    }
    // A length claiming more bytes than the file still holds is a torn (or
    // corrupt) tail: stop before allocating for it.
    const long pos = ftell(f);
    if (pos < 0 || static_cast<uint64_t>(klen) + vlen >
                       static_cast<uint64_t>(file_size - pos)) {
      break;
    }
    WalRecord rec;
    rec.op = static_cast<WalRecord::Op>(op);
    rec.key.resize(klen);
    rec.value.resize(vlen);
    if (klen > 0 && fread(rec.key.data(), 1, klen, f) != klen) break;
    if (vlen > 0 && fread(rec.value.data(), 1, vlen, f) != vlen) break;
    if (Checksum(op, rec.key, rec.value) != crc) break;  // corrupt tail
    if (rec.op != WalRecord::Op::kPut && rec.op != WalRecord::Op::kDelete) {
      break;
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace cq
