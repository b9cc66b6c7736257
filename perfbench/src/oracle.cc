#include "oracle.h"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

constexpr uint32_t kRecordMagic = 0x52ecb0a7;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Deterministic filler so that a record's checksum covers every byte of the page.
void Fill(uint8_t* out, size_t n, uint64_t state) {
  for (size_t i = 0; i < n; i += 8) {
    state = Mix64(state);
    std::memcpy(out + i, &state, std::min<size_t>(8, n - i));
  }
}

}  // namespace

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Checksum64(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

std::vector<uint8_t> PrivatePageImage(uint64_t seed, uint32_t client, uint32_t page,
                                      uint64_t gen, size_t bytes) {
  std::vector<uint8_t> out(bytes);
  Fill(out.data(), bytes,
       Mix64(seed ^ Mix64((uint64_t{client} << 40) ^ (uint64_t{page} << 32) ^ gen)));
  return out;
}

// Layout: magic u32 | file u32 | page u32 | reserved u32 | seq u64 | filler | checksum u64.
std::vector<uint8_t> EncodeRecord(const Record& record, size_t bytes) {
  if (bytes < kMinRecordBytes) {
    bytes = kMinRecordBytes;
  }
  std::vector<uint8_t> out(bytes);
  PutU32(out.data(), kRecordMagic);
  PutU32(out.data() + 4, record.file);
  PutU32(out.data() + 8, record.page);
  PutU32(out.data() + 12, 0);
  PutU64(out.data() + 16, record.seq);
  Fill(out.data() + 24, bytes - 32,
       Mix64((uint64_t{record.file} << 32) ^ record.page) ^ record.seq);
  PutU64(out.data() + bytes - 8, Checksum64(std::span(out.data(), bytes - 8)));
  return out;
}

bool DecodeRecord(std::span<const uint8_t> bytes, uint32_t file, uint32_t page, Record* out,
                  std::string* why) {
  if (bytes.size() < kMinRecordBytes) {
    *why = "record of " + std::to_string(bytes.size()) + " bytes is too short";
    return false;
  }
  if (GetU32(bytes.data()) != kRecordMagic) {
    *why = "record magic missing";
    return false;
  }
  if (Checksum64(bytes.first(bytes.size() - 8)) != GetU64(bytes.data() + bytes.size() - 8)) {
    *why = "record checksum mismatch";
    return false;
  }
  Record r{GetU32(bytes.data() + 4), GetU32(bytes.data() + 8), GetU64(bytes.data() + 16)};
  if (r.file != file || r.page != page) {
    *why = "record names file " + std::to_string(r.file) + " page " + std::to_string(r.page) +
           ", read as file " + std::to_string(file) + " page " + std::to_string(page);
    return false;
  }
  *out = r;
  return true;
}

bool CheckEqual(std::span<const uint8_t> got, std::span<const uint8_t> want,
                const std::string& what, std::string* why) {
  if (got.size() != want.size()) {
    *why = what + ": " + std::to_string(got.size()) + " bytes, model has " +
           std::to_string(want.size());
    return false;
  }
  if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
    *why = what + ": contents differ from the model";
    return false;
  }
  return true;
}

bool CheckPrivateFile(uint64_t seed, uint32_t client, uint64_t acked, uint64_t issued,
                      const std::vector<std::vector<uint8_t>>& pages, size_t bytes,
                      uint64_t* gen, std::string* why) {
  if (pages.empty()) {
    *why = "private file " + std::to_string(client) + ": no pages";
    return false;
  }
  *gen = acked;
  while (*gen < issued && pages[0] != PrivatePageImage(seed, client, 0, *gen, bytes)) {
    ++*gen;
  }
  for (uint32_t p = 0; p < pages.size(); ++p) {
    if (!CheckEqual(pages[p], PrivatePageImage(seed, client, p, *gen, bytes),
                    "private file " + std::to_string(client) + " page " + std::to_string(p) +
                        " (generation " + std::to_string(*gen) + ")",
                    why)) {
      return false;
    }
  }
  return true;
}

bool CheckConservation(std::span<const uint64_t> counters, uint64_t acknowledged,
                       std::string* why) {
  uint64_t sum = 0;
  for (uint64_t c : counters) {
    sum += c;
  }
  if (sum != acknowledged) {
    *why = "counters sum to " + std::to_string(sum) + ", " + std::to_string(acknowledged) +
           " increments were acknowledged";
    return false;
  }
  return true;
}

bool CheckFinalSequence(uint64_t seq, uint64_t acknowledged, const std::string& what,
                        std::string* why) {
  if (seq != acknowledged) {
    *why = what + ": sequence " + std::to_string(seq) + ", " + std::to_string(acknowledged) +
           " updates were acknowledged";
    return false;
  }
  return true;
}

bool MonotonicReads::Observe(uint64_t key, uint64_t seq, std::string* why) {
  auto [it, inserted] = last_.try_emplace(key, seq);
  if (!inserted) {
    if (seq < it->second) {
      *why = "key " + std::to_string(key) + " read sequence " + std::to_string(seq) +
             " after " + std::to_string(it->second);
      return false;
    }
    it->second = seq;
  }
  return true;
}

}  // namespace perfbench
