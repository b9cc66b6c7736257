// Correctness oracles of the end-to-end benchmark, computed apart from the program under
// test: page images, record layout and checksum are the benchmark's own, so a fault in the
// file service cannot hide behind a matching fault in the checker. Each checker returns
// false and explains why on a wrong observation; selftest.cc plants one wrong expectation
// per checker and requires the rejection.

#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// SplitMix64 step: the benchmark's deterministic generator for inputs and page images.
uint64_t Mix64(uint64_t x);

// FNV-1a over `bytes`, the checksum carried by record pages.
uint64_t Checksum64(std::span<const uint8_t> bytes);

// The contents of page `page` of client `client`'s private file after its `gen`-th
// acknowledged update (gen 0 = as populated).
std::vector<uint8_t> PrivatePageImage(uint64_t seed, uint32_t client, uint32_t page,
                                      uint64_t gen, size_t bytes);

// A self-describing page: which file and page it belongs to, its sequence number (the
// number of acknowledged updates applied to it), and a checksum over everything else.
struct Record {
  uint32_t file = 0;
  uint32_t page = 0;
  uint64_t seq = 0;
};
inline constexpr size_t kMinRecordBytes = 32;
std::vector<uint8_t> EncodeRecord(const Record& record, size_t bytes);
// Accepts only a well-formed record with a valid checksum that names (file, page).
bool DecodeRecord(std::span<const uint8_t> bytes, uint32_t file, uint32_t page, Record* out,
                  std::string* why);

// Byte-for-byte equality against the model.
bool CheckEqual(std::span<const uint8_t> got, std::span<const uint8_t> want,
                const std::string& what, std::string* why);

// A private file as the client reads it: its pages must all be one generation in
// [acked, issued] (commits acknowledged; commits sent, whose outcome may be unknown).
// Sets `gen` to the generation found.
bool CheckPrivateFile(uint64_t seed, uint32_t client, uint64_t acked, uint64_t issued,
                      const std::vector<std::vector<uint8_t>>& pages, size_t bytes,
                      uint64_t* gen, std::string* why);

// Counter conservation: the counters sum to the number of acknowledged increments.
bool CheckConservation(std::span<const uint64_t> counters, uint64_t acknowledged,
                       std::string* why);

// A page's final sequence equals the acknowledged updates to it: a smaller value is a lost
// (or never durable) commit, a larger one an update applied that was never acknowledged.
bool CheckFinalSequence(uint64_t seq, uint64_t acknowledged, const std::string& what,
                        std::string* why);

// One client's view: a sequence it has observed for a key never goes backwards.
class MonotonicReads {
 public:
  bool Observe(uint64_t key, uint64_t seq, std::string* why);

 private:
  std::unordered_map<uint64_t, uint64_t> last_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
