// Shows that every checker of the benchmark can fail: each planted wrong expectation must be
// rejected, and the matching correct observation accepted. Exit code 0 iff all hold.
//
//   afs_perfbench_selftest

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "oracle.h"

using namespace perfbench;

namespace {

int failures = 0;

// `check` must return `expect_ok`; a rejection must also say why.
void Expect(const char* name, bool expect_ok, const std::function<bool(std::string*)>& check) {
  std::string why;
  const bool ok = check(&why);
  const bool pass = ok == expect_ok && (ok || !why.empty());
  std::printf("%-4s %-44s %s\n", pass ? "ok" : "FAIL", name,
              ok ? "accepted" : ("rejected: " + why).c_str());
  if (!pass) {
    ++failures;
  }
}

}  // namespace

int main() {
  // hot_counter: a lost increment breaks conservation.
  const std::vector<uint64_t> counters = {3, 0, 5, 2};
  Expect("conservation holds", true,
         [&](std::string* why) { return CheckConservation(counters, 10, why); });
  Expect("lost increment", false,
         [&](std::string* why) { return CheckConservation(counters, 11, why); });
  Expect("unacknowledged increment", false,
         [&](std::string* why) { return CheckConservation(counters, 9, why); });

  // Monotonic reads: a stale (backwards) read is rejected, re-reading the same is not.
  Expect("monotonic reads", true, [](std::string* why) {
    MonotonicReads m;
    return m.Observe(7, 4, why) && m.Observe(7, 4, why) && m.Observe(7, 5, why) &&
           m.Observe(8, 1, why);
  });
  Expect("backwards read", false, [](std::string* why) {
    MonotonicReads m;
    return m.Observe(7, 5, why) && m.Observe(7, 4, why);
  });

  // Records: a corrupted byte, a misplaced record and a truncated page are rejected.
  const Record rec{12, 34, 56};
  const std::vector<uint8_t> page = EncodeRecord(rec, 512);
  Expect("record round trip", true, [&](std::string* why) {
    Record out;
    return DecodeRecord(page, 12, 34, &out, why) && out.seq == 56;
  });
  for (size_t at : {size_t{5}, size_t{17}, size_t{300}, page.size() - 1}) {
    Expect(("corrupted record byte " + std::to_string(at)).c_str(), false,
           [&](std::string* why) {
             std::vector<uint8_t> bad = page;
             bad[at] ^= 0x40;
             Record out;
             return DecodeRecord(bad, 12, 34, &out, why);
           });
  }
  Expect("record of another page", false, [&](std::string* why) {
    Record out;
    return DecodeRecord(page, 12, 35, &out, why);
  });
  Expect("truncated record", false, [&](std::string* why) {
    Record out;
    return DecodeRecord(std::span(page).first(16), 12, 34, &out, why);
  });

  // private_update: a read of an older generation differs from the model.
  const auto gen4 = PrivatePageImage(9, 1, 3, 4, 2048);
  Expect("private page equals model", true, [&](std::string* why) {
    return CheckEqual(PrivatePageImage(9, 1, 3, 4, 2048), gen4, "page", why);
  });
  Expect("stale private page", false, [&](std::string* why) {
    return CheckEqual(PrivatePageImage(9, 1, 3, 3, 2048), gen4, "page", why);
  });
  Expect("another client's page", false, [&](std::string* why) {
    return CheckEqual(PrivatePageImage(9, 2, 3, 4, 2048), gen4, "page", why);
  });

  // private_update with commits of unknown outcome: any one generation of [acked, issued]
  // is accepted, a generation outside it or a file mixing two generations is not.
  auto file_at = [](const std::vector<uint64_t>& gens) {
    std::vector<std::vector<uint8_t>> pages;
    for (uint32_t p = 0; p < gens.size(); ++p) {
      pages.push_back(PrivatePageImage(9, 1, p, gens[p], 2048));
    }
    return pages;
  };
  Expect("private file within [acked, issued]", true, [&](std::string* why) {
    uint64_t gen = 0;
    return CheckPrivateFile(9, 1, 4, 6, file_at({5, 5, 5, 5}), 2048, &gen, why) && gen == 5;
  });
  Expect("private file older than acknowledged", false, [&](std::string* why) {
    uint64_t gen = 0;
    return CheckPrivateFile(9, 1, 4, 6, file_at({3, 3, 3, 3}), 2048, &gen, why);
  });
  Expect("private file beyond issued", false, [&](std::string* why) {
    uint64_t gen = 0;
    return CheckPrivateFile(9, 1, 4, 6, file_at({7, 7, 7, 7}), 2048, &gen, why);
  });
  Expect("private file mixing generations", false, [&](std::string* why) {
    uint64_t gen = 0;
    return CheckPrivateFile(9, 1, 4, 6, file_at({5, 5, 4, 5}), 2048, &gen, why);
  });

  // After restart: a commit missing from the recovered store is rejected.
  Expect("recovered sequence", true,
         [](std::string* why) { return CheckFinalSequence(6, 6, "page", why); });
  Expect("commit missing after restart", false,
         [](std::string* why) { return CheckFinalSequence(5, 6, "page", why); });
  Expect("private commit missing after restart", false, [&](std::string* why) {
    return CheckEqual(PrivatePageImage(9, 1, 3, 3, 2048), gen4, "recovered page", why);
  });

  std::printf("%s: %d planted-fault check(s) failed\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
