// The three workloads: their inputs (all drawn from the seed), their operations, and the
// models their outputs are checked against.

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "bench.h"
#include "src/client/cached_client.h"
#include "src/client/file_client.h"
#include "src/client/transaction.h"
#include "src/namesvc/directory_client.h"
#include "src/obs/span.h"
#include "oracle.h"

namespace perfbench {
namespace {

using afs::Capability;
using afs::FileClient;
using afs::PagePath;
using afs::Status;

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() { return state_ = Mix64(state_); }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

afs::TransactionOptions TxnOptions(uint64_t seed) {
  afs::TransactionOptions options;
  options.max_attempts = 1000;
  options.backoff_seed = seed;
  return options;
}

// Creates a file of `pages` leaf pages under the root, filled by `image(page)`, and commits
// it, all through the server's direct API.
afs::Result<Capability> CreateFilledFile(afs::FileServer* fs, uint32_t pages,
                                         const std::function<std::vector<uint8_t>(uint32_t)>& image) {
  ASSIGN_OR_RETURN(Capability file, fs->CreateFile());
  ASSIGN_OR_RETURN(Capability version, fs->CreateVersion(file, afs::kNullPort, false));
  for (uint32_t p = 0; p < pages; ++p) {
    RETURN_IF_ERROR(fs->InsertRef(version, PagePath::Root(), p));
    RETURN_IF_ERROR(fs->WritePage(version, PagePath({p}), image(p)));
  }
  RETURN_IF_ERROR(fs->Commit(version).status());
  return file;
}

// Runs `fn(i)` for i in [0, n) on kPopulateThreads threads; returns the first error. Every
// page write is durable, so population is bound by fsync latency, which group commit
// amortises over the concurrent writers.
constexpr int kPopulateThreads = 16;
Status ParallelFor(uint32_t n, const std::function<Status(uint32_t)>& fn) {
  std::atomic<uint32_t> next{0};
  std::mutex mu;
  Status first = afs::OkStatus();
  std::vector<std::thread> threads;
  for (int t = 0; t < kPopulateThreads; ++t) {
    threads.emplace_back([&] {
      for (uint32_t i = next++; i < n; i = next++) {
        Status st = fn(i);
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) {
            first = st;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return first;
}

// Timed RunTransaction: records the latency and the attempts of every transaction, failed
// ones included, and, for a first-attempt success, the window from the end of the update
// body to the acknowledgement.
class TxnTimer {
 public:
  explicit TxnTimer(Recorder* rec) : rec_(rec), start_(Clock::now()) {}
  // Call as the body's first statement: counts the attempt.
  void BodyStart() { ++bodies_; }
  // Call with the body's result as its last statement; returns it.
  Status BodyDone(Status st) {
    trace_id_ = afs::obs::CurrentSpanContext().trace_id;
    body_end_ = Clock::now();
    return st;
  }
  // Call when RunTransaction returned.
  bool Done(const afs::Result<afs::TransactionStats>& result, Shared* shared) {
    const auto end = Clock::now();
    if (!result.ok()) {
      rec_->failed_txns += 1;
      rec_->failed_attempts += bodies_;
      rec_->last_failure = result.status().ToString();
      return false;
    }
    rec_->txn_ns.push_back(static_cast<uint64_t>((end - start_).count()));
    rec_->txns += 1;
    rec_->txn_attempts += static_cast<uint64_t>(result->attempts);
    rec_->crash_redos += static_cast<uint64_t>(result->crash_redos);
    if (shared->tracing && result->attempts == 1 && trace_id_ != 0) {
      rec_->commit_windows.emplace_back(trace_id_,
                                        static_cast<uint64_t>((end - body_end_).count()));
    }
    shared->commits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  Recorder* rec_;
  Clock::time_point start_;
  Clock::time_point body_end_;
  uint64_t trace_id_ = 0;
  uint64_t bodies_ = 0;
};

// Reads one page and records the latency.
afs::Result<FileClient::ReadResult> TimedRead(FileClient& client, const Capability& version,
                                              uint32_t page, Recorder* rec) {
  const auto start = Clock::now();
  auto got = client.ReadPage(version, PagePath({page}));
  rec->read_ns.push_back(NsSince(start));
  return got;
}

// ---------------------------------------------------------------------------------------
// private_update: each client owns one file of eight 2 KB pages and rewrites all of them
// in every transaction. No conflicts; the pre-commit write path does the work.

constexpr uint32_t kPrivatePages = 8;
constexpr size_t kPrivatePageBytes = 2048;

// The model of a file is the generation it holds: the count of the owner's commits that
// applied. A commit the client saw acknowledged has applied; one whose outcome it never
// learnt (RunTransaction redoes after a Commit that failed with kTimeout, kCrashed,
// kUnavailable or kAborted) may have. So the model is a range [acked, issued] of
// generations, and every read of the whole file must be one generation of that range.
struct Generations {
  uint64_t acked = 0;   // commits acknowledged
  uint64_t issued = 0;  // commits sent, acknowledged or not
};

class PrivateUpdate final : public Workload {
 public:
  explicit PrivateUpdate(uint64_t seed) : seed_(seed), files_(kClients), gens_(kClients) {}

  Status Populate(Deployment* d) override {
    return ParallelFor(kClients, [&](uint32_t c) -> Status {
      ASSIGN_OR_RETURN(files_[c], CreateFilledFile(d->fs0.get(), kPrivatePages, [&](uint32_t p) {
                         return PrivatePageImage(seed_, c, p, 0, kPrivatePageBytes);
                       }));
      return afs::OkStatus();
    });
  }

  std::unique_ptr<Client> MakeClient(int index, afs::Transport* transport,
                                     const Endpoints& endpoints, Shared* shared) override {
    return std::make_unique<Owner>(this, static_cast<uint32_t>(index), transport, endpoints,
                                   shared);
  }

  bool Verify(afs::FileServer* fs, std::string* why) override {
    for (uint32_t c = 0; c < kClients; ++c) {
      auto version = fs->GetCurrentVersion(files_[c]);
      if (!version.ok()) {
        *why = "private file " + std::to_string(c) + ": " + version.status().ToString();
        return false;
      }
      std::vector<std::vector<uint8_t>> pages;
      for (uint32_t p = 0; p < kPrivatePages; ++p) {
        auto got = fs->ReadPage(*version, PagePath({p}), false);
        if (!got.ok()) {
          *why = "private file " + std::to_string(c) + " page " + std::to_string(p) + ": " +
                 got.status().ToString();
          return false;
        }
        pages.push_back(std::move(got->data));
      }
      uint64_t gen = 0;
      if (!CheckPrivateFile(seed_, c, gens_[c].acked, gens_[c].issued, pages,
                            kPrivatePageBytes, &gen, why)) {
        return false;
      }
    }
    return true;
  }

  uint64_t LiveUserBytes() const override {
    return uint64_t{kClients} * kPrivatePages * kPrivatePageBytes;
  }

 private:
  class Owner final : public Client {
   public:
    Owner(PrivateUpdate* w, uint32_t index, afs::Transport* transport,
          const Endpoints& endpoints, Shared* shared)
        : w_(w), index_(index), client_(transport, endpoints.file_servers), shared_(shared) {}

    bool Op(Recorder* rec) override {
      Generations& g = w_->gens_[index_];
      uint64_t written = 0;
      TxnTimer timer(rec);
      auto result = afs::RunTransaction(
          &client_, w_->files_[index_],
          [&](FileClient& fc, const Capability& version) -> Status {
            timer.BodyStart();
            std::vector<std::vector<uint8_t>> pages;
            for (uint32_t p = 0; p < kPrivatePages; ++p) {
              ASSIGN_OR_RETURN(FileClient::ReadResult got, TimedRead(fc, version, p, rec));
              pages.push_back(std::move(got.data));
            }
            uint64_t gen = 0;
            std::string why;
            if (!CheckPrivateFile(w_->seed_, index_, g.acked, g.issued, pages,
                                  kPrivatePageBytes, &gen, &why)) {
              Violation(why);
              return afs::InternalError(why);
            }
            if (gen > g.acked) {
              rec->unacked_applied += 1;
            }
            written = gen + 1;
            std::vector<FileClient::PageWrite> writes;
            for (uint32_t p = 0; p < kPrivatePages; ++p) {
              writes.push_back({PagePath({p}), PrivatePageImage(w_->seed_, index_, p, written,
                                                                kPrivatePageBytes)});
            }
            Status st = fc.WritePages(version, writes);
            if (st.ok()) {
              g.issued = std::max(g.issued, written);
            }
            return timer.BodyDone(st);
          },
          TxnOptions(w_->seed_ ^ index_));
      if (!timer.Done(result, shared_)) {
        return false;
      }
      g.acked = written;
      g.issued = std::max(g.issued, written);
      return true;
    }

   private:
    PrivateUpdate* w_;
    uint32_t index_;
    FileClient client_;
    Shared* shared_;
  };

  const uint64_t seed_;
  std::vector<Capability> files_;
  // Generations of each client file; written only by the owning client thread.
  std::vector<Generations> gens_;
};

// ---------------------------------------------------------------------------------------
// hot_counter: all clients increment seeded-random counters of one shared file of 16
// pages. Disjoint increments merge at commit; same-page ones conflict and are redone.

constexpr uint32_t kCounters = 16;
constexpr size_t kCounterBytes = 64;

class HotCounter final : public Workload {
 public:
  explicit HotCounter(uint64_t seed) : seed_(seed) {}

  Status Populate(Deployment* d) override {
    ASSIGN_OR_RETURN(file_, CreateFilledFile(d->fs0.get(), kCounters, [](uint32_t p) {
                       return EncodeRecord({0, p, 0}, kCounterBytes);
                     }));
    return afs::OkStatus();
  }

  std::unique_ptr<Client> MakeClient(int index, afs::Transport* transport,
                                     const Endpoints& endpoints, Shared* shared) override {
    return std::make_unique<Incrementer>(this, static_cast<uint32_t>(index), transport,
                                         endpoints, shared);
  }

  bool Verify(afs::FileServer* fs, std::string* why) override {
    auto version = fs->GetCurrentVersion(file_);
    if (!version.ok()) {
      *why = "counter file: " + version.status().ToString();
      return false;
    }
    std::vector<uint64_t> counters;
    for (uint32_t p = 0; p < kCounters; ++p) {
      auto got = fs->ReadPage(*version, PagePath({p}), false);
      if (!got.ok()) {
        *why = "counter " + std::to_string(p) + ": " + got.status().ToString();
        return false;
      }
      Record rec;
      if (!DecodeRecord(got->data, 0, p, &rec, why)) {
        return false;
      }
      counters.push_back(rec.seq);
    }
    return CheckConservation(counters, acked_.load(), why);
  }

  uint64_t LiveUserBytes() const override { return uint64_t{kCounters} * kCounterBytes; }

 private:
  class Incrementer final : public Client {
   public:
    Incrementer(HotCounter* w, uint32_t index, afs::Transport* transport,
                const Endpoints& endpoints, Shared* shared)
        : w_(w),
          index_(index),
          client_(transport, endpoints.file_servers),
          shared_(shared),
          rng_(w->seed_ * 131 + index) {}

    bool Op(Recorder* rec) override {
      const uint32_t k = rng_.Below(kCounters);
      uint64_t seen = 0;
      TxnTimer timer(rec);
      auto result = afs::RunTransaction(
          &client_, w_->file_,
          [&](FileClient& fc, const Capability& version) -> Status {
            timer.BodyStart();
            ASSIGN_OR_RETURN(FileClient::ReadResult got, TimedRead(fc, version, k, rec));
            Record r;
            std::string why;
            if (!DecodeRecord(got.data, 0, k, &r, &why) || !reads_.Observe(k, r.seq, &why)) {
              Violation(why);
              return afs::InternalError(why);
            }
            seen = r.seq;
            return timer.BodyDone(fc.WritePage(version, PagePath({k}),
                                               EncodeRecord({0, k, r.seq + 1}, kCounterBytes)));
          },
          TxnOptions(w_->seed_ ^ (index_ + 100)));
      if (!timer.Done(result, shared_)) {
        return false;
      }
      w_->acked_.fetch_add(1, std::memory_order_relaxed);
      std::string why;
      if (!reads_.Observe(k, seen + 1, &why)) {
        Violation(why);
      }
      return true;
    }

   private:
    HotCounter* w_;
    uint32_t index_;
    FileClient client_;
    Shared* shared_;
    Rng rng_;
    MonotonicReads reads_;
  };

  const uint64_t seed_;
  Capability file_;
  std::atomic<uint64_t> acked_{0};
};

// ---------------------------------------------------------------------------------------
// read_mostly: look a file up by name, then read 4 consecutive pages through the client
// cache. Files are Zipf-skewed; the page set is 4x the server's committed-page cache. One
// op in 20 is a one-page read-modify-write update instead.

constexpr uint32_t kReadFiles = 64;
constexpr uint32_t kReadPagesPerFile = 64;  // 4096 pages = 4 x kCommittedCachePages
constexpr size_t kReadPageBytes = 512;
constexpr uint32_t kReadsPerOp = 4;
constexpr uint32_t kUpdateEvery = 20;
constexpr double kZipfS = 0.99;

std::string FileName(uint32_t f) {
  char name[16];
  std::snprintf(name, sizeof(name), "rm%03u", f);
  return name;
}

class ReadMostly final : public Workload {
 public:
  explicit ReadMostly(uint64_t seed)
      : seed_(seed), files_(kReadFiles), acked_(kReadFiles * kReadPagesPerFile) {
    double total = 0;
    for (uint32_t f = 0; f < kReadFiles; ++f) {
      total += 1.0 / std::pow(f + 1.0, kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  Status Populate(Deployment* d) override {
    RETURN_IF_ERROR(ParallelFor(kReadFiles, [&](uint32_t f) -> Status {
      ASSIGN_OR_RETURN(files_[f], CreateFilledFile(d->fs0.get(), kReadPagesPerFile,
                                                   [&](uint32_t p) {
                                                     return EncodeRecord({f, p, 0},
                                                                         kReadPageBytes);
                                                   }));
      return afs::OkStatus();
    }));
    for (uint32_t f = 0; f < kReadFiles; ++f) {
      RETURN_IF_ERROR(d->dir->Enter(FileName(f), files_[f]));
    }
    return afs::OkStatus();
  }

  std::unique_ptr<Client> MakeClient(int index, afs::Transport* transport,
                                     const Endpoints& endpoints, Shared* shared) override {
    return std::make_unique<Reader>(this, static_cast<uint32_t>(index), transport, endpoints,
                                    shared);
  }

  bool Verify(afs::FileServer* fs, std::string* why) override {
    for (uint32_t f = 0; f < kReadFiles; ++f) {
      auto version = fs->GetCurrentVersion(files_[f]);
      if (!version.ok()) {
        *why = FileName(f) + ": " + version.status().ToString();
        return false;
      }
      for (uint32_t p = 0; p < kReadPagesPerFile; ++p) {
        const std::string what = FileName(f) + " page " + std::to_string(p);
        auto got = fs->ReadPage(*version, PagePath({p}), false);
        if (!got.ok()) {
          *why = what + ": " + got.status().ToString();
          return false;
        }
        Record rec;
        if (!DecodeRecord(got->data, f, p, &rec, why) ||
            !CheckFinalSequence(rec.seq, acked_[f * kReadPagesPerFile + p].load(), what,
                                why)) {
          return false;
        }
      }
    }
    return true;
  }

  uint64_t LiveUserBytes() const override {
    return uint64_t{kReadFiles} * kReadPagesPerFile * kReadPageBytes;
  }

 private:
  class Reader final : public Client {
   public:
    Reader(ReadMostly* w, uint32_t index, afs::Transport* transport,
           const Endpoints& endpoints, Shared* shared)
        : w_(w),
          index_(index),
          cached_(transport, endpoints.file_servers),
          dir_(transport, endpoints.directory),
          shared_(shared),
          rng_(w->seed_ * 977 + index) {}

    bool Op(Recorder* rec) override {
      const uint32_t f = static_cast<uint32_t>(
          std::lower_bound(w_->cdf_.begin(), w_->cdf_.end(), rng_.Unit()) - w_->cdf_.begin());
      const uint32_t file = std::min(f, kReadFiles - 1);
      const uint32_t first_page = rng_.Below(kReadPagesPerFile);
      const bool update = ++ops_ % kUpdateEvery == 0;

      const auto start = Clock::now();
      auto cap = dir_.Lookup(FileName(file));
      rec->lookup_ns.push_back(NsSince(start));
      if (!cap.ok()) {
        return false;
      }
      if (update) {
        return Update(*cap, file, first_page, rec);
      }
      for (uint32_t i = 0; i < kReadsPerOp; ++i) {
        const uint32_t page = (first_page + i) % kReadPagesPerFile;
        const uint64_t hits = cached_.cache().hits();
        const uint64_t validations = cached_.validation_round_trips();
        const auto read_start = Clock::now();
        auto data = cached_.Read(*cap, PagePath({page}));
        rec->read_ns.push_back(NsSince(read_start));
        rec->cached_reads += 1;
        rec->cache_hits += cached_.cache().hits() - hits;
        rec->validations += cached_.validation_round_trips() - validations;
        if (!data.ok()) {
          return false;
        }
        Record r;
        std::string why;
        if (!DecodeRecord(*data, file, page, &r, &why) ||
            !reads_.Observe(Key(file, page), r.seq, &why)) {
          Violation(why);
          return false;
        }
      }
      return true;
    }

   private:
    static uint64_t Key(uint32_t file, uint32_t page) {
      return uint64_t{file} * kReadPagesPerFile + page;
    }

    bool Update(const Capability& cap, uint32_t file, uint32_t page, Recorder* rec) {
      uint64_t seen = 0;
      TxnTimer timer(rec);
      auto result = afs::RunTransaction(
          &cached_.client(), cap,
          [&](FileClient& fc, const Capability& version) -> Status {
            timer.BodyStart();
            ASSIGN_OR_RETURN(FileClient::ReadResult got, TimedRead(fc, version, page, rec));
            Record r;
            std::string why;
            if (!DecodeRecord(got.data, file, page, &r, &why) ||
                !reads_.Observe(Key(file, page), r.seq, &why)) {
              Violation(why);
              return afs::InternalError(why);
            }
            seen = r.seq;
            return timer.BodyDone(fc.WritePage(
                version, PagePath({page}), EncodeRecord({file, page, r.seq + 1}, kReadPageBytes)));
          },
          TxnOptions(w_->seed_ ^ (index_ + 200)));
      if (!timer.Done(result, shared_)) {
        return false;
      }
      w_->acked_[Key(file, page)].fetch_add(1, std::memory_order_relaxed);
      std::string why;
      if (!reads_.Observe(Key(file, page), seen + 1, &why)) {
        Violation(why);
      }
      return true;
    }

    ReadMostly* w_;
    uint32_t index_;
    afs::CachedFileClient cached_;
    afs::DirectoryClient dir_;
    Shared* shared_;
    Rng rng_;
    MonotonicReads reads_;
    uint64_t ops_ = 0;
  };

  const uint64_t seed_;
  std::vector<Capability> files_;
  std::vector<std::atomic<uint64_t>> acked_;  // acknowledged updates per page
  std::vector<double> cdf_;                    // Zipf CDF over files, hottest first
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "private_update") {
    return std::make_unique<PrivateUpdate>(seed);
  }
  if (name == "hot_counter") {
    return std::make_unique<HotCounter>(seed);
  }
  if (name == "read_mostly") {
    return std::make_unique<ReadMostly>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
