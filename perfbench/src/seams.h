// Counting and timing decorators at the storage seams of the deployment. They forward every
// call unchanged and record, from outside the layer below, how much work crossed the seam
// and how long the callers were blocked in it (summed over threads).
//
//   FileServer  --TimedBlockStore-->  TieredStore  --TimedBlockStore-->  StableStore
//   BlockServer --TimedDevice-->      FileDisk

#ifndef PERFBENCH_SRC_SEAMS_H_
#define PERFBENCH_SRC_SEAMS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/block/block_store.h"
#include "src/disk/block_device.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

// Adds the lifetime of the scope to `sink`.
class BusyTimer {
 public:
  explicit BusyTimer(std::atomic<uint64_t>* sink) : sink_(sink), start_(Clock::now()) {}
  ~BusyTimer() { sink_->fetch_add(NsSince(start_), std::memory_order_relaxed); }
  BusyTimer(const BusyTimer&) = delete;
  BusyTimer& operator=(const BusyTimer&) = delete;

 private:
  std::atomic<uint64_t>* sink_;
  Clock::time_point start_;
};

struct StoreCounts {
  uint64_t reads = 0;          // Read calls
  uint64_t read_multis = 0;    // ReadMulti calls
  uint64_t writes = 0;         // Write + AllocWrite calls
  uint64_t write_batches = 0;  // WriteBatch calls
  uint64_t blocks_written = 0; // blocks over all three
  uint64_t allocs = 0;         // blocks allocated (AllocWrite, AllocMulti)
  uint64_t frees = 0;          // blocks freed (Free, FreeMulti)
  uint64_t locks = 0;          // Lock calls
  uint64_t busy_ns = 0;        // caller time inside the seam
};

// Always times the seam; counts the calls only with `count_calls` (the FileServer seam,
// whose counts are reported per op; below the tier only the time is).
class TimedBlockStore final : public afs::BlockStore {
 public:
  TimedBlockStore(afs::BlockStore* inner, bool count_calls)
      : inner_(inner), count_calls_(count_calls) {}

  afs::Result<afs::BlockNo> AllocWrite(std::span<const uint8_t> payload) override {
    BusyTimer t(&busy_ns_);
    Add(&writes_, 1);
    Add(&blocks_written_, 1);
    Add(&allocs_, 1);
    return inner_->AllocWrite(payload);
  }
  afs::Status Write(afs::BlockNo bno, std::span<const uint8_t> payload) override {
    BusyTimer t(&busy_ns_);
    Add(&writes_, 1);
    Add(&blocks_written_, 1);
    return inner_->Write(bno, payload);
  }
  afs::Result<std::vector<uint8_t>> Read(afs::BlockNo bno) override {
    BusyTimer t(&busy_ns_);
    Add(&reads_, 1);
    return inner_->Read(bno);
  }
  afs::Status Free(afs::BlockNo bno) override {
    BusyTimer t(&busy_ns_);
    Add(&frees_, 1);
    return inner_->Free(bno);
  }
  afs::Result<std::vector<afs::BlockReadResult>> ReadMulti(
      std::span<const afs::BlockNo> bnos) override {
    BusyTimer t(&busy_ns_);
    Add(&read_multis_, 1);
    return inner_->ReadMulti(bnos);
  }
  afs::Status WriteBatch(std::span<const afs::BlockWrite> writes) override {
    BusyTimer t(&busy_ns_);
    Add(&write_batches_, 1);
    Add(&blocks_written_, writes.size());
    return inner_->WriteBatch(writes);
  }
  afs::Status FreeMulti(std::span<const afs::BlockNo> bnos) override {
    BusyTimer t(&busy_ns_);
    Add(&frees_, bnos.size());
    return inner_->FreeMulti(bnos);
  }
  afs::Result<std::vector<afs::BlockNo>> AllocMulti(uint32_t n) override {
    BusyTimer t(&busy_ns_);
    Add(&allocs_, n);
    return inner_->AllocMulti(n);
  }
  afs::Status Lock(afs::BlockNo bno, afs::Port owner) override {
    BusyTimer t(&busy_ns_);
    Add(&locks_, 1);
    return inner_->Lock(bno, owner);
  }
  afs::Status Unlock(afs::BlockNo bno, afs::Port owner) override {
    BusyTimer t(&busy_ns_);
    return inner_->Unlock(bno, owner);
  }
  afs::Result<std::vector<afs::BlockNo>> ListBlocks() override {
    BusyTimer t(&busy_ns_);
    return inner_->ListBlocks();
  }
  uint32_t payload_capacity() const override { return inner_->payload_capacity(); }

  StoreCounts counts() const {
    return {Get(reads_),       Get(read_multis_), Get(writes_), Get(write_batches_),
            Get(blocks_written_), Get(allocs_),   Get(frees_),  Get(locks_),
            Get(busy_ns_)};
  }

 private:
  void Add(std::atomic<uint64_t>* c, uint64_t n) {
    if (count_calls_) {
      c->fetch_add(n, std::memory_order_relaxed);
    }
  }
  static uint64_t Get(const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  }

  afs::BlockStore* const inner_;
  const bool count_calls_;
  std::atomic<uint64_t> reads_{0}, read_multis_{0}, writes_{0}, write_batches_{0},
      blocks_written_{0}, allocs_{0}, frees_{0}, locks_{0}, busy_ns_{0};
};

struct DeviceCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_written = 0;
  uint64_t busy_ns = 0;
};

class TimedDevice final : public afs::BlockDevice {
 public:
  explicit TimedDevice(afs::BlockDevice* inner) : inner_(inner) {}

  afs::DiskGeometry geometry() const override { return inner_->geometry(); }
  afs::Status Read(afs::BlockNo bno, std::span<uint8_t> out) override {
    BusyTimer t(&busy_ns_);
    reads_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Read(bno, out);
  }
  afs::Status Write(afs::BlockNo bno, std::span<const uint8_t> data) override {
    BusyTimer t(&busy_ns_);
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->Write(bno, data);
  }
  uint64_t reads() const override { return inner_->reads(); }
  uint64_t writes() const override { return inner_->writes(); }

  DeviceCounts counts() const {
    return {reads_.load(std::memory_order_relaxed), writes_.load(std::memory_order_relaxed),
            bytes_written_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }

 private:
  afs::BlockDevice* const inner_;
  std::atomic<uint64_t> reads_{0}, writes_{0}, bytes_written_{0}, busy_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SEAMS_H_
