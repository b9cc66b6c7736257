// Shared pieces of the end-to-end benchmark: the durable deployment it assembles, the
// per-thread recorder, and the workload interface.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/capability.h"
#include "src/base/status.h"
#include "src/block/block_server.h"
#include "src/block/block_store.h"
#include "src/block/protocol.h"
#include "src/core/file_server.h"
#include "src/core/gc.h"
#include "src/disk/write_once_disk.h"
#include "src/namesvc/directory_server.h"
#include "src/net/tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/rpc/network.h"
#include "seams.h"
#include "src/store/crash_point.h"
#include "src/store/file_disk.h"
#include "src/tier/tiered_store.h"

namespace perfbench {

// Geometry and flush policy of the block devices. Group commit as in afs_server; the disks
// are larger than its 8192 blocks so that read_mostly's page set fits.
inline constexpr uint32_t kBlockSize = afs::kDefaultBlockSize;
inline constexpr uint32_t kDiskBlocks = 65536;
inline constexpr auto kGroupCommitWindow = std::chrono::microseconds(200);
// The file servers' committed-page cache, a quarter of read_mostly's page set
// (afs_server keeps the FileServer default of 4096 pages).
inline constexpr size_t kCommittedCachePages = 1024;
// Closed-loop client threads, one TCP connection each.
inline constexpr int kClients = 4;
// Committed versions the collector keeps per file, and its trigger.
inline constexpr uint32_t kKeepVersions = 2;
inline constexpr uint64_t kCommitsPerGcCycle = 200;

// The stack afs_server --store builds, assembled in this process, with the benchmark's
// seams between the layers. Members are declared in construction order, so destruction
// tears the stack down top first.
class Deployment {
 public:
  // Opens (fresh: creates) the store in `dir`. With `directory` null a new directory is
  // initialised, otherwise it is adopted. `serve` starts the TCP front end on loopback.
  static afs::Result<std::unique_ptr<Deployment>> Open(const std::string& dir, bool fresh,
                                                       const afs::Capability* directory,
                                                       bool serve);

  // Power cut on every disk: writes not yet flushed are discarded and the devices refuse
  // all further I/O, so tearing the deployment down afterwards flushes nothing.
  void PowerCut();

  afs::CrashPointInjector inject_a, inject_b, inject_archive;
  std::unique_ptr<afs::FileDisk> disk_a, disk_b, disk_archive;
  std::unique_ptr<TimedDevice> dev_a, dev_b;
  std::unique_ptr<afs::Network> net;
  std::unique_ptr<afs::BlockServer> block_a, block_b;
  std::unique_ptr<afs::StableStore> stable;
  std::unique_ptr<TimedBlockStore> tier_to_stable;
  std::unique_ptr<afs::WriteOnceDisk> platter;
  std::unique_ptr<afs::TieredStore> tiered;
  std::unique_ptr<TimedBlockStore> fs_to_tier;
  std::unique_ptr<afs::FileServer> fs0, fs1;
  std::unique_ptr<afs::DirectoryServer> dir;
  std::unique_ptr<afs::GarbageCollector> gc;
  std::unique_ptr<afs::net::TcpServer> tcp;
};

// Where a client finds the service, from the TCP server's hello manifest.
struct Endpoints {
  std::vector<afs::Port> file_servers;
  afs::Port directory = afs::kNullPort;
};

// One client thread's measurements. Latencies are nanoseconds.
struct Recorder {
  std::vector<uint64_t> txn_ns;     // update transactions, redos included
  std::vector<uint64_t> read_ns;    // single page reads
  std::vector<uint64_t> lookup_ns;  // directory lookups
  uint64_t txns = 0;
  uint64_t txn_attempts = 0;
  // Redos of acknowledged transactions after kCrashed/kTimeout/kUnavailable/kAborted: for
  // a redo after Commit, the first commit's outcome was unknown to the client.
  uint64_t crash_redos = 0;
  // Transactions that failed, and their attempts that ran the update body.
  uint64_t failed_txns = 0;
  uint64_t failed_attempts = 0;
  std::string last_failure;
  // private_update: transaction reads that found a commit applied whose acknowledgement
  // never reached the client.
  uint64_t unacked_applied = 0;
  // Reads through the client cache, and what the cache did for them.
  uint64_t cached_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t validations = 0;
  // First-attempt transactions: (trace id, ns from the end of the update body to the
  // acknowledged commit), matched against the server's commit spans in traced runs.
  std::vector<std::pair<uint64_t, uint64_t>> commit_windows;
};

// State shared by the clients and the harness while a workload runs.
struct Shared {
  std::atomic<uint64_t> commits{0};  // acknowledged commits, the collector's trigger
  bool tracing = false;
};

class Client {
 public:
  virtual ~Client() = default;
  // One operation. Returns false if it failed; an oracle violation is kept in error().
  virtual bool Op(Recorder* rec) = 0;
  const std::string& error() const { return error_; }

 protected:
  void Violation(const std::string& why) {
    if (error_.empty()) {
      error_ = why;
    }
  }

 private:
  std::string error_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Creates and fills the workload's files through the deployment's direct API.
  virtual afs::Status Populate(Deployment* d) = 0;
  virtual std::unique_ptr<Client> MakeClient(int index, afs::Transport* transport,
                                             const Endpoints& endpoints, Shared* shared) = 0;
  // Reads every page back through `fs` and compares it with the model. Used on the live
  // deployment after the run and again on the deployment recovered from the store files.
  virtual bool Verify(afs::FileServer* fs, std::string* why) = 0;
  // Bytes of page data the files hold.
  virtual uint64_t LiveUserBytes() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
