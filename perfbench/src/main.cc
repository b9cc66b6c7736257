// afs_perfbench: one end-to-end run of the durable TCP deployment of the file service.
//
//   afs_perfbench --workload private_update|hot_counter|read_mostly --seed N --seconds S
//                 --trace 0|1 --store DIR
//
// Builds the stack afs_server --store builds (two BlockServers on FileDisks, a StableStore
// pair under a TieredStore, two FileServers, a DirectoryServer, a TcpServer on loopback)
// inside this process, populates the workload's files, warms up, then drives it for S
// seconds from closed-loop client threads, each with its own TcpTransport. Afterwards it
// checks the outputs against the workload's model, runs a collector cycle, cuts the power,
// restarts the deployment from the store files, checks the model again and runs the
// program's own tiered fsck. The last line of stdout is one JSON object: end-to-end
// metrics with --trace 0, per-layer metrics (span recording on) with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "src/core/protocol.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/tier/fsck.h"

namespace perfbench {
namespace {

using afs::Status;

const Clock::time_point kProcessStart = Clock::now();

constexpr auto kWarmup = std::chrono::seconds(2);
constexpr int kRestarts = 5;
// Least share of the clients' own commit windows the server's commit spans must cover.
constexpr double kMinSpanCoverage = 0.9;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// ---------------------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// q-quantile (0..1) of `v` by the nearest-rank method; 0 for an empty sample.
double Quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t rank = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

namespace {

// ---------------------------------------------------------------------------------------
// The collector, triggered by acknowledged commits rather than by a timer.

class GcDriver {
 public:
  GcDriver(afs::GarbageCollector* gc, const std::atomic<uint64_t>* commits)
      : gc_(gc), commits_(commits) {}
  ~GcDriver() { Stop(); }
  GcDriver(const GcDriver&) = delete;
  GcDriver& operator=(const GcDriver&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      uint64_t next = kCommitsPerGcCycle;
      while (!stop_.load()) {
        if (commits_->load(std::memory_order_relaxed) < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        next += kCommitsPerGcCycle;
        RunCycle();
      }
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // A cycle gives up, leaving its garbage to the next one, when a client's update races
  // it: its mark walk finds a block freed under it (the collector's conservative abort,
  // counted in GcStats::cycles_aborted), or pruning finds the new oldest version of a
  // file locked by a commit (kLocked, returned before the lock is taken). Any other error
  // is a failure of the collector.
  void RunCycle() {
    const auto start = Clock::now();
    const uint64_t aborted = gc_->stats().cycles_aborted;
    Status st = gc_->RunCycle();
    const bool given_up = !st.ok() && (gc_->stats().cycles_aborted != aborted ||
                                       st.code() == afs::ErrorCode::kLocked);
    std::lock_guard<std::mutex> lock(mu_);
    cycle_ns_.push_back(NsSince(start));
    given_up_.push_back(given_up);
    if (!st.ok() && !given_up && error_.ok()) {
      error_ = st;
    }
  }
  std::vector<uint64_t> cycle_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cycle_ns_;
  }
  // Cycles [from, end) that gave up.
  uint64_t GivenUp(size_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint64_t>(
        std::count(given_up_.begin() + static_cast<ptrdiff_t>(from), given_up_.end(), true));
  }
  // The first failed cycle's status.
  Status error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  afs::GarbageCollector* gc_;
  const std::atomic<uint64_t>* commits_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<uint64_t> cycle_ns_;
  std::vector<bool> given_up_;  // per cycle, as cycle_ns_
  Status error_ = afs::OkStatus();
  std::thread thread_;
};

// ---------------------------------------------------------------------------------------
// Counter snapshots around the measured window.

// Sums `"<metric>":{"count":C,"sum_ns":S` (field "sum_ns") or `"<metric>":N` (field empty)
// over every registry of a DumpAllJson() export.
uint64_t SumExported(const std::string& dump, const std::string& metric,
                     const std::string& field) {
  uint64_t total = 0;
  const std::string key = "\"" + metric + "\":";
  for (size_t pos = dump.find(key); pos != std::string::npos; pos = dump.find(key, pos + 1)) {
    size_t at = pos + key.size();
    if (!field.empty()) {
      at = dump.find("\"" + field + "\":", at);
      if (at == std::string::npos) {
        break;
      }
      at += field.size() + 3;
    }
    total += std::strtoull(dump.c_str() + at, nullptr, 10);
  }
  return total;
}

// Bytes received on the loopback interface: the TCP traffic of the run, headers included.
uint64_t LoopbackBytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    char name[32] = {};
    uint64_t rx = 0;
    if (std::sscanf(line.c_str(), " %31[^:]: %" SCNu64, name, &rx) == 2 &&
        std::strcmp(name, "lo") == 0) {
      return rx;
    }
  }
  return 0;
}

// Per-op handler histograms of the file servers reported per layer.
const std::vector<std::pair<const char*, afs::FileOp>> kHandledOps = {
    {"create_version", afs::FileOp::kCreateVersion},
    {"read_page", afs::FileOp::kReadPage},
    {"write_page", afs::FileOp::kWritePage},
    {"write_page_multi", afs::FileOp::kWritePageMulti},
    {"commit", afs::FileOp::kCommit},
    {"validate_cache", afs::FileOp::kValidateCache},
    {"get_current_version", afs::FileOp::kGetCurrentVersion},
};

using Buckets = std::array<uint64_t, afs::obs::Histogram::kNumBuckets>;

struct Snapshot {
  Clock::time_point at;
  uint64_t client_calls = 0;
  uint64_t client_retransmits = 0;
  uint64_t client_retransmits_exhausted = 0;
  uint64_t inner_calls = 0;
  StoreCounts fs_seam;
  uint64_t tier_busy_ns = 0;
  DeviceCounts dev;
  uint64_t fsyncs = 0;
  uint64_t appends = 0;
  uint64_t journal_bytes = 0;
  uint64_t checkpoint_blocks = 0;
  uint64_t fs_handled = 0;
  uint64_t dir_handled = 0;
  uint64_t index_hits = 0;
  uint64_t index_misses = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t group_count = 0;
  uint64_t group_sum = 0;
  uint64_t lo_bytes = 0;
  afs::GcStats gc;
  std::vector<Buckets> op_buckets;
};

uint64_t Counter(afs::Service* s, const char* name) { return s->metrics()->counter(name)->value(); }
afs::obs::Histogram* Hist(afs::Service* s, const std::string& name) {
  return s->metrics()->histogram(name);
}

Snapshot Take(Deployment* d, const std::vector<std::unique_ptr<afs::net::TcpTransport>>& clients) {
  Snapshot s;
  s.at = Clock::now();
  for (const auto& t : clients) {
    s.client_calls += t->total_calls();
    s.client_retransmits += t->retransmits();
    s.client_retransmits_exhausted += t->metrics()->counter("net.retransmit_exhausted")->value();
  }
  s.inner_calls = d->net->total_calls();
  s.fs_seam = d->fs_to_tier->counts();
  s.tier_busy_ns = d->tier_to_stable->counts().busy_ns;
  for (const TimedDevice* dev : {d->dev_a.get(), d->dev_b.get()}) {
    const DeviceCounts c = dev->counts();
    s.dev.reads += c.reads;
    s.dev.writes += c.writes;
    s.dev.bytes_written += c.bytes_written;
    s.dev.busy_ns += c.busy_ns;
  }
  for (const afs::FileDisk* disk : {d->disk_a.get(), d->disk_b.get()}) {
    s.fsyncs += disk->fsync_batches();
    s.appends += disk->journal_appends();
  }
  const std::string dump = afs::obs::DumpAllJson();
  s.journal_bytes = SumExported(dump, "journal.batch_bytes", "sum_ns");
  s.checkpoint_blocks = SumExported(dump, "journal.checkpoint_blocks", "");
  for (afs::FileServer* fs : {d->fs0.get(), d->fs1.get()}) {
    s.fs_handled += Hist(fs, "rpc.handle_ns")->count();
    s.index_hits += Counter(fs, "commit.index_hit");
    s.index_misses += Counter(fs, "commit.index_miss");
    s.cache_hits += Counter(fs, "cache.hit");
    s.cache_misses += Counter(fs, "cache.miss");
    s.group_count += Hist(fs, "commit.group_size")->count();
    s.group_sum += Hist(fs, "commit.group_size")->sum_ns();
  }
  s.dir_handled = Hist(d->dir.get(), "rpc.handle_ns")->count();
  for (const auto& [name, op] : kHandledOps) {
    Buckets b{};
    for (afs::FileServer* fs : {d->fs0.get(), d->fs1.get()}) {
      auto* h = Hist(fs, "rpc.op." + std::to_string(static_cast<uint32_t>(op)) + ".handle_ns");
      for (int i = 0; i < afs::obs::Histogram::kNumBuckets; ++i) {
        b[static_cast<size_t>(i)] += h->bucket(i);
      }
    }
    s.op_buckets.push_back(b);
  }
  s.lo_bytes = LoopbackBytes();
  s.gc = d->gc->stats();
  return s;
}

// Median of the samples recorded between two bucket snapshots, as the geometric middle of
// the bucket holding it (the registry keeps power-of-two buckets, not samples).
double BucketMedianNs(const Buckets& before, const Buckets& after) {
  uint64_t total = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    total += after[i] - before[i];
  }
  if (total == 0) {
    return 0;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    seen += after[i] - before[i];
    if (seen * 2 >= total) {
      const double lo = static_cast<double>(afs::obs::Histogram::BucketLowerBound(static_cast<int>(i)));
      return lo > 0 ? lo * 1.4142135623730951 : 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------------------
// Span analysis of a traced run.

// The span ring holds the most recent 16384 spans, a fraction of a second of a busy run,
// so a traced run harvests it every few milliseconds. Each harvest keeps the spans it has
// not seen before whose names are of interest (the server's commit phases, the client's
// calls); their children are still in the same snapshot, which gives self times.
class SpanHarvester {
 public:
  SpanHarvester() = default;
  ~SpanHarvester() { Stop(); }
  SpanHarvester(const SpanHarvester&) = delete;
  SpanHarvester& operator=(const SpanHarvester&) = delete;

  // Everything in the ring now predates the measured window.
  void Skip() { Harvest(/*keep=*/false); }
  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        Harvest(true);
      }
    });
  }
  // Stops the thread and takes a last harvest.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
      Harvest(true);
    }
  }

  double MedianSelfNs(const std::string& name) const { return MedianIn(self_ns_, name); }
  double MedianNs(const std::string& name) const { return MedianIn(dur_ns_, name); }

  // Share of the benchmark's own commit windows covered by the server's spans, over the
  // transactions whose server-side commit span was harvested: with `phases` the commit.*
  // phase spans, otherwise the whole-commit span.
  double CommitCoverage(const std::vector<std::pair<uint64_t, uint64_t>>& windows, bool phases,
                        uint64_t* samples) const {
    const auto& covered_ns = phases ? commit_phase_ns_ : commit_ns_;
    double covered = 0;
    double measured = 0;
    *samples = 0;
    for (const auto& [trace, window] : windows) {
      auto it = covered_ns.find(trace);
      if (it != covered_ns.end()) {
        covered += static_cast<double>(it->second);
        measured += static_cast<double>(window);
        ++*samples;
      }
    }
    return Ratio(covered, measured);
  }

 private:
  static bool Wanted(const std::string& name) {
    return name.rfind("commit", 0) == 0 || name.rfind("client.", 0) == 0;
  }
  static double MedianIn(const std::map<std::string, std::vector<uint64_t>>& m,
                         const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0 : Quantile(it->second, 0.5);
  }

  void Harvest(bool keep) {
    const std::vector<afs::obs::Span> spans = afs::obs::SnapshotSpans();
    std::unordered_map<uint64_t, uint64_t> child_ns;  // span id -> summed child time
    std::unordered_map<uint64_t, uint64_t> phase_ns;  // commit span id -> phase time
    std::unordered_set<uint64_t> ids;
    for (const auto& s : spans) {
      ids.insert(s.span_id);
      child_ns[s.parent_span_id] += s.duration_ns();
      if (std::strncmp(s.name, "commit.", 7) == 0) {
        phase_ns[s.parent_span_id] += s.duration_ns();
      }
    }
    if (keep) {
      for (const auto& s : spans) {
        const std::string name = s.name;
        if (seen_.count(s.span_id) > 0 || !Wanted(name)) {
          continue;
        }
        const uint64_t d = s.duration_ns();
        const uint64_t children = child_ns[s.span_id];
        dur_ns_[name].push_back(d);
        self_ns_[name].push_back(d > children ? d - children : 0);
        if (name == "commit") {
          commit_ns_[s.trace_id] += d;
          commit_phase_ns_[s.trace_id] += phase_ns[s.span_id];
        }
      }
    }
    seen_ = std::move(ids);
  }

  std::unordered_set<uint64_t> seen_;  // span ids of the previous harvest
  std::map<std::string, std::vector<uint64_t>> self_ns_;
  std::map<std::string, std::vector<uint64_t>> dur_ns_;
  std::unordered_map<uint64_t, uint64_t> commit_ns_;        // trace id -> commit span time
  std::unordered_map<uint64_t, uint64_t> commit_phase_ns_;  // trace id -> phase time
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string store;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--store") {
      args->store = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->store.empty() &&
         args->seconds > 0;
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "afs_perfbench: %s\n", why.c_str());
  return 1;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    return Fail("unknown workload " + args.workload);
  }
  std::error_code ec;
  std::filesystem::remove_all(args.store, ec);
  std::filesystem::create_directories(args.store, ec);
  if (ec) {
    return Fail("cannot create " + args.store + ": " + ec.message());
  }

  // ---- set-up: deployment, files, client connections ----
  auto opened = Deployment::Open(args.store, /*fresh=*/true, nullptr, /*serve=*/true);
  if (!opened.ok()) {
    return Fail("deployment: " + opened.status().ToString());
  }
  std::unique_ptr<Deployment> d = std::move(opened).value();
  if (Status st = workload->Populate(d.get()); !st.ok()) {
    return Fail("populate: " + st.ToString());
  }
  Shared shared;
  shared.tracing = args.trace;
  std::vector<std::unique_ptr<afs::net::TcpTransport>> transports;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    afs::net::TcpTransport::Options options;
    options.seed = args.seed * 7919 + static_cast<uint64_t>(i);
    transports.push_back(
        std::make_unique<afs::net::TcpTransport>("127.0.0.1", d->tcp->port(), options));
    auto hello = transports.back()->SayHello();
    if (!hello.ok()) {
      return Fail("hello: " + hello.status().ToString());
    }
    Endpoints endpoints;
    for (const auto& entry : hello->services) {
      if (entry.kind == static_cast<uint8_t>(afs::net::ServiceKind::kFileServer)) {
        endpoints.file_servers.push_back(entry.port);
      } else if (entry.kind == static_cast<uint8_t>(afs::net::ServiceKind::kDirectoryServer)) {
        endpoints.directory = entry.port;
      }
    }
    clients.push_back(workload->MakeClient(i, transports.back().get(), endpoints, &shared));
  }
  const double setup_s = Seconds(Clock::now() - kProcessStart);

  // ---- warm-up, then the measured window ----
  afs::obs::SetSpanEnabled(args.trace);
  GcDriver gc(d->gc.get(), &shared.commits);
  gc.Start();
  // Clients park between the warm-up and the measured window, so that both counter
  // snapshots are taken with no client call in flight.
  enum Phase : int { kWarm = 0, kPark = 1, kMeasure = 2, kStop = 3 };
  std::atomic<int> phase{kWarm};
  std::atomic<int> parked{0};
  std::vector<Recorder> measured(kClients);
  std::vector<uint64_t> done(kClients, 0), failed(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const size_t me = static_cast<size_t>(i);
      bool is_parked = false;
      for (;;) {
        const int p = phase.load();
        if (p == kStop) {
          break;
        }
        if (p == kPark) {
          if (!is_parked) {
            is_parked = true;
            parked.fetch_add(1);
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        Recorder warm;
        const bool ok = clients[me]->Op(p == kMeasure ? &measured[me] : &warm);
        if (p == kMeasure) {
          (ok ? done : failed)[me] += 1;
        }
      }
    });
  }
  std::this_thread::sleep_for(kWarmup);
  phase.store(kPark);
  while (parked.load() < kClients) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  SpanHarvester spans;
  if (args.trace) {
    spans.Skip();
    spans.Start();
  }
  const Snapshot before = Take(d.get(), transports);
  const size_t gc_cycles_before = gc.cycle_ns().size();
  phase.store(kMeasure);
  std::this_thread::sleep_for(std::chrono::seconds(args.seconds));
  phase.store(kStop);
  for (auto& t : threads) {
    t.join();
  }
  const auto window_end = Clock::now();
  gc.Stop();
  const std::vector<uint64_t> cycles = gc.cycle_ns();
  const uint64_t cycles_given_up = gc.GivenUp(gc_cycles_before);
  spans.Stop();
  afs::obs::SetSpanEnabled(false);
  const Snapshot after = Take(d.get(), transports);
  const double window_s = Seconds(window_end - before.at);

  bool correct = true;
  std::string why;
  for (const auto& c : clients) {
    if (!c->error().empty()) {
      correct = false;
      why = c->error();
    }
  }
  Recorder all;
  uint64_t ops = 0;
  uint64_t fails = 0;
  for (int i = 0; i < kClients; ++i) {
    const Recorder& r = measured[static_cast<size_t>(i)];
    all.txn_ns.insert(all.txn_ns.end(), r.txn_ns.begin(), r.txn_ns.end());
    all.read_ns.insert(all.read_ns.end(), r.read_ns.begin(), r.read_ns.end());
    all.lookup_ns.insert(all.lookup_ns.end(), r.lookup_ns.begin(), r.lookup_ns.end());
    all.commit_windows.insert(all.commit_windows.end(), r.commit_windows.begin(),
                              r.commit_windows.end());
    all.txns += r.txns;
    all.txn_attempts += r.txn_attempts;
    all.crash_redos += r.crash_redos;
    all.failed_txns += r.failed_txns;
    all.failed_attempts += r.failed_attempts;
    all.unacked_applied += r.unacked_applied;
    if (!r.last_failure.empty()) {
      all.last_failure = r.last_failure;
    }
    all.cached_reads += r.cached_reads;
    all.cache_hits += r.cache_hits;
    all.validations += r.validations;
    ops += done[static_cast<size_t>(i)];
    fails += failed[static_cast<size_t>(i)];
  }
  // Client calls reach the file servers or the directory server; each directory lookup
  // makes two in-process file-server calls (current version, root page) that the file
  // servers count as handled too. So sent = fs handled - 2 * dir handled + dir handled.
  const uint64_t client_calls = after.client_calls - before.client_calls;
  const int64_t rpc_gap =
      static_cast<int64_t>(client_calls) -
      static_cast<int64_t>((after.fs_handled - before.fs_handled) -
                           (after.dir_handled - before.dir_handled));
  if (args.trace && rpc_gap != 0) {
    correct = false;
    why = "client transports sent " + std::to_string(client_calls) +
          " calls, servers handled " + std::to_string(client_calls - rpc_gap);
  }
  // The server's commit spans must cover the commit latency the clients measured.
  uint64_t coverage_samples = 0;
  const double coverage = spans.CommitCoverage(all.commit_windows, false, &coverage_samples);
  if (args.trace && coverage_samples > 0 && coverage < kMinSpanCoverage) {
    correct = false;
    why = "commit spans cover " + std::to_string(coverage) +
          " of the commit latency the clients measured";
  }

  // ---- outputs against the model, collector cycle, space ----
  if (correct && !workload->Verify(d->fs0.get(), &why)) {
    correct = false;
  }
  gc.RunCycle();
  if (Status st = gc.error(); correct && !st.ok()) {
    correct = false;
    why = "collector: " + st.ToString();
  }
  const auto listed = d->fs_to_tier->ListBlocks();
  const double stored_ratio =
      listed.ok() ? Ratio(static_cast<double>(listed->size()) * kBlockSize,
                          static_cast<double>(workload->LiveUserBytes()))
                  : 0;
  const afs::Capability directory = d->dir->directory_file();

  // ---- power cut, restart from the store files, model and fsck again ----
  // Recovery is timed over kRestarts cold restarts, each after a power cut, and reported
  // as their median; the model is checked on the state the last one recovered.
  for (auto& t : transports) {
    t.reset();
  }
  std::vector<uint64_t> restart_ns;
  for (int r = 0; r < kRestarts; ++r) {
    d->PowerCut();
    d.reset();
    const auto restart = Clock::now();
    auto recovered = Deployment::Open(args.store, /*fresh=*/false, &directory, /*serve=*/false);
    restart_ns.push_back(NsSince(restart));
    if (!recovered.ok()) {
      return Fail("restart: " + recovered.status().ToString());
    }
    d = std::move(recovered).value();
  }
  const double recovery_s = Quantile(restart_ns, 0.5) / 1e9;
  if (correct && !workload->Verify(d->fs0.get(), &why)) {
    correct = false;
    why = "after restart: " + why;
  }
  const afs::FsckReport fsck = afs::RunTieredFsck(d->fs0.get(), d->tiered.get());
  if (correct && !fsck.clean) {
    correct = false;
    why = "fsck: " + (fsck.errors.empty() ? std::string("not clean") : fsck.errors.front());
  }
  d.reset();
  std::filesystem::remove_all(args.store, ec);
  if (!correct) {
    std::fprintf(stderr, "afs_perfbench: output check failed: %s\n", why.c_str());
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double per_op = static_cast<double>(std::max<uint64_t>(ops, 1));
  std::fprintf(stderr,
               "afs_perfbench: %s seed=%" PRIu64 " ops=%" PRIu64 " txns=%" PRIu64
               " reads=%zu lookups=%zu window=%.3fs setup=%.3fs recovery=%.3fs gc_cycles=%zu"
               " gc_given_up=%" PRIu64
               " crash_redos=%" PRIu64 " unacked_applied=%" PRIu64 " retransmits=%" PRIu64
               " exhausted=%" PRIu64 " failed_txns=%" PRIu64 "%s%s\n",
               args.workload.c_str(), args.seed, ops, all.txns, all.read_ns.size(),
               all.lookup_ns.size(), window_s, setup_s, recovery_s,
               cycles.size() - gc_cycles_before,
               cycles_given_up, all.crash_redos, all.unacked_applied,
               after.client_retransmits - before.client_retransmits,
               after.client_retransmits_exhausted - before.client_retransmits_exhausted,
               all.failed_txns, all.last_failure.empty() ? "" : " last_failure=",
               all.last_failure.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double disk_bytes =
        static_cast<double>(after.journal_bytes - before.journal_bytes) +
        static_cast<double>(after.checkpoint_blocks - before.checkpoint_blocks) *
            (afs::kSectorHeaderBytes + kBlockSize);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", static_cast<double>(ops) / window_s, "ops/s"},
        {"txn_p50_us", Quantile(all.txn_ns, 0.50) / 1e3, "us"},
        {"txn_p90_us", Quantile(all.txn_ns, 0.90) / 1e3, "us"},
        {"read_p50_us", Quantile(all.read_ns, 0.50) / 1e3, "us"},
        {"read_p90_us", Quantile(all.read_ns, 0.90) / 1e3, "us"},
        {"disk_bytes_per_op", disk_bytes / per_op, "bytes"},
        {"stored_bytes_per_user_byte", stored_ratio, "ratio"},
        {"recovery_s", recovery_s, "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    auto delta = [&](uint64_t Snapshot::*field) {
      return static_cast<double>(after.*field - before.*field);
    };
    const StoreCounts& fb = before.fs_seam;
    const StoreCounts& fa = after.fs_seam;
    const double gc_n = static_cast<double>(after.gc.cycles - before.gc.cycles);
    std::vector<uint64_t> cycle_tail(cycles.begin() + static_cast<ptrdiff_t>(gc_cycles_before),
                                     cycles.end());
    const double hits = delta(&Snapshot::index_hits);
    const double cache_hits = delta(&Snapshot::cache_hits);
    uint64_t phase_samples = 0;
    const double phase_coverage = spans.CommitCoverage(all.commit_windows, true, &phase_samples);
    const double all_txns = static_cast<double>(all.txns + all.failed_txns);
    metrics = {
        {"trace.ops_per_s", static_cast<double>(ops) / window_s, "ops/s"},
        {"client.rpcs_per_op", static_cast<double>(client_calls) / per_op, "calls/op"},
        {"client.attempts_per_txn",
         Ratio(static_cast<double>(all.txn_attempts + all.failed_attempts), all_txns),
         "attempts"},
        {"client.useful_ratio",
         Ratio(static_cast<double>(all.txns),
               static_cast<double>(all.txn_attempts + all.failed_attempts)),
         "ratio"},
        {"client.crash_redos", static_cast<double>(all.crash_redos), "count"},
        {"client.unacked_applied", static_cast<double>(all.unacked_applied), "count"},
        {"client.create_version_us", spans.MedianNs("client.create_version") / 1e3, "us"},
        {"client.write_page_us",
         std::max(spans.MedianNs("client.write_pages"),
                  spans.MedianNs("client.write_page")) / 1e3, "us"},
        {"client.commit_call_us", spans.MedianNs("client.commit") / 1e3, "us"},
        {"client.cache_hit_ratio", Ratio(static_cast<double>(all.cache_hits),
                                         static_cast<double>(all.cached_reads)), "ratio"},
        {"client.validations_per_read", Ratio(static_cast<double>(all.validations),
                                              static_cast<double>(all.cached_reads)),
         "calls/read"},
        {"net.bytes_per_op", delta(&Snapshot::lo_bytes) / per_op, "bytes"},
        {"net.retransmits", delta(&Snapshot::client_retransmits), "count"},
        {"net.retransmits_exhausted", delta(&Snapshot::client_retransmits_exhausted), "count"},
        {"namesvc.lookup_us", Quantile(all.lookup_ns, 0.5) / 1e3, "us"},
        {"rpc.inner_calls_per_op", delta(&Snapshot::inner_calls) / per_op, "calls/op"},
        {"rpc.client_server_gap", static_cast<double>(rpc_gap), "calls"},
        {"core.commit.wait_us", spans.MedianSelfNs("commit.wait") / 1e3, "us"},
        {"core.commit.validate_us", spans.MedianSelfNs("commit.validate") / 1e3, "us"},
        {"core.commit.merge_us", spans.MedianSelfNs("commit.merge") / 1e3, "us"},
        {"core.commit.flip_us", spans.MedianSelfNs("commit.flip") / 1e3, "us"},
        {"core.commit.span_coverage", coverage, "ratio"},
        {"core.commit.phase_coverage", phase_coverage, "ratio"},
        {"core.commit.coverage_samples", static_cast<double>(coverage_samples), "count"},
        {"core.commit.group_size",
         Ratio(delta(&Snapshot::group_sum), delta(&Snapshot::group_count)), "txns"},
        {"core.commit.index_hit_ratio", Ratio(hits, hits + delta(&Snapshot::index_misses)),
         "ratio"},
        {"core.committed_cache_hit_ratio",
         Ratio(cache_hits, cache_hits + delta(&Snapshot::cache_misses)), "ratio"},
        {"block.reads_per_op", static_cast<double>(fa.reads - fb.reads) / per_op, "calls/op"},
        {"block.read_multis_per_op", static_cast<double>(fa.read_multis - fb.read_multis) / per_op, "calls/op"},
        {"block.writes_per_op", static_cast<double>(fa.writes - fb.writes) / per_op, "calls/op"},
        {"block.write_batches_per_op", static_cast<double>(fa.write_batches - fb.write_batches) / per_op, "calls/op"},
        {"block.allocs_per_op", static_cast<double>(fa.allocs - fb.allocs) / per_op, "blocks/op"},
        {"block.frees_per_op", static_cast<double>(fa.frees - fb.frees) / per_op, "blocks/op"},
        {"block.locks_per_op", static_cast<double>(fa.locks - fb.locks) / per_op, "calls/op"},
        {"block.blocks_written_per_op", static_cast<double>(fa.blocks_written - fb.blocks_written) / per_op, "blocks/op"},
        {"block.busy_us_per_op", static_cast<double>(fa.busy_ns - fb.busy_ns) / 1e3 / per_op, "us/op"},
        {"tier.self_us_per_op",
         (static_cast<double>(fa.busy_ns - fb.busy_ns) -
          delta(&Snapshot::tier_busy_ns)) / 1e3 / per_op,
         "us/op"},
        {"disk.reads_per_op", static_cast<double>(after.dev.reads - before.dev.reads) / per_op, "reads/op"},
        {"disk.writes_per_op", static_cast<double>(after.dev.writes - before.dev.writes) / per_op, "writes/op"},
        {"disk.bytes_written_per_op", static_cast<double>(after.dev.bytes_written - before.dev.bytes_written) / per_op, "bytes"},
        {"disk.busy_us_per_op", static_cast<double>(after.dev.busy_ns - before.dev.busy_ns) / 1e3 / per_op, "us/op"},
        {"store.fsyncs_per_op", delta(&Snapshot::fsyncs) / per_op, "fsyncs/op"},
        {"store.journal_bytes_per_op", delta(&Snapshot::journal_bytes) / per_op, "bytes"},
        {"store.appends_per_fsync", Ratio(delta(&Snapshot::appends), delta(&Snapshot::fsyncs)), "appends"},
        {"gc.cycles", gc_n, "count"},
        {"gc.cycles_given_up", static_cast<double>(cycles_given_up), "count"},
        {"gc.cycle_ms", Quantile(cycle_tail, 0.5) / 1e6, "ms"},
        {"gc.blocks_swept_per_cycle",
         Ratio(static_cast<double>(after.gc.blocks_swept - before.gc.blocks_swept), gc_n), "blocks"},
        {"gc.versions_pruned_per_cycle",
         Ratio(static_cast<double>(after.gc.versions_pruned - before.gc.versions_pruned), gc_n),
         "versions"},
    };
    for (size_t i = 0; i < kHandledOps.size(); ++i) {
      metrics.push_back({std::string("rpc.handle_us.") + kHandledOps[i].first,
                         BucketMedianNs(before.op_buckets[i], after.op_buckets[i]) / 1e3, "us"});
    }
  }
  std::printf("%s\n", FormatResult(correct, ops + fails, fails, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload private_update|hot_counter|read_mostly --seed N "
                 "--seconds S --trace 0|1 --store DIR\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
