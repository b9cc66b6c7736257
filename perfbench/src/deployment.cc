// Deployment: the stack afs_server --store builds, assembled in-process (bench.h).

#include "bench.h"

namespace perfbench {
namespace {

afs::Result<std::unique_ptr<afs::FileDisk>> OpenDisk(const std::string& path,
                                                     uint32_t blocks,
                                                     afs::CrashPointInjector* injector) {
  afs::FileDiskOptions options;
  options.block_size = kBlockSize;
  options.num_blocks = blocks;
  options.group_commit_window = kGroupCommitWindow;
  return afs::FileDisk::Open(path, options, injector);
}

}  // namespace

afs::Result<std::unique_ptr<Deployment>> Deployment::Open(const std::string& dir, bool fresh,
                                                          const afs::Capability* directory,
                                                          bool serve) {
  auto d = std::make_unique<Deployment>();
  ASSIGN_OR_RETURN(d->disk_a, OpenDisk(dir + "/a.afsdisk", kDiskBlocks, &d->inject_a));
  ASSIGN_OR_RETURN(d->disk_b, OpenDisk(dir + "/b.afsdisk", kDiskBlocks, &d->inject_b));
  ASSIGN_OR_RETURN(d->disk_archive,
                   OpenDisk(dir + "/archive.afsdisk", 8192, &d->inject_archive));
  d->dev_a = std::make_unique<TimedDevice>(d->disk_a.get());
  d->dev_b = std::make_unique<TimedDevice>(d->disk_b.get());
  // Same seed and construction order on every start, so ports (and with them the
  // capabilities the clients hold) are the same after a restart, as for afs_server.
  d->net = std::make_unique<afs::Network>(11);
  d->block_a = std::make_unique<afs::BlockServer>(d->net.get(), "block-a", d->dev_a.get(), 3);
  d->block_b = std::make_unique<afs::BlockServer>(d->net.get(), "block-b", d->dev_b.get(), 3);
  d->block_a->Start();
  d->block_b->Start();
  d->block_a->SetCompanion(d->block_b->port());
  d->block_b->SetCompanion(d->block_a->port());
  if (!fresh) {
    d->block_a->RecoverFromDisk();
    d->block_b->RecoverFromDisk();
  }
  const afs::Capability account = d->block_a->CreateAccountDirect();
  d->stable = std::make_unique<afs::StableStore>(
      std::make_unique<afs::BlockClient>(d->net.get(), d->block_a->port(), account,
                                         d->block_a->payload_capacity()),
      std::make_unique<afs::BlockClient>(d->net.get(), d->block_b->port(), account,
                                         d->block_b->payload_capacity()),
      1);
  d->tier_to_stable = std::make_unique<TimedBlockStore>(d->stable.get(), /*count_calls=*/false);
  d->platter = std::make_unique<afs::WriteOnceDisk>(d->disk_archive.get());
  d->tiered = std::make_unique<afs::TieredStore>(d->tier_to_stable.get(), d->platter.get());
  RETURN_IF_ERROR(d->tiered->Mount());
  d->fs_to_tier = std::make_unique<TimedBlockStore>(d->tiered.get(), /*count_calls=*/true);
  afs::FileServerOptions fs_options;
  fs_options.committed_cache_capacity = kCommittedCachePages;
  d->fs0 = std::make_unique<afs::FileServer>(d->net.get(), "fs0", d->fs_to_tier.get(),
                                             fs_options);
  d->fs1 = std::make_unique<afs::FileServer>(d->net.get(), "fs1", d->fs_to_tier.get(),
                                             fs_options);
  d->fs0->Start();
  d->fs1->Start();
  RETURN_IF_ERROR(d->fs0->AttachStore());
  RETURN_IF_ERROR(d->fs1->AttachStore());
  d->dir = std::make_unique<afs::DirectoryServer>(
      d->net.get(), "dir", std::vector<afs::Port>{d->fs0->port(), d->fs1->port()});
  d->dir->Start();
  RETURN_IF_ERROR(directory != nullptr ? d->dir->Adopt(*directory) : d->dir->Init());
  afs::GcOptions gc_options;
  gc_options.keep_versions = kKeepVersions;
  d->gc = std::make_unique<afs::GarbageCollector>(
      std::vector<afs::FileServer*>{d->fs0.get(), d->fs1.get()}, gc_options);
  if (serve) {
    afs::net::TcpServer::Options options;
    options.host = "127.0.0.1";
    options.port = 0;
    d->tcp = std::make_unique<afs::net::TcpServer>(d->net.get(), options);
    d->tcp->Expose(d->fs0.get(), "fs0", afs::net::ServiceKind::kFileServer);
    d->tcp->Expose(d->fs1.get(), "fs1", afs::net::ServiceKind::kFileServer);
    d->tcp->Expose(d->block_a.get(), "block-a", afs::net::ServiceKind::kBlockServer);
    d->tcp->Expose(d->block_b.get(), "block-b", afs::net::ServiceKind::kBlockServer);
    d->tcp->Expose(d->dir.get(), "dir", afs::net::ServiceKind::kDirectoryServer);
    d->tcp->set_root_capability(d->dir->directory_file());
    RETURN_IF_ERROR(d->tcp->Start());
  }
  return d;
}

void Deployment::PowerCut() {
  // The next journal append on each disk cuts the power before its fsync: that record and
  // anything else not yet flushed is lost, and the device goes dark.
  const std::vector<uint8_t> block(kBlockSize, 0);
  for (auto [disk, injector] : {std::pair{disk_a.get(), &inject_a},
                                std::pair{disk_b.get(), &inject_b},
                                std::pair{disk_archive.get(), &inject_archive}}) {
    injector->Arm(afs::CrashPoint::kAfterJournalAppend);
    (void)disk->Write(0, block);
  }
}

}  // namespace perfbench
