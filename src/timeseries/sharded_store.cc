#include "timeseries/sharded_store.h"

#include <algorithm>
#include <utility>

#include "util/dir_layout.h"
#include "util/file_io.h"

namespace dd {
namespace {

/// A flat (PR 2-4) single-store directory is recognized by its files; an
/// empty or freshly-created directory has none of them.
bool LegacyLayoutExists(const std::string& data_dir) {
  return FileExists(DurableSketchStore::WalPath(data_dir)) ||
         FileExists(DurableSketchStore::SnapshotPath(data_dir));
}

}  // namespace

size_t ShardedDurableStore::ShardForSeries(std::string_view series,
                                           size_t num_shards) {
  return num_shards <= 1 ? 0 : ShardHash(series) % num_shards;
}

Result<ShardedDurableStore> ShardedDurableStore::Open(
    const std::string& data_dir, const ShardedDurableStoreOptions& options) {
  if (options.shards > kMaxShards) {
    return Status::InvalidArgument("shard count out of range");
  }
  DD_RETURN_IF_ERROR(CreateDirIfMissing(data_dir));

  // The layout decision below (read manifest → maybe write manifest →
  // open shards) must be atomic against concurrent first-openers: two
  // racing creators with different shard counts could otherwise each
  // pass the "fresh directory" check, and the loser's manifest could
  // survive on disk while the winner serves with a different modulus —
  // silently mis-routing every later open. LAYOUT.lock serializes the
  // decision; it is held only for the duration of Open (the per-shard
  // LOCK files own steady-state exclusion) and is distinct from the
  // flat layout's LOCK so single-shard opens don't self-deadlock.
  auto layout_lock = FileLock::Acquire(LayoutLockPath(data_dir));
  if (!layout_lock.ok()) return layout_lock.status();

  // Decide the layout: manifest wins, then legacy files, then fresh.
  auto manifest = ReadShardManifest(data_dir);
  if (!manifest.ok()) return manifest.status();
  size_t count = 0;
  bool flat = false;
  if (manifest.value() > 0) {
    if (options.shards != 0 && options.shards != manifest.value()) {
      return Status::Incompatible(
          "data directory was created with shards=" +
          std::to_string(manifest.value()) + ", reopened with shards=" +
          std::to_string(options.shards) +
          " (re-splitting would re-route series)");
    }
    count = manifest.value();
  } else if (LegacyLayoutExists(data_dir)) {
    if (options.shards > 1) {
      return Status::Incompatible(
          "data directory has a legacy single-store layout; open it with "
          "shards=1 (or 0) — it cannot be re-split in place");
    }
    count = 1;
    flat = true;
  } else {
    count = options.shards == 0 ? 1 : options.shards;
    // Single-shard directories keep the flat layout so they stay
    // byte-compatible with DurableSketchStore; only a genuinely sharded
    // directory gets the manifest + shard-<k> subdirectories.
    flat = count == 1;
    if (!flat) {
      DD_RETURN_IF_ERROR(WriteShardManifest(data_dir, count));
    }
  }

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    const std::string shard_dir = flat ? data_dir : ShardSubdir(data_dir, k);
    auto shard = DurableSketchStore::Open(shard_dir, options.durable);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::make_unique<Shard>(std::move(shard).value()));
  }
  return ShardedDurableStore(std::move(shards));
}

std::vector<std::string> ShardedDurableStore::ListSeries() const {
  std::vector<std::string> all;
  for (size_t k = 0; k < shards_.size(); ++k) {
    std::vector<std::string> names = WithShard(
        k, [](const DurableSketchStore& shard) { return shard.ListSeries(); });
    all.insert(all.end(), std::make_move_iterator(names.begin()),
               std::make_move_iterator(names.end()));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

Status ShardedDurableStore::Checkpoint() {
  for (size_t k = 0; k < shards_.size(); ++k) {
    DD_RETURN_IF_ERROR(WithShard(
        k, [](DurableSketchStore& shard) { return shard.Checkpoint(); }));
  }
  return Status::OK();
}

Result<size_t> ShardedDurableStore::Compact(int64_t now) {
  size_t total = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto compacted = WithShard(
        k, [now](DurableSketchStore& shard) { return shard.Compact(now); });
    if (!compacted.ok()) return compacted.status();
    total += compacted.value();
  }
  return total;
}

ShardedDurableStore::Fencing ShardedDurableStore::FenceState() const {
  Fencing fencing;
  for (size_t k = 0; k < shards_.size(); ++k) {
    WithShard(k, [&fencing](const DurableSketchStore& shard) {
      fencing.token = std::max(fencing.token, shard.fence_token());
      fencing.fenced = fencing.fenced || shard.fenced();
    });
  }
  return fencing;
}

Status ShardedDurableStore::Fence(uint64_t observed_token) {
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Status status = WithShard(
        k, [observed_token](DurableSketchStore& shard) {
          return shard.Fence(observed_token);
        });
    if (first.ok()) first = status;
  }
  return first;
}

Status ShardedDurableStore::AdoptFenceToken(uint64_t token) {
  Status first;
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Status status = WithShard(k, [token](DurableSketchStore& shard) {
      return shard.AdoptFenceToken(token);
    });
    if (first.ok()) first = status;
  }
  return first;
}

Result<uint64_t> ShardedDurableStore::Promote() {
  // Equalize first so every shard lands on the same new token even if
  // a crash left them divergent.
  const uint64_t max_token = FenceState().token;
  uint64_t token = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto promoted = WithShard(
        k, [max_token](DurableSketchStore& shard) -> Result<uint64_t> {
          DD_RETURN_IF_ERROR(shard.AdoptFenceToken(max_token));
          return shard.Promote();
        });
    if (!promoted.ok()) return promoted.status();
    token = promoted.value();
  }
  return token;
}

std::vector<ShardedDurableStore::ShardUsage> ShardedDurableStore::Usage()
    const {
  std::vector<ShardUsage> usage;
  usage.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    usage.push_back(WithShard(k, [](const DurableSketchStore& shard) {
      ShardUsage row;
      row.num_series = shard.store().num_series();
      row.size_in_bytes = shard.store().size_in_bytes();
      row.wal_offset = shard.wal_offset();
      row.epoch = shard.epoch();
      row.fence_token = shard.fence_token();
      row.fenced = shard.fenced();
      row.role = shard.role();
      row.levels = shard.store().LevelStats();
      return row;
    }));
  }
  return usage;
}

size_t ShardedDurableStore::TotalSeries() const {
  size_t total = 0;
  for (const ShardUsage& shard : Usage()) total += shard.num_series;
  return total;
}

size_t ShardedDurableStore::TotalIntervals() const {
  size_t total = 0;
  for (const ShardUsage& shard : Usage()) {
    for (const LevelUsage& level : shard.levels) total += level.num_intervals;
  }
  return total;
}

}  // namespace dd
