// ShardedDurableStore: N independent DurableSketchStore shards under one
// data directory, with series routed to shards by a stable hash of the
// series name (util/dir_layout.h).
//
// Why shards: DDSketch is fully mergeable (paper §2.3), so the store can
// be split into independently-ingesting, independently-recovering,
// independently-checkpointing pieces and still answer any query exactly
// by merging at read time. Each shard owns its own WAL, snapshot, epoch,
// and directory lock, so fsyncs, crash recovery, and checkpoints proceed
// per shard — a checkpoint of shard 2 never stalls ingest on shard 5.
//
// Directory layouts (util/dir_layout.h):
//   sharded:  <dir>/SHARDS (manifest) + <dir>/shard-<k>/ per shard
//   legacy:   wal.log / snapshot.dds / LOCK directly under <dir>
// Single-shard mode keeps the legacy flat layout byte-for-byte: a
// shards=1 open of a PR 2-4 directory (or a fresh directory) reads and
// writes exactly what DurableSketchStore would, so nothing ever needs
// migrating to "upgrade" to this class. The manifest pins the shard
// count at creation; reopening with a different explicit count fails
// with Incompatible (re-splitting would re-route series mid-history).
//
// Thread-safety contract: the store is thread-safe. Each shard's state
// is serialized by that shard's own lock, and every public method takes
// the locks of the shards it touches itself, one at a time and in shard
// order — never two at once — so ingest on one shard never waits for a
// checkpoint, query or fence on another. Routing (ShardOf) and record
// validation read only immutable state and take no lock. WithShard runs
// a caller's multi-step critical section under one shard's lock; no
// store method may be called inside its callback (the lock is not
// recursive). The const shard(k) reads without a lock, for callers that
// know no other thread is using the store.

#ifndef DDSKETCH_TIMESERIES_SHARDED_STORE_H_
#define DDSKETCH_TIMESERIES_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "timeseries/durable_store.h"
#include "util/status.h"

namespace dd {

struct ShardedDurableStoreOptions {
  DurableSketchStoreOptions durable;
  /// Number of shards. 0 = auto-detect: adopt the directory's manifest
  /// count, open a legacy flat directory as one shard, and create fresh
  /// directories single-shard. An explicit count must match what the
  /// directory was created with (Incompatible otherwise); an explicit
  /// count > 1 on a fresh directory creates the sharded layout.
  size_t shards = 0;
};

class ShardedDurableStore {
 public:
  /// Opens (creating if needed) and recovers every shard. Each shard
  /// runs the full DurableSketchStore recovery protocol independently;
  /// the first shard failure aborts the open.
  static Result<ShardedDurableStore> Open(
      const std::string& data_dir, const ShardedDurableStoreOptions& options);

  /// The stable series -> shard route: ShardHash(series) % num_shards.
  static size_t ShardForSeries(std::string_view series, size_t num_shards);

  /// `<dir>/LAYOUT.lock` — flock'd for the duration of Open() so the
  /// layout decision (manifest read/creation + shard opens) is atomic
  /// against concurrent first-openers. Steady-state exclusion is the
  /// per-shard LOCK files' job.
  static std::string LayoutLockPath(const std::string& data_dir) {
    return data_dir + "/LAYOUT.lock";
  }

  size_t num_shards() const noexcept { return shards_.size(); }
  size_t ShardOf(std::string_view series) const {
    return ShardForSeries(series, shards_.size());
  }

  /// Runs `fn(shard)` under shard `k`'s lock and returns its result by
  /// value (no reference into the shard outlives the lock): the one way
  /// to run a multi-step critical section on a shard (a committer's
  /// batch plus its offset reads, a scheduler's dirty check plus
  /// checkpoint, a replication ship or apply). `fn` must not call back
  /// into this store.
  template <typename Fn>
  auto WithShard(size_t k, Fn&& fn) {
    std::lock_guard<std::mutex> lk(shards_[k]->mu);
    return std::forward<Fn>(fn)(shards_[k]->store);
  }
  template <typename Fn>
  auto WithShard(size_t k, Fn&& fn) const {
    std::lock_guard<std::mutex> lk(shards_[k]->mu);
    return std::forward<Fn>(fn)(std::as_const(shards_[k]->store));
  }

  /// Unlocked read-only access to one shard (see the contract above).
  const DurableSketchStore& shard(size_t k) const { return shards_[k]->store; }

  // Routed single-record ingest (CLI and tests; the server batches per
  // shard through WithShard instead).
  Status Ingest(const std::string& series, int64_t timestamp,
                std::string_view payload) {
    return WithShard(ShardOf(series), [&](DurableSketchStore& shard) {
      return shard.Ingest(series, timestamp, payload);
    });
  }
  Status IngestValue(const std::string& series, int64_t timestamp,
                     double value) {
    return WithShard(ShardOf(series), [&](DurableSketchStore& shard) {
      return shard.IngestValue(series, timestamp, value);
    });
  }

  /// Validation reads only the (identical across shards) immutable store
  /// configuration; safe from any thread. `*decoded` receives a sketch
  /// record's decoded payload (DurableSketchStore::ValidateRecord).
  Status ValidateRecord(const WalRecord& record,
                        std::optional<DDSketch>* decoded) const {
    return shards_[0]->store.ValidateRecord(record, decoded);
  }

  // Reads route to the owning shard: a series lives on exactly one
  // shard by construction (the hash is pinned and the manifest count is
  // immutable), so the owner's answer IS the whole answer — merging the
  // other shards could only ever add empty results. Range queries are
  // still merge-on-read inside the shard (across interval sketches, via
  // DDSketch::MergeFrom), which is what keeps sharded answers exactly
  // equal to a single-store run.
  Result<DDSketch> QueryRange(const std::string& series, int64_t start,
                              int64_t end) const {
    return WithShard(ShardOf(series), [&](const DurableSketchStore& shard) {
      return shard.QueryRange(series, start, end);
    });
  }
  Result<double> QueryQuantile(const std::string& series, int64_t start,
                               int64_t end, double q) const {
    return WithShard(ShardOf(series), [&](const DurableSketchStore& shard) {
      return shard.QueryQuantile(series, start, end, q);
    });
  }
  Result<std::vector<SeriesPoint>> QuerySeries(const std::string& series,
                                               int64_t start, int64_t end,
                                               double q,
                                               int64_t step_seconds) const {
    return WithShard(ShardOf(series), [&](const DurableSketchStore& shard) {
      return shard.QuerySeries(series, start, end, q, step_seconds);
    });
  }

  /// Sorted union of every shard's series names.
  std::vector<std::string> ListSeries() const;

  /// Checkpoints every shard (snapshot + WAL reset each).
  Status Checkpoint();

  /// Compacts + checkpoints every shard; returns the total number of
  /// raw intervals rolled up.
  Result<size_t> Compact(int64_t now);

  // --- Replication + fencing (durable_store.h) ---
  // The fencing token is logically one per server, but each shard's LOCK
  // file is its durable home, so reads aggregate conservatively and
  // writes apply to every shard.

  struct Fencing {
    /// Max token across shards (they only diverge mid-crash).
    uint64_t token = 0;
    /// Any shard sticky-fenced: one fenced shard fences the server.
    bool fenced = false;
  };
  Fencing FenceState() const;
  /// Sticky-fences every shard against `observed_token`. Every shard is
  /// tried; returns the first error.
  Status Fence(uint64_t observed_token);
  /// Adopts a larger token on every shard (follower tracking its
  /// primary). Every shard is tried; returns the first error.
  Status AdoptFenceToken(uint64_t token);
  /// Promotes every shard to primary at max-token + 1; returns the new
  /// (uniform) token.
  Result<uint64_t> Promote();

  /// One shard's state, read under its lock.
  struct ShardUsage {
    size_t num_series = 0;
    size_t size_in_bytes = 0;
    uint64_t wal_offset = 0;
    uint64_t epoch = 0;
    uint64_t fence_token = 0;
    bool fenced = false;
    StoreRole role = StoreRole::kPrimary;
    /// Per-level ladder usage (finest level first; every shard carries
    /// the same ladder, pinned by its snapshot).
    std::vector<LevelUsage> levels;
  };
  /// A usage snapshot of every shard, in shard order (STATS, the
  /// follower's resume positions).
  std::vector<ShardUsage> Usage() const;

  // Totals over Usage() (the CLI and tests).
  size_t TotalSeries() const;
  size_t TotalIntervals() const;

 private:
  struct Shard {
    explicit Shard(DurableSketchStore store_in) : store(std::move(store_in)) {}
    std::mutex mu;  // serializes every access to `store`
    DurableSketchStore store;
  };

  explicit ShardedDurableStore(std::vector<std::unique_ptr<Shard>> shards)
      : shards_(std::move(shards)) {}

  // unique_ptr: a mutex cannot move, and this store moves (Result).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_SHARDED_STORE_H_
