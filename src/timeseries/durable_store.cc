#include "timeseries/durable_store.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "core/ddsketch.h"
#include "timeseries/snapshot.h"
#include "util/file_io.h"

namespace dd {
namespace {

/// The options under which a directory was written must match the options
/// it is reopened with: silently adopting either side would change query
/// semantics (time geometry) or break merges (sketch parameters). The
/// one sanctioned exception: an empty requested ladder means "adopt the
/// directory's ladder" (mirroring shards = 0 auto-detection), so v1
/// directories — whose geometry maps onto a two-level ladder — and
/// default-flag restarts open in place.
Status CheckOptionsMatch(const SketchStoreOptions& snapshot,
                         const SketchStoreOptions& requested) {
  if (!requested.levels.empty() && snapshot.levels != requested.levels) {
    return Status::Incompatible(
        "data directory was written with a different rollup ladder");
  }
  if (snapshot.sketch.relative_accuracy != requested.sketch.relative_accuracy ||
      snapshot.sketch.mapping != requested.sketch.mapping ||
      snapshot.sketch.store != requested.sketch.store ||
      snapshot.sketch.max_num_buckets != requested.sketch.max_num_buckets) {
    return Status::Incompatible(
        "data directory was written with different store options");
  }
  return Status::OK();
}

/// The token every directory starts at; the first promotion moves to 2.
constexpr uint64_t kInitialFenceToken = 1;

std::string EncodeFenceState(uint64_t token, bool fenced) {
  return "fence=" + std::to_string(token) + "\nfenced=" +
         (fenced ? "1" : "0") + "\n";
}

/// An empty lock file (pre-replication directories) parses as the
/// defaults; anything else must be the exact EncodeFenceState layout.
Status ParseFenceState(const std::string& contents, uint64_t* token,
                       bool* fenced) {
  *token = kInitialFenceToken;
  *fenced = false;
  if (contents.empty()) return Status::OK();
  uint64_t t = 0;
  int f = -1;
  if (std::sscanf(contents.c_str(), "fence=%" SCNu64 "\nfenced=%d", &t, &f) !=
          2 ||
      t == 0 || (f != 0 && f != 1)) {
    return Status::Corruption("unparseable fencing state in LOCK file");
  }
  *token = t;
  *fenced = f == 1;
  return Status::OK();
}

/// pread a byte range of `path`; short only at EOF.
Result<std::string> PreadRange(const std::string& path, uint64_t offset,
                               uint64_t len) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  out.resize(len);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, &out[got], len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::Internal("pread " + path + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

}  // namespace

Result<DurableSketchStore> DurableSketchStore::Open(
    const std::string& data_dir, const DurableSketchStoreOptions& options) {
  DD_RETURN_IF_ERROR(CreateDirIfMissing(data_dir));
  auto lock = FileLock::Acquire(LockPath(data_dir));
  if (!lock.ok()) return lock.status();
  const std::string wal_path = WalPath(data_dir);
  const std::string snapshot_path = SnapshotPath(data_dir);

  // Fencing state rides in the lock file; a pre-replication (empty) lock
  // file is stamped with the defaults so the token is always durable.
  uint64_t fence_token = kInitialFenceToken;
  bool fenced = false;
  {
    auto contents = lock.value().Read();
    if (!contents.ok()) return contents.status();
    DD_RETURN_IF_ERROR(ParseFenceState(contents.value(), &fence_token,
                                       &fenced));
    if (contents.value().empty()) {
      DD_RETURN_IF_ERROR(
          lock.value().Write(EncodeFenceState(fence_token, fenced)));
    }
  }
  const auto finish = [&](SketchStore store,
                          WalWriter writer) -> DurableSketchStore {
    DurableSketchStore opened(options, data_dir, std::move(lock).value(),
                              std::move(store), std::move(writer));
    opened.role_ = options.role;
    opened.fence_token_ = fence_token;
    opened.fenced_ = fenced;
    return opened;
  };

  // Base state. A fresh directory gets an empty epoch-0 snapshot first,
  // pinning the store options on disk so every later Open — including
  // one that finds only a WAL — can verify them instead of silently
  // adopting whatever it was called with.
  uint64_t snapshot_epoch = 0;
  auto base = [&]() -> Result<SketchStore> {
    if (!FileExists(snapshot_path)) {
      auto fresh = SketchStore::Create(options.store);
      if (!fresh.ok()) return fresh.status();
      DD_RETURN_IF_ERROR(
          WriteSnapshotFile(fresh.value(), /*epoch=*/0, snapshot_path));
      return fresh;
    }
    auto snapshot = ReadSnapshotFile(snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    DD_RETURN_IF_ERROR(
        CheckOptionsMatch(snapshot.value().store.options(), options.store));
    snapshot_epoch = snapshot.value().epoch;
    return std::move(snapshot).value().store;
  }();
  if (!base.ok()) return base.status();
  SketchStore store = std::move(base).value();

  // Incremental state: replay the WAL onto the base.
  if (FileExists(wal_path)) {
    auto scanned = ReadWalFile(wal_path, WalRead::kTolerateTornTail);
    if (!scanned.ok()) return scanned.status();
    const WalContents& wal = scanned.value();
    if (!wal.header_valid || wal.epoch == snapshot_epoch) {
      // Either a crash during log creation (nothing was ever
      // acknowledged) or one between snapshot rename and WAL reset (the
      // log's records are already folded into the snapshot). Both
      // finish the same way: a fresh log on the next epoch.
      auto writer = WalWriter::Create(wal_path, snapshot_epoch + 1);
      if (!writer.ok()) return writer.status();
      return finish(std::move(store), std::move(writer).value());
    }
    if (wal.epoch != snapshot_epoch + 1) {
      return Status::Corruption(
          "WAL epoch does not match the snapshot (mixed data directories?)");
    }
    DD_RETURN_IF_ERROR(ApplyRecords(wal.records, {}, &store));
    auto writer = WalWriter::OpenExisting(wal_path, wal.epoch, wal.valid_size);
    if (!writer.ok()) return writer.status();
    return finish(std::move(store), std::move(writer).value());
  }

  auto writer = WalWriter::Create(wal_path, snapshot_epoch + 1);
  if (!writer.ok()) return writer.status();
  return finish(std::move(store), std::move(writer).value());
}

Status DurableSketchStore::Ingest(const std::string& series, int64_t timestamp,
                                  std::string_view payload) {
  DD_RETURN_IF_ERROR(CheckWritable());
  WalRecord record;
  record.type = WalRecord::Type::kIngestSketch;
  record.series = series;
  record.timestamp = timestamp;
  record.payload.assign(payload);
  // Validate fully before logging: the WAL must only ever contain records
  // that replay cleanly.
  std::optional<DDSketch> decoded;
  DD_RETURN_IF_ERROR(ValidateRecord(record, &decoded));
  const std::span<const WalRecord> one(&record, 1);
  DD_RETURN_IF_ERROR(CommitToWal(one, {}, options_.sync_every_ingest));
  return ApplyRecords(one, std::span(&*decoded, 1), &store_);
}

Status DurableSketchStore::IngestValue(const std::string& series,
                                       int64_t timestamp, double value) {
  DD_RETURN_IF_ERROR(CheckWritable());
  WalRecord record;
  record.type = WalRecord::Type::kIngestValue;
  record.series = series;
  record.timestamp = timestamp;
  record.value = value;
  const std::span<const WalRecord> one(&record, 1);
  DD_RETURN_IF_ERROR(CommitToWal(one, {}, options_.sync_every_ingest));
  return ApplyRecords(one, {}, &store_);
}

Status DurableSketchStore::ValidateRecord(
    const WalRecord& record, std::optional<DDSketch>* decoded) const {
  switch (record.type) {
    case WalRecord::Type::kIngestSketch: {
      auto sketch = DDSketch::Deserialize(record.payload);
      if (!sketch.ok()) return sketch.status();
      DD_RETURN_IF_ERROR(store_.CheckCompatible(sketch.value()));
      if (decoded != nullptr) decoded->emplace(std::move(sketch).value());
      return Status::OK();
    }
    case WalRecord::Type::kIngestValue:
      return Status::OK();
  }
  return Status::Corruption("unknown WAL record type");
}

Status DurableSketchStore::ValidateRecords(
    std::span<const WalRecord> records, std::vector<DDSketch>* sketches) const {
  // Past the cap sketches are validated and dropped (what is kept stays
  // a prefix); ApplyRecords decodes those one at a time as it merges.
  size_t held_bytes = 0;
  std::optional<DDSketch> sketch;
  for (const WalRecord& record : records) {
    DD_RETURN_IF_ERROR(ValidateRecord(record, &sketch));
    if (!sketch) continue;
    held_bytes += sketch->size_in_bytes();
    if (held_bytes <= kMaxHeldDecodedBytes) {
      sketches->push_back(std::move(*sketch));
    }
    sketch.reset();
  }
  return Status::OK();
}

Status DurableSketchStore::IngestBatch(std::span<const WalRecord> records) {
  DD_RETURN_IF_ERROR(CheckWritable());
  std::vector<DDSketch> sketches;
  DD_RETURN_IF_ERROR(ValidateRecords(records, &sketches));
  DD_RETURN_IF_ERROR(CommitToWal(records, {}, /*sync=*/true));
  return ApplyRecords(records, sketches, &store_);
}

Status DurableSketchStore::IngestBatch(std::span<const WalRecord> records,
                                       std::span<const DDSketch> sketches) {
  DD_RETURN_IF_ERROR(CheckWritable());
  // Check everything before logging anything: the WAL must only ever
  // contain records that replay cleanly, and a half-appended batch would
  // ack nothing while still replaying its durable prefix. The payloads
  // were decoded once, at validation; what is left is a parameter
  // comparison per sketch and the pairing of sketches with records.
  size_t sketch_records = 0;
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecord::Type::kIngestSketch:
        if (sketch_records < sketches.size()) {
          DD_RETURN_IF_ERROR(
              store_.CheckCompatible(sketches[sketch_records]));
        }
        ++sketch_records;
        break;
      case WalRecord::Type::kIngestValue:
        break;
      default:
        return Status::Corruption("unknown WAL record type");
    }
  }
  if (sketch_records != sketches.size()) {
    return Status::InvalidArgument(
        "group commit got " + std::to_string(sketches.size()) +
        " decoded sketches for " + std::to_string(sketch_records) +
        " sketch records");
  }
  DD_RETURN_IF_ERROR(CommitToWal(records, {}, /*sync=*/true));
  return ApplyRecords(records, sketches, &store_);
}

Status DurableSketchStore::CommitToWal(std::span<const WalRecord> records,
                                       std::string_view framed, bool sync) {
  const uint64_t start = wal_.offset();
  Status status = framed.empty() ? wal_.Append(records) : wal_.AppendRaw(framed);
  if (status.ok() && sync) status = wal_.Sync();
  if (status.ok()) return status;
  // A failed or short write leaves a torn frame in the commit's bytes,
  // and after a failed fsync their durability is unknown; a later append
  // behind them would be dropped by recovery or fail it. Truncate back
  // so the log stays clean; if even that fails the log must not be
  // appended to again (SketchServer fail-stops on any error).
  if (Status repair = wal_.TruncateTo(start); !repair.ok()) {
    return Status::Internal("WAL left torn after failed commit (" +
                            status.ToString() +
                            "); truncate failed: " + repair.message());
  }
  return status;
}

Status DurableSketchStore::ApplyRecords(std::span<const WalRecord> records,
                                        std::span<const DDSketch> sketches,
                                        SketchStore* store) {
  // Runs of value records sharing a series and raw interval collapse
  // into one IngestValues call: one interval lookup and one AddBatch
  // pass. AddBatch leaves the same bits however a stream is cut into
  // runs, so live, replayed and replicated state are bit-identical.
  std::vector<double> run_values;
  size_t next_sketch = 0;
  for (size_t i = 0; i < records.size();) {
    const WalRecord& record = records[i];
    if (record.type == WalRecord::Type::kIngestSketch) {
      DD_RETURN_IF_ERROR(
          next_sketch < sketches.size()
              ? store->IngestSketch(record.series, record.timestamp,
                                    sketches[next_sketch++])
              : store->Ingest(record.series, record.timestamp, record.payload));
      ++i;
      continue;
    }
    const int64_t interval = store->RawStart(record.timestamp);
    run_values.clear();
    size_t j = i;
    for (; j < records.size(); ++j) {
      const WalRecord& next = records[j];
      if (next.type != WalRecord::Type::kIngestValue ||
          next.series != record.series ||
          store->RawStart(next.timestamp) != interval) {
        break;
      }
      run_values.push_back(next.value);
    }
    DD_RETURN_IF_ERROR(
        store->IngestValues(record.series, record.timestamp, run_values));
    i = j;
  }
  return Status::OK();
}

Status DurableSketchStore::CheckpointUnguarded() {
  // Rollup happens here and ONLY here — at an epoch boundary, before
  // the state is snapshotted. Compact(INT64_MAX) saturates to the data
  // horizon, so the fold is a pure function of the stored multiset:
  //  * crash safety — the fold mutates memory only; until the snapshot
  //    rename lands, recovery is old snapshot + full raw WAL replay,
  //    and the next checkpoint re-folds to the identical state;
  //  * replication — a follower crossing this epoch boundary runs its
  //    own CheckpointUnguarded with bit-identical raw state (it has
  //    replayed the full epoch), so it folds to bit-identical levels.
  store_.Compact(std::numeric_limits<int64_t>::max());
  const uint64_t epoch = wal_.epoch();
  const uint64_t end_offset = wal_.offset();
  DD_RETURN_IF_ERROR(
      WriteSnapshotFile(store_, epoch, SnapshotPath(data_dir_)));
  DD_RETURN_IF_ERROR(wal_.Reset(epoch + 1));
  prior_epoch_end_ = end_offset;
  return Status::OK();
}

Status DurableSketchStore::Checkpoint() {
  DD_RETURN_IF_ERROR(CheckWritable());
  return CheckpointUnguarded();
}

Result<size_t> DurableSketchStore::Compact(int64_t now) {
  DD_RETURN_IF_ERROR(CheckWritable());
  // The explicit fold honours the caller's clock (clamped to the data
  // horizon inside SketchStore::Compact); the checkpoint that persists
  // it then folds anything still eligible by data time.
  const size_t compacted = store_.Compact(now);
  DD_RETURN_IF_ERROR(CheckpointUnguarded());
  return compacted;
}

Status DurableSketchStore::Sync() { return wal_.Sync(); }

Status DurableSketchStore::CheckWritable() const {
  if (role_ == StoreRole::kFollower) {
    return Status::Fenced(
        "store is a follower (applier mode); writes must go to the primary");
  }
  if (fenced_) {
    return Status::Fenced("writer fenced: a newer primary holds fencing "
                          "token " +
                          std::to_string(fence_token_));
  }
  return Status::OK();
}

Status DurableSketchStore::PersistFenceState() {
  return lock_.Write(EncodeFenceState(fence_token_, fenced_));
}

Status DurableSketchStore::Fence(uint64_t observed_token) {
  if (fenced_ && observed_token <= fence_token_) return Status::OK();
  fence_token_ = std::max(fence_token_, observed_token);
  fenced_ = true;
  return PersistFenceState();
}

Status DurableSketchStore::AdoptFenceToken(uint64_t token) {
  if (token <= fence_token_) return Status::OK();
  fence_token_ = token;
  return PersistFenceState();
}

Result<uint64_t> DurableSketchStore::Promote() {
  fence_token_ += 1;
  fenced_ = false;
  role_ = StoreRole::kPrimary;
  DD_RETURN_IF_ERROR(PersistFenceState());
  // Start the new lineage in a fresh WAL epoch before the first write
  // lands: a deposed primary's resume position (same epoch, offset at
  // or below ours) would otherwise pass the shipper's tail check even
  // though its log may end in a divergent, never-replicated suffix.
  // With the epoch bumped, every old-lineage position mismatches and
  // takes the snapshot path, which discards that suffix.
  DD_RETURN_IF_ERROR(CheckpointUnguarded());
  prior_epoch_end_ = 0;  // lineage break: never roll across a promotion
  return fence_token_;
}

std::string DurableSketchStore::EncodeReplicationSnapshot() const {
  return EncodeSnapshot(store_, wal_.epoch() - 1);
}

Result<std::string> DurableSketchStore::ReadWalChunk(
    uint64_t from_offset, uint64_t max_bytes) const {
  const uint64_t end = wal_.offset();
  if (from_offset < kWalHeaderBytes || from_offset > end) {
    return Status::InvalidArgument(
        "WAL chunk start is not a valid record boundary");
  }
  if (from_offset == end) return std::string();
  // A frame header (len varint + crc) is at most 14 bytes; always read
  // enough to at least parse the first frame's length.
  const uint64_t want =
      std::min<uint64_t>(std::max<uint64_t>(max_bytes, 64),
                         end - from_offset);
  auto chunk = PreadRange(WalPath(data_dir_), from_offset, want);
  if (!chunk.ok()) return chunk.status();
  if (chunk.value().size() < want) {
    return Status::Internal("WAL shrank during replication read");
  }
  // Trim to the last complete record frame. Every byte below
  // wal_offset() belongs to a complete record, so a frame split by the
  // byte cap is simply re-read whole.
  uint64_t first_frame = 0;
  size_t valid = CompleteFramePrefix(chunk.value(), &first_frame);
  if (valid == 0) {
    if (first_frame == 0 || from_offset + first_frame > end) {
      return Status::Internal("WAL byte range does not parse as records");
    }
    chunk = PreadRange(WalPath(data_dir_), from_offset, first_frame);
    if (!chunk.ok()) return chunk.status();
    valid = CompleteFramePrefix(chunk.value(), &first_frame);
    if (valid != chunk.value().size()) {
      return Status::Internal("WAL shrank during replication read");
    }
  }
  std::string bytes = std::move(chunk).value();
  bytes.resize(valid);
  return bytes;
}

Status DurableSketchStore::InstallReplicatedSnapshot(
    std::string_view snapshot_bytes, uint64_t wal_epoch) {
  if (role_ != StoreRole::kFollower) {
    return Status::Internal("InstallReplicatedSnapshot on a primary store");
  }
  auto decoded = DecodeSnapshot(snapshot_bytes);
  if (!decoded.ok()) return decoded.status();
  DD_RETURN_IF_ERROR(
      CheckOptionsMatch(decoded.value().store.options(), options_.store));
  if (decoded.value().epoch + 1 != wal_epoch) {
    return Status::Corruption(
        "replicated snapshot epoch does not precede its WAL epoch");
  }
  // Remove the WAL before replacing the snapshot: a crash between the
  // two steps reopens as "snapshot only" (old or new state, both
  // valid), never as a snapshot/WAL epoch mismatch.
  DD_RETURN_IF_ERROR(RemoveFileIfExists(WalPath(data_dir_)));
  DD_RETURN_IF_ERROR(
      WriteFileAtomic(SnapshotPath(data_dir_), snapshot_bytes));
  auto writer = WalWriter::Create(WalPath(data_dir_), wal_epoch);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer).value();
  store_ = std::move(decoded).value().store;
  prior_epoch_end_ = 0;  // the new WAL has no local prior-epoch history
  return Status::OK();
}

Status DurableSketchStore::ApplyReplicatedSegment(uint64_t epoch,
                                                  uint64_t start_offset,
                                                  std::string_view bytes) {
  if (role_ != StoreRole::kFollower) {
    return Status::Internal("ApplyReplicatedSegment on a primary store");
  }
  if (epoch == wal_.epoch() + 1 && start_offset == kWalHeaderBytes) {
    // The primary checkpointed past our position's epoch: fold our own
    // state the same way so the directories stay epoch-aligned, then
    // tail the new log.
    DD_RETURN_IF_ERROR(CheckpointUnguarded());
  } else if (epoch != wal_.epoch() || start_offset != wal_.offset()) {
    return Status::OutOfRange(
        "replication segment does not match the local WAL position "
        "(snapshot resync needed)");
  }
  auto records = DecodeWalSegment(bytes);
  if (!records.ok()) return records.status();
  std::vector<DDSketch> sketches;
  DD_RETURN_IF_ERROR(ValidateRecords(records.value(), &sketches));
  DD_RETURN_IF_ERROR(CommitToWal(records.value(), bytes, /*sync=*/true));
  return ApplyRecords(records.value(), sketches, &store_);
}

}  // namespace dd
