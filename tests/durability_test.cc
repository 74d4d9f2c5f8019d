// Crash-recovery tests for the durable sketch store. The central harness
// simulates a crash at every byte of the write-ahead log: it truncates a
// copy of the log at each offset, reopens the store, and asserts that
// exactly the fully-written prefix of ingests is recovered and that
// queries are byte-identical to a reference store fed the same prefix.
// The checkpoint protocol (snapshot + WAL epoch handshake) is exercised
// at its crash windows too — including the interrupted checkpoint, where
// a stale log must not be double-applied.

#include "timeseries/durable_store.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ddsketch.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/file_io.h"

// Live and peak bytes held through operator new in this binary, so a
// test can bound what one call holds at once.
namespace {
std::atomic<int64_t> g_heap_live{0};
std::atomic<int64_t> g_heap_peak{0};
}  // namespace

void* operator new(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_heap_live.fetch_add(bytes) + bytes;
  int64_t peak = g_heap_peak.load();
  while (live > peak && !g_heap_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}
void operator delete(void* p, size_t) noexcept { operator delete(p); }

namespace dd {
namespace {

namespace fs = std::filesystem;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_durability_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static DurableSketchStoreOptions Options() {
    DurableSketchStoreOptions options;
    options.store.levels = {{10, 600}, {60, 0}};
    return options;
  }

  static DurableSketchStore MustOpen(const std::string& dir) {
    auto opened = DurableSketchStore::Open(dir, Options());
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  static std::string ReadFile(const std::string& path) {
    auto r = ReadFileToString(path);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  static void WriteFile(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  /// A deterministic worker sketch with a few values derived from `seed`.
  static std::string WorkerPayload(int seed) {
    auto sketch = std::move(DDSketch::Create(DDSketchConfig{})).value();
    for (int i = 1; i <= 5; ++i) {
      sketch.Add(static_cast<double>((seed * 13 + i * 7) % 997) + 0.5);
    }
    return sketch.Serialize();
  }

  /// Byte-exact fingerprint of a store's full queryable state: every
  /// series' merged sketch over a window covering all test data.
  static std::string Fingerprint(const SketchStore& store) {
    std::string fp;
    for (const std::string& name : store.ListSeries()) {
      auto merged = store.QueryRange(name, -1000000, 1000000);
      EXPECT_TRUE(merged.ok()) << merged.status().ToString();
      fp += name + ":" + merged.value().Serialize() + ";";
    }
    return fp;
  }

  fs::path root_;
};

/// One scripted ingest, applied identically to durable and reference
/// stores.
struct Op {
  bool is_sketch;
  std::string series;
  int64_t timestamp;
  double value;   // !is_sketch
  int seed;       // is_sketch
};

std::vector<Op> ScriptedOps(int n) {
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    Op op;
    op.series = (i % 3 == 0) ? "api.latency" : "db.latency";
    op.timestamp = (i * 7) % 200 - 40;  // spans intervals, incl. negatives
    op.is_sketch = (i % 4 == 1);
    op.value = static_cast<double>((i * 31) % 500) + 0.25;
    op.seed = i;
    ops.push_back(op);
  }
  return ops;
}

TEST_F(DurabilityTest, FreshDirectoryOpensEmpty) {
  DurableSketchStore store = MustOpen(Dir("fresh"));
  EXPECT_EQ(store.store().num_series(), 0u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_TRUE(FileExists(DurableSketchStore::WalPath(Dir("fresh"))));
  // A fresh directory immediately gets an empty epoch-0 snapshot that
  // pins the store options on disk.
  auto snapshot =
      ReadSnapshotFile(DurableSketchStore::SnapshotPath(Dir("fresh")));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().epoch, 0u);
  EXPECT_EQ(snapshot.value().store.num_series(), 0u);
}

TEST_F(DurabilityTest, SecondOpenIsLockedOut) {
  const std::string dir = Dir("locked");
  DurableSketchStore store = MustOpen(dir);
  auto second = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DurabilityTest, LockIsReleasedOnClose) {
  const std::string dir = Dir("relock");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 10)).value().count(), 1u);
}

TEST_F(DurabilityTest, ReopenRecoversEveryAckedIngest) {
  const std::string dir = Dir("reopen");
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  {
    DurableSketchStore store = MustOpen(dir);
    for (const Op& op : ScriptedOps(50)) {
      if (op.is_sketch) {
        const std::string payload = WorkerPayload(op.seed);
        ASSERT_TRUE(store.Ingest(op.series, op.timestamp, payload).ok());
        ASSERT_TRUE(ref.Ingest(op.series, op.timestamp, payload).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
        ASSERT_TRUE(ref.IngestValue(op.series, op.timestamp, op.value).ok());
      }
    }
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(Fingerprint(reopened.store()), Fingerprint(ref));
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(
        std::move(reopened.QueryQuantile("api.latency", -100, 300, q)).value(),
        std::move(ref.QueryQuantile("api.latency", -100, 300, q)).value());
  }
}

TEST_F(DurabilityTest, CrashRecoveryAtEveryWalTruncationPoint) {
  const std::string dir = Dir("crash");
  const std::vector<Op> ops = ScriptedOps(40);

  // Build the log, remembering the offset after every acked ingest and
  // the reference fingerprint of every prefix.
  std::vector<uint64_t> boundaries;   // boundaries[n] = offset after n ops
  std::vector<std::string> prefix_fp; // prefix_fp[n] = fingerprint of n ops
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  {
    DurableSketchStore store = MustOpen(dir);
    boundaries.push_back(store.wal_offset());
    prefix_fp.push_back(Fingerprint(ref));
    for (const Op& op : ops) {
      if (op.is_sketch) {
        const std::string payload = WorkerPayload(op.seed);
        ASSERT_TRUE(store.Ingest(op.series, op.timestamp, payload).ok());
        ASSERT_TRUE(ref.Ingest(op.series, op.timestamp, payload).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
        ASSERT_TRUE(ref.IngestValue(op.series, op.timestamp, op.value).ok());
      }
      boundaries.push_back(store.wal_offset());
      prefix_fp.push_back(Fingerprint(ref));
    }
  }
  const std::string wal_bytes = ReadFile(DurableSketchStore::WalPath(dir));
  ASSERT_EQ(wal_bytes.size(), boundaries.back());

  const std::string crash_dir = Dir("crash_replay");
  for (uint64_t cut = 0; cut <= wal_bytes.size(); ++cut) {
    // Simulate a crash that left only the first `cut` bytes durable.
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    WriteFile(DurableSketchStore::WalPath(crash_dir),
              std::string_view(wal_bytes).substr(0, cut));

    auto reopened = DurableSketchStore::Open(crash_dir, Options());
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();

    // Every fully-written record — and nothing more — must be recovered.
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(Fingerprint(reopened.value().store()), prefix_fp[expected])
        << "cut=" << cut;

    // The recovered store must accept new ingests (torn tail truncated).
    ASSERT_TRUE(
        reopened.value().IngestValue("post.crash", 0, 1.0).ok())
        << "cut=" << cut;
  }
}

TEST_F(DurabilityTest, RecoveredStoreContinuesAndSurvivesSecondCrash) {
  const std::string dir = Dir("continue");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 5, 1.0).ok());
  }
  // Crash mid-record: append garbage that looks like a torn frame.
  {
    std::ofstream out(DurableSketchStore::WalPath(dir),
                      std::ios::binary | std::ios::app);
    out.put('\x50');  // a lone length byte, frame never completed
  }
  {
    DurableSketchStore store = MustOpen(dir);
    EXPECT_EQ(std::move(store.QueryRange("s", 0, 10)).value().count(), 1u);
    ASSERT_TRUE(store.IngestValue("s", 5, 2.0).ok());
  }
  DurableSketchStore store = MustOpen(dir);
  EXPECT_EQ(std::move(store.QueryRange("s", 0, 10)).value().count(), 2u);
}

TEST_F(DurabilityTest, CheckpointFoldsWalIntoSnapshot) {
  const std::string dir = Dir("checkpoint");
  std::string before_fp;
  {
    DurableSketchStore store = MustOpen(dir);
    for (const Op& op : ScriptedOps(30)) {
      if (op.is_sketch) {
        ASSERT_TRUE(
            store.Ingest(op.series, op.timestamp, WorkerPayload(op.seed)).ok());
      } else {
        ASSERT_TRUE(store.IngestValue(op.series, op.timestamp, op.value).ok());
      }
    }
    before_fp = Fingerprint(store.store());
    ASSERT_TRUE(store.Checkpoint().ok());
    EXPECT_EQ(store.epoch(), 2u);
    // The log is now empty; the snapshot carries the state.
    ASSERT_TRUE(store.IngestValue("late", 0, 9.0).ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(reopened.epoch(), 2u);
  ASSERT_TRUE(std::move(reopened.QueryRange("late", 0, 10)).ok());
  // Remove the post-checkpoint series and compare to the pre-checkpoint
  // fingerprint via a fresh reference decode of the snapshot.
  auto snapshot =
      ReadSnapshotFile(DurableSketchStore::SnapshotPath(dir));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(Fingerprint(snapshot.value().store), before_fp);
  EXPECT_EQ(snapshot.value().epoch, 1u);
}

TEST_F(DurabilityTest, CompactionPreservesQueriesAcrossReopen) {
  const std::string dir = Dir("compact");
  std::vector<double> before;
  {
    DurableSketchStore store = MustOpen(dir);
    for (int64_t ts = 0; ts < 3600; ts += 5) {
      ASSERT_TRUE(
          store.IngestValue("svc", ts, static_cast<double>(ts % 97) + 1.0)
              .ok());
    }
    for (double q = 0.05; q < 1.0; q += 0.05) {
      before.push_back(
          std::move(store.QueryQuantile("svc", 0, 3600, q)).value());
    }
    auto compacted = store.Compact(3600);
    ASSERT_TRUE(compacted.ok());
    EXPECT_GT(compacted.value(), 0u);
  }
  DurableSketchStore reopened = MustOpen(dir);
  size_t i = 0;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_DOUBLE_EQ(
        std::move(reopened.QueryQuantile("svc", 0, 3600, q)).value(),
        before[i++])
        << q;
  }
}

TEST_F(DurabilityTest, InterruptedCheckpointIsNotDoubleApplied) {
  const std::string dir = Dir("interrupted");
  std::string fp;
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i * 10, 1.0 + i).ok());
    }
    fp = Fingerprint(store.store());
    // Simulate the crash window inside Checkpoint(): the snapshot
    // (carrying the current WAL epoch) reached disk, but the WAL reset
    // did not.
    ASSERT_TRUE(WriteSnapshotFile(store.store(), store.epoch(),
                                  DurableSketchStore::SnapshotPath(dir))
                    .ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  // The WAL records are already inside the snapshot; replaying them too
  // would double every count.
  EXPECT_EQ(Fingerprint(reopened.store()), fp);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 200)).value().count(), 20u);
  // The interrupted checkpoint was finished: the log is on the next epoch.
  EXPECT_EQ(reopened.epoch(), 2u);
}

TEST_F(DurabilityTest, InterruptedRollupCheckpointRecoversEitherSide) {
  // A rollup checkpoint has the same two crash sides as any checkpoint,
  // but with higher stakes: the fold rewrites tiers, and rollup state
  // is ONLY persisted via snapshots. Crash before the snapshot rename →
  // recovery replays raw records (fold simply re-runs at the next
  // checkpoint). Crash after the rename but before the WAL reset → the
  // snapshot already contains the folded records, and replaying the log
  // on top would double every count.
  const std::string dir = Dir("rollupcrash");
  std::vector<double> before;
  uint64_t epoch = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    // Spans ~2000s, far past the 600s raw retention.
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          store.IngestValue("svc", i * 5, 1.0 + (i % 61) * 0.5).ok());
    }
    for (double q = 0.05; q < 1.0; q += 0.05) {
      before.push_back(
          std::move(store.QueryQuantile("svc", 0, 2100, q)).value());
    }
    epoch = store.epoch();
    // Simulate the bad side of the window: fold a clone of the live
    // state in memory (exactly what Compact's checkpoint does), write
    // the rolled-up snapshot, and "crash" before the WAL reset.
    auto clone = DecodeSnapshot(EncodeSnapshot(store.store(), epoch));
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    EXPECT_GT(clone.value().store.Compact(std::numeric_limits<int64_t>::max()),
              0u);
    ASSERT_TRUE(WriteSnapshotFile(clone.value().store, epoch,
                                  DurableSketchStore::SnapshotPath(dir))
                    .ok());
  }
  DurableSketchStore reopened = MustOpen(dir);
  // The folded snapshot won; the raw WAL records it already contains
  // were not replayed on top of it.
  EXPECT_EQ(reopened.epoch(), epoch + 1);
  EXPECT_EQ(std::move(reopened.QueryRange("svc", 0, 2100)).value().count(),
            400u);
  EXPECT_GT(reopened.store().LevelStats()[1].num_intervals, 0u);
  size_t i = 0;
  for (double q = 0.05; q < 1.0; q += 0.05) {
    EXPECT_EQ(std::move(reopened.QueryQuantile("svc", 0, 2100, q)).value(),
              before[i++])
        << q;
  }
}

TEST_F(DurabilityTest, TornWalHeaderIsRecreated) {
  const std::string dir = Dir("tornheader");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  // Crash during the WAL reset, after truncation but mid-header-write.
  const std::string wal_path = DurableSketchStore::WalPath(dir);
  WriteFile(wal_path, ReadFile(wal_path).substr(0, 4));
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(std::move(reopened.QueryRange("s", 0, 100)).value().count(), 10u);
  ASSERT_TRUE(reopened.IngestValue("s", 50, 2.0).ok());
}

TEST_F(DurabilityTest, BitRotInWalBodyFailsWithCorruption) {
  const std::string dir = Dir("bitrot");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0 + i).ok());
    }
  }
  const std::string wal_path = DurableSketchStore::WalPath(dir);
  std::string bytes = ReadFile(wal_path);
  bytes[bytes.size() / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[bytes.size() / 2]) ^ 0x40);
  WriteFile(wal_path, bytes);
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilityTest, BitRotInSnapshotFailsWithCorruption) {
  const std::string dir = Dir("snaprot");
  {
    DurableSketchStore store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.IngestValue("s", i, 1.0 + i).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  const std::string snapshot_path = DurableSketchStore::SnapshotPath(dir);
  std::string bytes = ReadFile(snapshot_path);
  bytes[bytes.size() / 2] = static_cast<char>(
      static_cast<uint8_t>(bytes[bytes.size() / 2]) ^ 0x10);
  WriteFile(snapshot_path, bytes);
  auto reopened = DurableSketchStore::Open(dir, Options());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(DurabilityTest, MismatchedOptionsAreIncompatible) {
  const std::string dir = Dir("mismatch");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
    ASSERT_TRUE(store.Checkpoint().ok());
  }
  DurableSketchStoreOptions other = Options();
  other.store.sketch.relative_accuracy = 0.05;
  auto reopened = DurableSketchStore::Open(dir, other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIncompatible);
}

TEST_F(DurabilityTest, MismatchedOptionsCaughtWithoutCheckpoint) {
  // The initial epoch-0 snapshot pins options even when the directory
  // holds only WAL records (no explicit checkpoint ever ran).
  const std::string dir = Dir("mismatch_wal_only");
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestValue("s", 0, 1.0).ok());
  }
  DurableSketchStoreOptions other = Options();
  other.store.levels = {{60, 3600}, {360, 0}};
  auto reopened = DurableSketchStore::Open(dir, other);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIncompatible);
}

TEST_F(DurabilityTest, InvalidPayloadsAreRejectedBeforeLogging) {
  const std::string dir = Dir("reject");
  DurableSketchStore store = MustOpen(dir);
  const uint64_t offset = store.wal_offset();
  EXPECT_EQ(store.Ingest("s", 0, "garbage").code(), StatusCode::kCorruption);
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  EXPECT_EQ(store.Ingest("s", 0, wrong.Serialize()).code(),
            StatusCode::kIncompatible);
  // Nothing reached the log: rejected ingests must not poison replay.
  EXPECT_EQ(store.wal_offset(), offset);
}

TEST_F(DurabilityTest, GroupCommitBatchIsOneFsync) {
  const std::string dir = Dir("groupfsync");
  DurableSketchStore store = MustOpen(dir);
  std::vector<WalRecord> records;
  for (int i = 0; i < 64; ++i) {
    WalRecord record;
    record.type = (i % 4 == 1) ? WalRecord::Type::kIngestSketch
                               : WalRecord::Type::kIngestValue;
    record.series = (i % 3 == 0) ? "api.latency" : "db.latency";
    record.timestamp = i * 7;
    if (record.type == WalRecord::Type::kIngestSketch) {
      record.payload = WorkerPayload(i);
    } else {
      record.value = 1.0 + i;
    }
    records.push_back(std::move(record));
  }
  const uint64_t fsyncs_before = TotalFsyncCount();
  ASSERT_TRUE(store.IngestBatch(records).ok());
  // 64 acknowledged ingests, exactly one flush.
  EXPECT_EQ(TotalFsyncCount() - fsyncs_before, 1u);
  // The batch is both queryable and fully applied in-memory.
  EXPECT_EQ(store.store().num_series(), 2u);
  uint64_t total = 0;
  for (const std::string& name : store.store().ListSeries()) {
    total += std::move(store.QueryRange(name, -1000, 1000)).value().count();
  }
  // 48 raw values + 16 worker sketches of 5 values each.
  EXPECT_EQ(total, 48u + 16u * 5u);
}

TEST_F(DurabilityTest, GroupCommitBatchRejectsBadRecordBeforeLogging) {
  const std::string dir = Dir("groupreject");
  DurableSketchStore store = MustOpen(dir);
  std::vector<WalRecord> records;
  WalRecord good;
  good.type = WalRecord::Type::kIngestValue;
  good.series = "s";
  good.timestamp = 0;
  good.value = 1.0;
  records.push_back(good);
  WalRecord bad;
  bad.type = WalRecord::Type::kIngestSketch;
  bad.series = "s";
  bad.timestamp = 0;
  bad.payload = "garbage";
  records.push_back(bad);
  const uint64_t offset = store.wal_offset();
  EXPECT_EQ(store.IngestBatch(records).code(), StatusCode::kCorruption);
  // Nothing — including the valid first record — reached the log or the
  // in-memory store.
  EXPECT_EQ(store.wal_offset(), offset);
  EXPECT_EQ(store.store().num_series(), 0u);
}

TEST_F(DurabilityTest, GroupCommitCrashMidBatchRecoversExactPrefix) {
  // A batch is appended record-by-record before its single fsync; a
  // crash can land at any byte of the batch region. Recovery must yield
  // exactly the fully-written prefix of the batch — the same guarantee
  // CrashRecoveryAtEveryWalTruncationPoint proves for solo appends.
  const std::string dir = Dir("groupcrash");
  const std::vector<Op> ops = ScriptedOps(24);

  std::vector<WalRecord> records;
  for (const Op& op : ops) {
    WalRecord record;
    record.series = op.series;
    record.timestamp = op.timestamp;
    if (op.is_sketch) {
      record.type = WalRecord::Type::kIngestSketch;
      record.payload = WorkerPayload(op.seed);
    } else {
      record.type = WalRecord::Type::kIngestValue;
      record.value = op.value;
    }
    records.push_back(std::move(record));
  }

  // Reference fingerprints and WAL offsets for every batch prefix.
  std::vector<uint64_t> boundaries;
  std::vector<std::string> prefix_fp;
  uint64_t batch_start = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    batch_start = store.wal_offset();
    auto ref = std::move(SketchStore::Create(Options().store)).value();
    boundaries.push_back(batch_start);
    prefix_fp.push_back(Fingerprint(ref));
    uint64_t offset = batch_start;
    for (const WalRecord& record : records) {
      offset += EncodeWalRecord(record).size();
      boundaries.push_back(offset);
      if (record.type == WalRecord::Type::kIngestSketch) {
        ASSERT_TRUE(ref.Ingest(record.series, record.timestamp,
                               record.payload).ok());
      } else {
        ASSERT_TRUE(ref.IngestValue(record.series, record.timestamp,
                                    record.value).ok());
      }
      prefix_fp.push_back(Fingerprint(ref));
    }
    ASSERT_TRUE(store.IngestBatch(records).ok());
    ASSERT_EQ(store.wal_offset(), boundaries.back());
  }

  const std::string wal_bytes = ReadFile(DurableSketchStore::WalPath(dir));
  const std::string crash_dir = Dir("groupcrash_replay");
  for (uint64_t cut = batch_start; cut <= wal_bytes.size(); ++cut) {
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    WriteFile(DurableSketchStore::WalPath(crash_dir),
              std::string_view(wal_bytes).substr(0, cut));
    auto reopened = DurableSketchStore::Open(crash_dir, Options());
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    EXPECT_EQ(Fingerprint(reopened.value().store()), prefix_fp[expected])
        << "cut=" << cut;
  }
}

/// Group-commit I/O behaviour and its error paths, driven through the
/// util/file_io fault hook. Every test disarms the hook on exit.
class GroupCommitIoTest : public DurabilityTest {
 protected:
  void TearDown() override {
    ClearIoFaults();
    DurabilityTest::TearDown();
  }

  /// The mixed value/sketch records for `ops`, as a group commit logs
  /// them.
  static std::vector<WalRecord> BatchRecords(const std::vector<Op>& ops) {
    std::vector<WalRecord> records;
    for (const Op& op : ops) {
      WalRecord record;
      record.series = op.series;
      record.timestamp = op.timestamp;
      if (op.is_sketch) {
        record.type = WalRecord::Type::kIngestSketch;
        record.payload = WorkerPayload(op.seed);
      } else {
        record.type = WalRecord::Type::kIngestValue;
        record.value = op.value;
      }
      records.push_back(std::move(record));
    }
    return records;
  }

  /// Applies `records` one by one to `ref`, as recovery replays them.
  static void ApplyToReference(const std::vector<WalRecord>& records,
                               SketchStore* ref) {
    for (const WalRecord& record : records) {
      if (record.type == WalRecord::Type::kIngestSketch) {
        ASSERT_TRUE(
            ref->Ingest(record.series, record.timestamp, record.payload).ok());
      } else {
        ASSERT_TRUE(
            ref->IngestValue(record.series, record.timestamp, record.value)
                .ok());
      }
    }
  }

  /// Three disjoint mixed batches of 16 records.
  static std::vector<std::vector<WalRecord>> ThreeBatches() {
    const std::vector<Op> ops = ScriptedOps(48);
    std::vector<std::vector<WalRecord>> batches;
    for (size_t b = 0; b < 3; ++b) {
      batches.push_back(BatchRecords(
          std::vector<Op>(ops.begin() + 16 * b, ops.begin() + 16 * (b + 1))));
    }
    return batches;
  }

  static uint64_t EncodedSize(const std::vector<WalRecord>& records) {
    std::string bytes;
    for (const WalRecord& record : records) AppendWalRecord(record, &bytes);
    return bytes.size();
  }

  /// One way of writing records to a durable store. Every write path
  /// shares the store's one commit step, so each must repair an
  /// injected fault the same way.
  struct WritePath {
    const char* name;
    DurableSketchStoreOptions options;
    /// Three disjoint batches; a commit writes one batch.
    std::vector<std::vector<WalRecord>> batches;
    std::function<Status(DurableSketchStore&, std::span<const WalRecord>)>
        commit;
  };

  /// Three one-record batches of `type`, for the single-record writes.
  static std::vector<std::vector<WalRecord>> OneRecordBatches(
      WalRecord::Type type) {
    const std::vector<WalRecord> candidates = ThreeBatches()[0];
    std::vector<std::vector<WalRecord>> batches;
    for (const WalRecord& record : candidates) {
      if (record.type == type && batches.size() < 3) {
        batches.push_back({record});
      }
    }
    return batches;
  }

  /// The group commit, both single-record writes (fsyncing, so an fsync
  /// fault has a flush to hit), and a follower applying each batch as a
  /// replicated segment at its own wal_offset() — which is where a
  /// primary resends from after a failed apply.
  static std::vector<WritePath> WritePaths() {
    DurableSketchStoreOptions synced = Options();
    synced.sync_every_ingest = true;
    DurableSketchStoreOptions follower = Options();
    follower.role = StoreRole::kFollower;
    return {
        {"IngestBatch", Options(), ThreeBatches(),
         [](DurableSketchStore& store, std::span<const WalRecord> records) {
           return store.IngestBatch(records);
         }},
        {"IngestValue", synced,
         OneRecordBatches(WalRecord::Type::kIngestValue),
         [](DurableSketchStore& store, std::span<const WalRecord> records) {
           const WalRecord& record = records.front();
           return store.IngestValue(record.series, record.timestamp,
                                    record.value);
         }},
        {"Ingest", synced, OneRecordBatches(WalRecord::Type::kIngestSketch),
         [](DurableSketchStore& store, std::span<const WalRecord> records) {
           const WalRecord& record = records.front();
           return store.Ingest(record.series, record.timestamp,
                               record.payload);
         }},
        {"ApplyReplicatedSegment", follower, ThreeBatches(),
         [](DurableSketchStore& store, std::span<const WalRecord> records) {
           std::string bytes;
           for (const WalRecord& record : records) {
             AppendWalRecord(record, &bytes);
           }
           return store.ApplyReplicatedSegment(store.epoch(),
                                               store.wal_offset(), bytes);
         }},
    };
  }

  using DurabilityTest::MustOpen;
  static DurableSketchStore MustOpen(const std::string& dir,
                                     const WritePath& path) {
    auto opened = DurableSketchStore::Open(dir, path.options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  /// Through `path`: commits batch 0, fails batch 1 with `fault` armed,
  /// checks that the log is back at the batch start, commits batch 2,
  /// and checks that a reopen replays exactly batches 0 and 2.
  void ExpectFailedBatchIsRepaired(const std::string& dir, IoFault fault,
                                   const WritePath& path) {
    SCOPED_TRACE(path.name);
    const auto& batches = path.batches;
    auto ref = std::move(SketchStore::Create(Options().store)).value();
    {
      DurableSketchStore store = MustOpen(dir, path);
      ASSERT_TRUE(path.commit(store, batches[0]).ok());
      ApplyToReference(batches[0], &ref);
      const uint64_t batch_start = store.wal_offset();
      const std::string before = Fingerprint(store.store());

      InjectIoFault(fault);
      const Status failed = path.commit(store, batches[1]);
      EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
      EXPECT_EQ(failed.message().find("WAL left torn"), std::string::npos)
          << failed.ToString();
      // Truncated back to the batch start, in memory and on disk, and
      // nothing from the batch was merged.
      EXPECT_EQ(store.wal_offset(), batch_start);
      EXPECT_EQ(fs::file_size(DurableSketchStore::WalPath(dir)), batch_start);
      EXPECT_EQ(Fingerprint(store.store()), before);

      // The repaired log takes the next batch cleanly.
      ASSERT_TRUE(path.commit(store, batches[2]).ok());
      ApplyToReference(batches[2], &ref);
    }
    DurableSketchStore reopened = MustOpen(dir, path);
    EXPECT_EQ(Fingerprint(reopened.store()), Fingerprint(ref));
  }
};

TEST_F(GroupCommitIoTest, BatchIsOneWriteAndOneFsync) {
  DurableSketchStore store = MustOpen(Dir("onewrite"));
  const std::vector<WalRecord> records = BatchRecords(ScriptedOps(64));
  const uint64_t writes_before = TotalWriteCount();
  const uint64_t fsyncs_before = TotalFsyncCount();
  ASSERT_TRUE(store.IngestBatch(records).ok());
  EXPECT_EQ(TotalWriteCount() - writes_before, 1u);
  EXPECT_EQ(TotalFsyncCount() - fsyncs_before, 1u);
}

TEST_F(GroupCommitIoTest, LogBytesAreTheConcatenatedRecordEncodings) {
  // The coalesced write must not change the log format: recovery,
  // replication's DecodeWalSegment and the golden fixtures all read
  // exactly what per-record EncodeWalRecord produced.
  const std::string dir = Dir("format");
  const std::vector<WalRecord> records = BatchRecords(ScriptedOps(40));
  uint64_t batch_start = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    batch_start = store.wal_offset();
    ASSERT_TRUE(store.IngestBatch(records).ok());
  }
  std::string expected;
  for (const WalRecord& record : records) expected += EncodeWalRecord(record);
  EXPECT_EQ(ReadFile(DurableSketchStore::WalPath(dir)).substr(batch_start),
            expected);
}

TEST_F(GroupCommitIoTest, PreDecodedBatchMatchesReplay) {
  const std::string dir = Dir("predecoded");
  const std::vector<WalRecord> records = BatchRecords(ScriptedOps(24));
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  ApplyToReference(records, &ref);
  {
    DurableSketchStore store = MustOpen(dir);
    std::vector<DDSketch> sketches;
    for (const WalRecord& record : records) {
      std::optional<DDSketch> sketch;
      ASSERT_TRUE(store.ValidateRecord(record, &sketch).ok());
      EXPECT_EQ(sketch.has_value(),
                record.type == WalRecord::Type::kIngestSketch);
      if (sketch) sketches.push_back(std::move(*sketch));
    }
    ASSERT_TRUE(store.IngestBatch(records, sketches).ok());
  }
  EXPECT_EQ(Fingerprint(MustOpen(dir).store()), Fingerprint(ref));
}

TEST_F(GroupCommitIoTest, PreDecodedBatchRejectsMismatchWithNothingLogged) {
  DurableSketchStore store = MustOpen(Dir("mismatch"));
  // Eight records, two of them sketches.
  const std::vector<WalRecord> records = BatchRecords(ScriptedOps(8));
  std::vector<DDSketch> sketches;
  for (const WalRecord& record : records) {
    if (record.type == WalRecord::Type::kIngestSketch) {
      sketches.push_back(
          std::move(DDSketch::Deserialize(record.payload)).value());
    }
  }
  ASSERT_EQ(sketches.size(), 2u);
  const uint64_t offset = store.wal_offset();

  // One sketch short, and one too many.
  EXPECT_EQ(store.IngestBatch(records, std::span(sketches).first(1)).code(),
            StatusCode::kInvalidArgument);
  std::vector<DDSketch> extra = sketches;
  extra.push_back(sketches.front());
  EXPECT_EQ(store.IngestBatch(records, extra).code(),
            StatusCode::kInvalidArgument);

  // A sketch with other parameters than the store's.
  auto wrong = std::move(DDSketch::Create(0.05)).value();
  wrong.Add(1.0);
  std::vector<DDSketch> incompatible = sketches;
  incompatible.back() = wrong;
  EXPECT_EQ(store.IngestBatch(records, incompatible).code(),
            StatusCode::kIncompatible);

  EXPECT_EQ(store.wal_offset(), offset);
  EXPECT_EQ(store.store().num_series(), 0u);
}

TEST_F(GroupCommitIoTest, MidBufferWriteFailureTruncatesToBatchStart) {
  for (const WritePath& path : WritePaths()) {
    IoFault fault;
    fault.point = IoPoint::kWrite;
    fault.error = ENOSPC;
    fault.short_write_bytes = EncodedSize(path.batches[1]) / 2;
    ExpectFailedBatchIsRepaired(Dir(std::string("shortwrite_") + path.name),
                                fault, path);
  }
}

TEST_F(GroupCommitIoTest, FsyncFailureTruncatesToBatchStart) {
  for (const WritePath& path : WritePaths()) {
    IoFault fault;
    fault.point = IoPoint::kFsync;
    fault.error = EIO;
    ExpectFailedBatchIsRepaired(Dir(std::string("fsyncfail_") + path.name),
                                fault, path);
  }
}

TEST_F(GroupCommitIoTest, FailedTruncateReportsATornLog) {
  for (const WritePath& path : WritePaths()) {
    SCOPED_TRACE(path.name);
    const std::string dir = Dir(std::string("torn_") + path.name);
    const auto& batches = path.batches;
    const uint64_t partial = EncodedSize(batches[1]) / 2;
    auto ref = std::move(SketchStore::Create(Options().store)).value();
    ApplyToReference(batches[0], &ref);
    {
      DurableSketchStore store = MustOpen(dir, path);
      ASSERT_TRUE(path.commit(store, batches[0]).ok());
      const uint64_t batch_start = store.wal_offset();
      IoFault write_fault;
      write_fault.point = IoPoint::kWrite;
      write_fault.error = ENOSPC;
      write_fault.short_write_bytes = partial;
      InjectIoFault(write_fault);
      IoFault truncate_fault;
      truncate_fault.point = IoPoint::kTruncate;
      InjectIoFault(truncate_fault);

      const Status failed = path.commit(store, batches[1]);
      EXPECT_EQ(failed.code(), StatusCode::kInternal);
      EXPECT_NE(failed.message().find("WAL left torn"), std::string::npos)
          << failed.ToString();
      // The short write's bytes are still in the file.
      EXPECT_EQ(fs::file_size(DurableSketchStore::WalPath(dir)),
                batch_start + partial);
    }
    // Recovery reads the partial multi-record write like any crash
    // mid-batch: the records wholly inside it replay (none was
    // acknowledged, and the server fail-stops on this error), the frame
    // it cut is a torn tail.
    uint64_t end = 0;
    for (const WalRecord& record : batches[1]) {
      end += EncodeWalRecord(record).size();
      if (end > partial) break;
      ApplyToReference({record}, &ref);
    }
    EXPECT_EQ(Fingerprint(MustOpen(dir, path).store()), Fingerprint(ref));
  }
}

TEST_F(GroupCommitIoTest, FailedSnapshotRenameKeepsOldSnapshotAndFullLog) {
  const std::string dir = Dir("rename");
  const auto batches = ThreeBatches();
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  uint64_t epoch = 0;
  {
    DurableSketchStore store = MustOpen(dir);
    ASSERT_TRUE(store.IngestBatch(batches[0]).ok());
    ApplyToReference(batches[0], &ref);
    ASSERT_TRUE(store.Checkpoint().ok());  // the old snapshot: batch 0
    ASSERT_TRUE(store.IngestBatch(batches[1]).ok());
    ApplyToReference(batches[1], &ref);
    epoch = store.epoch();

    IoFault fault;
    fault.point = IoPoint::kRename;
    InjectIoFault(fault);
    const Status failed = store.Checkpoint();
    EXPECT_EQ(failed.code(), StatusCode::kInternal) << failed.ToString();
    // The log was not reset and the temporary snapshot is gone.
    EXPECT_EQ(store.epoch(), epoch);
    EXPECT_FALSE(
        FileExists(DurableSketchStore::SnapshotPath(dir) + ".tmp"));

    // The store keeps accepting writes.
    ASSERT_TRUE(store.IngestBatch(batches[2]).ok());
    ApplyToReference(batches[2], &ref);
  }
  // Old snapshot plus the full log: exactly the acknowledged records.
  DurableSketchStore reopened = MustOpen(dir);
  EXPECT_EQ(reopened.epoch(), epoch);
  EXPECT_EQ(Fingerprint(reopened.store()), Fingerprint(ref));
}

TEST_F(GroupCommitIoTest, LiveReopenedAndFollowerStateAreBitIdentical) {
  // One group commit of many distinct values for one series and interval
  // sums them in one AddBatch run; recovery replays the whole log and a
  // follower applies it in two segments. All three must encode to the
  // same snapshot bytes, sum() included.
  const std::string dir = Dir("primary");
  std::vector<WalRecord> records;
  for (int i = 0; i < 64; ++i) {
    WalRecord record;
    record.type = WalRecord::Type::kIngestValue;
    record.series = "api.latency";
    record.timestamp = 3;
    record.value = 0.1 * (i + 1) + 1e3 / (i + 7);
    records.push_back(std::move(record));
  }
  std::string live;
  {
    DurableSketchStore primary = MustOpen(dir);
    ASSERT_TRUE(primary.IngestBatch(records).ok());
    live = EncodeSnapshot(primary.store(), 0);

    // A follower fed the primary's log bytes, split at an interior
    // record boundary.
    DurableSketchStoreOptions follower_options = Options();
    follower_options.role = StoreRole::kFollower;
    auto follower =
        DurableSketchStore::Open(Dir("follower"), follower_options);
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    const uint64_t end = primary.wal_offset();
    auto first = primary.ReadWalChunk(kWalHeaderBytes,
                                      (end - kWalHeaderBytes) / 2);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_GT(first.value().size(), 0u);
    ASSERT_LT(first.value().size(), end - kWalHeaderBytes);
    auto rest =
        primary.ReadWalChunk(kWalHeaderBytes + first.value().size(), end);
    ASSERT_TRUE(rest.ok()) << rest.status().ToString();
    for (const std::string* segment : {&first.value(), &rest.value()}) {
      DurableSketchStore& f = follower.value();
      ASSERT_TRUE(
          f.ApplyReplicatedSegment(f.epoch(), f.wal_offset(), *segment).ok());
    }
    EXPECT_EQ(follower.value().wal_offset(), end);
    EXPECT_EQ(EncodeSnapshot(follower.value().store(), 0), live);
  }
  EXPECT_EQ(EncodeSnapshot(MustOpen(dir).store(), 0), live);
}

TEST_F(GroupCommitIoTest, WideMergesAreNotAllHeldDecodedAtOnce) {
  // A payload under 1 KiB in a client-chosen wide dense store decodes to
  // hundreds of KiB. A segment of them, applied by a follower (or given
  // to the undecoded group commit), must not hold every decoded sketch
  // from validation to merge: past the cap they are decoded at merge.
  DDSketchConfig wide_config;
  wide_config.max_num_buckets = 1 << 20;
  auto wide = std::move(DDSketch::Create(wide_config)).value();
  wide.Add(1e-100);
  wide.Add(1e100);
  WalRecord record;
  record.type = WalRecord::Type::kIngestSketch;
  record.series = "svc";
  record.timestamp = 3;
  record.payload = wide.Serialize();
  ASSERT_LT(record.payload.size(), 1024u);
  const size_t cap = DurableSketchStore::kMaxHeldDecodedBytes;
  const size_t count = 3 * cap / wide.size_in_bytes() + 1;
  const std::vector<WalRecord> records(count, record);
  std::string segment;
  for (const WalRecord& r : records) AppendWalRecord(r, &segment);
  auto ref = std::move(SketchStore::Create(Options().store)).value();
  ApplyToReference(records, &ref);

  DurableSketchStoreOptions follower_options = Options();
  follower_options.role = StoreRole::kFollower;
  const struct {
    const char* name;
    DurableSketchStoreOptions options;
    std::function<Status(DurableSketchStore&)> commit;
  } paths[] = {
      {"ApplyReplicatedSegment", follower_options,
       [&](DurableSketchStore& store) {
         return store.ApplyReplicatedSegment(store.epoch(), store.wal_offset(),
                                             segment);
       }},
      {"IngestBatch", Options(),
       [&](DurableSketchStore& store) { return store.IngestBatch(records); }},
  };
  for (const auto& path : paths) {
    SCOPED_TRACE(path.name);
    const std::string dir = Dir(path.name);
    {
      auto opened = DurableSketchStore::Open(dir, path.options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      DurableSketchStore& store = opened.value();
      const int64_t baseline = g_heap_live.load();
      g_heap_peak.store(baseline);
      ASSERT_TRUE(path.commit(store).ok());
      const int64_t held = g_heap_peak.load() - baseline;
      EXPECT_LT(held, static_cast<int64_t>(cap + cap / 2));
      EXPECT_EQ(Fingerprint(store.store()), Fingerprint(ref));
    }
    EXPECT_EQ(Fingerprint(MustOpen(dir).store()), Fingerprint(ref));
  }
}

TEST_F(DurabilityTest, SyncEveryIngestModeWorks) {
  const std::string dir = Dir("sync");
  DurableSketchStoreOptions options = Options();
  options.sync_every_ingest = true;
  auto opened = DurableSketchStore::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value().IngestValue("s", 0, 1.0).ok());
  ASSERT_TRUE(opened.value().Sync().ok());
}

}  // namespace
}  // namespace dd
