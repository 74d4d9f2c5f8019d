// ShardedDurableStore (timeseries/sharded_store.h): directory layout
// and manifest handling, stable series routing, byte-compatibility of
// single-shard mode with legacy DurableSketchStore directories,
// cross-shard query equivalence with an unsharded store, per-shard
// checkpointing, committers racing every cross-shard operation (the
// thread-safety contract), and SIGKILL crash recovery of a 4-shard
// directory against an unsharded reference (the mergeability claim, end
// to end).

#include "timeseries/sharded_store.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/ddsketch.h"
#include "timeseries/durable_store.h"
#include "timeseries/wal.h"
#include "util/dir_layout.h"

namespace dd {
namespace {

namespace fs = std::filesystem;

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("dd_sharded_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  static ShardedDurableStore MustOpen(const std::string& dir,
                                      size_t shards = 0) {
    ShardedDurableStoreOptions options;
    options.shards = shards;
    auto store = ShardedDurableStore::Open(dir, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  fs::path root_;
};

TEST_F(ShardedStoreTest, RoutingIsStableAndCoversEveryShard) {
  // The route is part of the on-disk contract: pin a few hashes so an
  // accidental change to ShardHash fails loudly instead of orphaning
  // every sharded directory.
  EXPECT_EQ(ShardHash(""), 14695981039346656037ull);  // FNV-1a offset basis
  EXPECT_EQ(ShardHash("a"), 12638187200555641996ull);
  const size_t s = ShardedDurableStore::ShardForSeries("api.latency", 4);
  EXPECT_EQ(ShardedDurableStore::ShardForSeries("api.latency", 4), s);
  EXPECT_LT(s, 4u);
  // 100 series over 4 shards: every shard owns some of them.
  std::set<size_t> used;
  for (int i = 0; i < 100; ++i) {
    used.insert(ShardedDurableStore::ShardForSeries(
        "series." + std::to_string(i), 4));
  }
  EXPECT_EQ(used.size(), 4u);
  // A single shard takes everything.
  EXPECT_EQ(ShardedDurableStore::ShardForSeries("anything", 1), 0u);
}

TEST_F(ShardedStoreTest, FreshShardedDirectoryWritesManifestAndSubdirs) {
  {
    ShardedDurableStore store = MustOpen(Dir("s4"), 4);
    EXPECT_EQ(store.num_shards(), 4u);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store
                      .IngestValue("series." + std::to_string(i % 5), i * 10,
                                   1.0 + i)
                      .ok());
    }
  }
  EXPECT_TRUE(fs::exists(fs::path(Dir("s4")) / "SHARDS"));
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(
        fs::exists(fs::path(ShardSubdir(Dir("s4"), k)) / "wal.log"));
  }
  auto manifest = ReadShardManifest(Dir("s4"));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value(), 4u);
  // Auto-detect (shards = 0) adopts the manifest count and the data.
  ShardedDurableStore reopened = MustOpen(Dir("s4"));
  EXPECT_EQ(reopened.num_shards(), 4u);
  EXPECT_EQ(reopened.TotalSeries(), 5u);
  EXPECT_EQ(std::move(reopened.QueryRange("series.1", 0, 200)).value().count(),
            4u);
}

TEST_F(ShardedStoreTest, ShardCountMismatchIsIncompatible) {
  { MustOpen(Dir("s4"), 4); }
  ShardedDurableStoreOptions options;
  options.shards = 2;
  auto wrong = ShardedDurableStore::Open(Dir("s4"), options);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kIncompatible);
}

TEST_F(ShardedStoreTest, CorruptManifestIsCorruption) {
  { MustOpen(Dir("s4"), 4); }
  {
    std::ofstream out(ShardManifestPath(Dir("s4")), std::ios::trunc);
    out << "shards=banana\n";
  }
  auto opened = ShardedDurableStore::Open(Dir("s4"), {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
}

TEST_F(ShardedStoreTest, SingleShardKeepsLegacyFlatLayout) {
  // A legacy directory written by DurableSketchStore directly...
  {
    auto legacy = DurableSketchStore::Open(Dir("flat"), {});
    ASSERT_TRUE(legacy.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(legacy.value().IngestValue("svc", i * 10, 1.0 + i).ok());
    }
  }
  // ...opens in place as one shard (explicitly or via auto-detect)...
  {
    ShardedDurableStore store = MustOpen(Dir("flat"), 1);
    EXPECT_EQ(store.num_shards(), 1u);
    EXPECT_EQ(std::move(store.QueryRange("svc", 0, 100)).value().count(), 10u);
    ASSERT_TRUE(store.IngestValue("svc", 500, 42.0).ok());
  }
  // ...never grows a manifest or shard subdirectories...
  EXPECT_FALSE(fs::exists(fs::path(Dir("flat")) / "SHARDS"));
  EXPECT_FALSE(fs::exists(fs::path(Dir("flat")) / "shard-0"));
  // ...and stays byte-compatible: the plain store reads everything back.
  auto plain = DurableSketchStore::Open(Dir("flat"), {});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(std::move(plain.value().QueryRange("svc", 0, 600)).value().count(),
            11u);
}

TEST_F(ShardedStoreTest, FreshSingleShardIsLegacyCompatibleToo) {
  {
    ShardedDurableStore store = MustOpen(Dir("fresh1"), 1);
    ASSERT_TRUE(store.IngestValue("svc", 0, 7.0).ok());
  }
  EXPECT_FALSE(fs::exists(fs::path(Dir("fresh1")) / "SHARDS"));
  auto plain = DurableSketchStore::Open(Dir("fresh1"), {});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(std::move(plain.value().QueryRange("svc", 0, 10)).value().count(),
            1u);
}

TEST_F(ShardedStoreTest, LegacyDirectoryCannotBeResplit) {
  {
    auto legacy = DurableSketchStore::Open(Dir("flat"), {});
    ASSERT_TRUE(legacy.ok());
    ASSERT_TRUE(legacy.value().IngestValue("svc", 0, 1.0).ok());
  }
  ShardedDurableStoreOptions options;
  options.shards = 4;
  auto wrong = ShardedDurableStore::Open(Dir("flat"), options);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kIncompatible);
}

TEST_F(ShardedStoreTest, ShardedQueriesMatchUnshardedReferenceExactly) {
  ShardedDurableStore sharded = MustOpen(Dir("s4"), 4);
  auto reference = std::move(SketchStore::Create(SketchStoreOptions{})).value();
  std::vector<std::string> series;
  for (int s = 0; s < 8; ++s) series.push_back("svc." + std::to_string(s));
  for (int i = 0; i < 400; ++i) {
    const std::string& name = series[i % series.size()];
    const double value = 0.5 + ((i * 13) % 197) * 0.25;
    const int64_t ts = (i % 25) * 10;
    ASSERT_TRUE(sharded.IngestValue(name, ts, value).ok());
    ASSERT_TRUE(reference.IngestValue(name, ts, value).ok());
  }
  EXPECT_EQ(sharded.TotalSeries(), series.size());
  EXPECT_EQ(sharded.ListSeries(), reference.ListSeries());
  for (const std::string& name : series) {
    for (double q : {0.1, 0.5, 0.95, 0.99}) {
      EXPECT_EQ(std::move(sharded.QueryQuantile(name, 0, 250, q)).value(),
                std::move(reference.QueryQuantile(name, 0, 250, q)).value())
          << name << " q=" << q;
    }
  }
  // Unknown series surfaces the owning shard's error.
  auto missing = sharded.QueryRange("nope", 0, 100);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardedStoreTest, PerShardCheckpointAdvancesOnlyThatShard) {
  ShardedDurableStore store = MustOpen(Dir("s3"), 3);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        store.IngestValue("series." + std::to_string(i), 0, 1.0 + i).ok());
  }
  for (size_t k = 0; k < 3; ++k) EXPECT_EQ(store.shard(k).epoch(), 1u);
  ASSERT_TRUE(store
                  .WithShard(1, [](DurableSketchStore& shard) {
                    return shard.Checkpoint();
                  })
                  .ok());
  EXPECT_EQ(store.shard(0).epoch(), 1u);
  EXPECT_EQ(store.shard(1).epoch(), 2u);
  EXPECT_EQ(store.shard(2).epoch(), 1u);
  // The facade-wide checkpoint catches every shard up.
  ASSERT_TRUE(store.Checkpoint().ok());
  const std::vector<ShardedDurableStore::ShardUsage> usage = store.Usage();
  ASSERT_EQ(usage.size(), 3u);
  EXPECT_EQ(usage[0].epoch, 2u);
  EXPECT_EQ(usage[1].epoch, 3u);
  EXPECT_EQ(usage[2].epoch, 2u);
}

TEST_F(ShardedStoreTest, CompactRollsUpEveryShardAndPreservesAnswers) {
  ShardedDurableStore store = MustOpen(Dir("s2"), 2);
  // Default ladder: raw retention is 1h, so span ~2h of data time to
  // give the (horizon-clamped) compact something old enough to fold.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    .IngestValue("svc." + std::to_string(i % 6), i * 36,
                                 1.0 + (i % 31))
                    .ok());
  }
  std::vector<double> before;
  for (int s = 0; s < 6; ++s) {
    before.push_back(std::move(store.QueryQuantile("svc." + std::to_string(s),
                                                   0, 7200, 0.9))
                         .value());
  }
  auto compacted = store.Compact(/*now=*/100000);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_GT(compacted.value(), 0u);
  uint64_t folded_into_coarse_levels = 0;
  for (const auto& shard : store.Usage()) {
    for (size_t i = 1; i < shard.levels.size(); ++i) {
      folded_into_coarse_levels += shard.levels[i].rollup_merges;
    }
  }
  EXPECT_GT(folded_into_coarse_levels, 0u);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(std::move(store.QueryQuantile("svc." + std::to_string(s), 0,
                                            7200, 0.9))
                  .value(),
              before[s])
        << "s=" << s;
  }
}

// ---------------------------------------------------------------------------
// The thread-safety contract: committers on distinct shards, each on the
// locked path the server's committers take (WithShard + IngestBatch),
// race a thread that runs every cross-shard operation. Every record must
// be counted exactly once, live and after reopen, and the fencing state
// must end uniform across shards.

TEST_F(ShardedStoreTest, CommittersRaceCrossShardOperations) {
  constexpr size_t kShards = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 16;
  constexpr uint64_t kPerSeries = kBatches * kBatchSize;
  // One series per shard, so each committer owns its shard.
  std::vector<std::string> series(kShards);
  size_t found = 0;
  for (int i = 0; found < kShards; ++i) {
    const std::string name = "race." + std::to_string(i);
    std::string& slot =
        series[ShardedDurableStore::ShardForSeries(name, kShards)];
    if (slot.empty()) {
      slot = name;
      ++found;
    }
  }
  const std::string dir = Dir("race");
  uint64_t final_token = 0;
  {
    ShardedDurableStore store = MustOpen(dir, kShards);
    std::atomic<int> failures{0};
    std::atomic<bool> committers_done{false};
    std::vector<std::thread> committers;
    for (size_t k = 0; k < kShards; ++k) {
      committers.emplace_back([&, k] {
        for (int b = 0; b < kBatches; ++b) {
          std::vector<WalRecord> records(kBatchSize);
          for (int i = 0; i < kBatchSize; ++i) {
            records[i].type = WalRecord::Type::kIngestValue;
            records[i].series = series[k];
            // 10 s apart: the history outgrows the raw level's 1 h
            // retention, so Compact has something to fold.
            records[i].timestamp = (b * kBatchSize + i) * 10;
            records[i].value = 1.0 + i;
          }
          const Status status =
              store.WithShard(k, [&](DurableSketchStore& shard) {
                return shard.IngestBatch(records);
              });
          if (!status.ok()) failures.fetch_add(1);
        }
      });
    }
    int rounds = 0;
    std::thread cross([&] {
      uint64_t token = 100;
      do {
        if (!store.Checkpoint().ok()) failures.fetch_add(1);
        if (!store.Compact(std::numeric_limits<int64_t>::max()).ok()) {
          failures.fetch_add(1);
        }
        if (store.Usage().size() != kShards) failures.fetch_add(1);
        if (!store.AdoptFenceToken(++token).ok()) failures.fetch_add(1);
        auto promoted = store.Promote();
        if (!promoted.ok()) {
          failures.fetch_add(1);
        } else {
          token = promoted.value();
        }
        ++rounds;
      } while (!committers_done.load());
    });
    for (std::thread& t : committers) t.join();
    committers_done.store(true);
    cross.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_GE(rounds, 1);
    for (const std::string& name : series) {
      EXPECT_EQ(std::move(store.QueryRange(name, 0, 1 << 30)).value().count(),
                kPerSeries)
          << name;
    }
    final_token = store.FenceState().token;
  }
  ShardedDurableStore reopened = MustOpen(dir);
  for (const std::string& name : series) {
    EXPECT_EQ(std::move(reopened.QueryRange(name, 0, 1 << 30)).value().count(),
              kPerSeries)
        << name;
  }
  for (const ShardedDurableStore::ShardUsage& shard : reopened.Usage()) {
    EXPECT_EQ(shard.fence_token, final_token);
    EXPECT_FALSE(shard.fenced);
    EXPECT_EQ(shard.role, StoreRole::kPrimary);
  }
}

// ---------------------------------------------------------------------------
// SIGKILL crash recovery (the ISSUE 5 acceptance bar): a child process
// ingests into a 4-shard store and is SIGKILLed mid-ingest; the parent
// reopens the directory and every recovered series must answer exactly
// like an unsharded reference store fed the same per-series prefix —
// and within the paper's 2a/(1-a) bound of ground truth.

constexpr int kCrashSeries = 6;
constexpr int kCrashRounds = 200000;  // far more than the child survives

std::string CrashSeriesName(int s) { return "crash." + std::to_string(s); }

/// Value j of series s; deterministic so the parent can rebuild any
/// per-series prefix without talking to the child.
double CrashValue(int s, int j) {
  return 0.25 + ((static_cast<uint64_t>(j) * 31 + s * 7) % 1009) * 0.5;
}

int64_t CrashTimestamp(int j) { return (j % 50) * 10; }

TEST_F(ShardedStoreTest, SigkillMidIngestRecoversShardPrefixes) {
  const std::string dir = Dir("crash");
  const std::string marker = Dir("crash.started");

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: ingest round-robin until killed. No gtest assertions here —
    // any failure exits nonzero before the marker appears and the parent
    // times out. _exit keeps gtest/ASan teardown out of the child.
    ShardedDurableStoreOptions options;
    options.shards = 4;
    auto store = ShardedDurableStore::Open(dir, options);
    if (!store.ok()) _exit(2);
    for (int j = 0; j < kCrashRounds; ++j) {
      for (int s = 0; s < kCrashSeries; ++s) {
        if (!store.value()
                 .IngestValue(CrashSeriesName(s), CrashTimestamp(j),
                              CrashValue(s, j))
                 .ok()) {
          _exit(3);
        }
      }
      if (j == 50) {
        std::ofstream out(marker);
        out << "go\n";
      }
    }
    _exit(0);
  }

  // Parent: wait for the child to be mid-stream, then kill it hard.
  for (int i = 0; i < 1000 && !fs::exists(marker); ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_TRUE(fs::exists(marker)) << "child never started ingesting";
  ::usleep(30 * 1000);  // let it get deeper mid-ingest
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child finished before the kill; "
                                       "raise kCrashRounds";

  // Recovery: the directory must open (auto-detecting 4 shards) and each
  // series must equal the reference fed its recovered prefix.
  ShardedDurableStore recovered = MustOpen(dir);
  EXPECT_EQ(recovered.num_shards(), 4u);
  uint64_t total = 0;
  for (int s = 0; s < kCrashSeries; ++s) {
    const std::string name = CrashSeriesName(s);
    auto range = recovered.QueryRange(name, 0, 500);
    ASSERT_TRUE(range.ok()) << name << ": " << range.status().ToString();
    const uint64_t count = range.value().count();
    ASSERT_GT(count, 50u) << name;  // the marker round was acknowledged
    total += count;

    // Per-shard WAL replay preserves per-series order, so the recovered
    // multiset is exactly the first `count` values of this series.
    auto reference =
        std::move(SketchStore::Create(SketchStoreOptions{})).value();
    std::vector<double> values;
    values.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      const double v = CrashValue(s, static_cast<int>(j));
      ASSERT_TRUE(reference
                      .IngestValue(name, CrashTimestamp(static_cast<int>(j)),
                                   v)
                      .ok());
      values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    constexpr double kAlpha = 0.01;  // the default DDSketchConfig accuracy
    constexpr double kBound = 2 * kAlpha / (1 - kAlpha);
    for (double q : {0.5, 0.95, 0.99}) {
      const double sharded_q =
          std::move(recovered.QueryQuantile(name, 0, 500, q)).value();
      const double reference_q =
          std::move(reference.QueryQuantile(name, 0, 500, q)).value();
      // Identical per-series input in identical order: the recovered
      // shard sketch is bucket-identical to the unsharded reference.
      EXPECT_EQ(sharded_q, reference_q) << name << " q=" << q;
      // And the paper's guarantee holds against exact order statistics.
      const double exact =
          values[std::min(values.size() - 1,
                          static_cast<size_t>(q * (values.size() - 1) + 0.5))];
      EXPECT_LE(std::abs(sharded_q - exact) / exact, kBound + 1e-9)
          << name << " q=" << q;
    }
  }
  EXPECT_GT(total, 300u);
}

}  // namespace
}  // namespace dd
