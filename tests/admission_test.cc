// Unit and property tests for the per-tag admission ledger (protocol
// v7) and the BUSY retry-hint handling in the client's BusyBackoff.
//
// The ledger is pure accounting — one mutex, no threads of its own —
// so its conservation invariants are provable here under randomized
// concurrent interleavings: grants − refunds == outstanding staged
// bytes (per tag and in total), counters never go negative, and a
// tag's guaranteed floor is never consumed by another tag's overflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "server/admission.h"
#include "server/client.h"
#include "util/rng.h"

namespace dd {
namespace {

TagLedgerEntry FindTag(const std::vector<TagLedgerEntry>& rows,
                       const std::string& name) {
  for (const TagLedgerEntry& row : rows) {
    if (row.tag == name) return row;
  }
  ADD_FAILURE() << "tag not in snapshot: " << name;
  return {};
}

TEST(TagNameTest, ValidatesCharsetAndLength) {
  EXPECT_TRUE(TagAdmissionLedger::ValidTagName("default"));
  EXPECT_TRUE(TagAdmissionLedger::ValidTagName("team-a.v2_prod"));
  EXPECT_TRUE(TagAdmissionLedger::ValidTagName("X"));
  EXPECT_TRUE(TagAdmissionLedger::ValidTagName(std::string(64, 'a')));
  EXPECT_FALSE(TagAdmissionLedger::ValidTagName(""));
  EXPECT_FALSE(TagAdmissionLedger::ValidTagName(std::string(65, 'a')));
  EXPECT_FALSE(TagAdmissionLedger::ValidTagName("has space"));
  EXPECT_FALSE(TagAdmissionLedger::ValidTagName("sl/ash"));
  EXPECT_FALSE(TagAdmissionLedger::ValidTagName(std::string("nu\0l", 4)));
}

TEST(TagAdmissionLedgerTest, WeightedFloorsPartitionTheReserve) {
  // Reserve = 0.5 × 1000 = 500, split over default=1, gold=3, bronze=1.
  TagAdmissionLedger ledger(1000, {{"gold", 3}, {"bronze", 1}});
  const auto rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(FindTag(rows, "default").floor_bytes, 100u);
  EXPECT_EQ(FindTag(rows, "gold").floor_bytes, 300u);
  EXPECT_EQ(FindTag(rows, "bronze").floor_bytes, 100u);
  // Floors round down; the slack joins the shared pool, so each tag's
  // full budget (floor + pool at share 1.0) reaches the whole budget.
  EXPECT_EQ(FindTag(rows, "gold").budget_bytes, 300u + 500u);
  EXPECT_EQ(ledger.total_budget(), 1000u);
}

TEST(TagAdmissionLedgerTest, FloorSurvivesAnotherTagsFlood) {
  TagAdmissionLedger ledger(1000, {{"flood", 1}, {"honest", 1}});
  const uint32_t flood = ledger.RegisterTag("flood").value();
  const uint32_t honest = ledger.RegisterTag("honest").value();
  const auto rows = ledger.Snapshot();
  const uint64_t honest_floor = FindTag(rows, "honest").floor_bytes;
  ASSERT_GT(honest_floor, 0u);

  // The flood takes everything it can get, byte by byte.
  uint64_t hint = 0;
  while (ledger.TryAdmit(flood, 1, &hint)) {
  }
  EXPECT_GE(hint, 1u);
  // The honest tag's floor is still fully admittable.
  for (uint64_t i = 0; i < honest_floor; ++i) {
    ASSERT_TRUE(ledger.TryAdmit(honest, 1, &hint))
        << "floor byte " << i << " of " << honest_floor << " refused";
  }
  // ...and not one byte more (the flood drained the shared pool).
  EXPECT_FALSE(ledger.TryAdmit(honest, 1, &hint));
  EXPECT_LE(ledger.total_staged(), ledger.total_budget());
}

TEST(TagAdmissionLedgerTest, ThrottledShareShrinksBorrowing) {
  TagAdmissionLedger ledger(1000, {{"noisy", 1}});
  const uint32_t noisy = ledger.RegisterTag("noisy").value();
  const auto before = FindTag(ledger.Snapshot(), "noisy");

  // At half share the borrowable slice of the pool halves; the floor is
  // untouchable by the throttle.
  ledger.set_borrow_share(noisy, 0.5);
  const auto after = FindTag(ledger.Snapshot(), "noisy");
  EXPECT_EQ(after.floor_bytes, before.floor_bytes);
  const uint64_t pool = before.budget_bytes - before.floor_bytes;
  EXPECT_EQ(after.budget_bytes, after.floor_bytes + pool / 2);

  // Admission honors the throttled cap exactly.
  uint64_t hint = 0;
  EXPECT_TRUE(ledger.TryAdmit(noisy, after.budget_bytes, &hint));
  EXPECT_FALSE(ledger.TryAdmit(noisy, 1, &hint));
  ledger.Refund(noisy, after.budget_bytes);

  // The clamp: a throttle can never zero a tag's borrowing power, and
  // recovery can never push the share past 1.
  ledger.set_borrow_share(noisy, 0.0);
  EXPECT_DOUBLE_EQ(ledger.borrow_share(noisy),
                   TagAdmissionLedger::kMinBorrowShare);
  ledger.set_borrow_share(noisy, 7.5);
  EXPECT_DOUBLE_EQ(ledger.borrow_share(noisy), 1.0);
}

TEST(TagAdmissionLedgerTest, RefusalChargesBusyAndHintsRetry) {
  TagAdmissionLedger ledger(100, {});
  uint64_t hint = 0;
  EXPECT_FALSE(ledger.TryAdmit(TagAdmissionLedger::kDefaultTagId, 200, &hint));
  // Fresh ledger: no refill observed yet, so the hint is the fixed
  // default — deterministic, and what the wire test pins.
  EXPECT_EQ(hint, TagAdmissionLedger::kDefaultRetryMs);
  EXPECT_EQ(FindTag(ledger.Snapshot(), "default").busy_rejections, 1u);
  // A null out-pointer is allowed (callers that only count refusals).
  EXPECT_FALSE(ledger.TryAdmit(TagAdmissionLedger::kDefaultTagId, 200,
                               nullptr));
}

TEST(TagAdmissionLedgerTest, RetryHintTracksRefillRateWithinBounds) {
  TagAdmissionLedger ledger(1000, {});
  const uint32_t id = TagAdmissionLedger::kDefaultTagId;
  uint64_t hint = 0;
  ASSERT_TRUE(ledger.TryAdmit(id, 1000, &hint));
  // Commit completions refund in bursts; ≥1 ms apart they establish a
  // refill-rate EWMA that the hint divides the deficit by.
  for (int burst = 0; burst < 4; ++burst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ledger.Refund(id, 100);
  }
  ASSERT_TRUE(ledger.TryAdmit(id, 400, &hint));
  EXPECT_FALSE(ledger.TryAdmit(id, 2000, &hint));
  EXPECT_GE(hint, 1u);
  EXPECT_LE(hint, TagAdmissionLedger::kMaxRetryMs);
}

TEST(TagAdmissionLedgerTest, ZeroBudgetAdmitsEverythingButStillAccounts) {
  TagAdmissionLedger ledger(0, {{"t", 1}});
  const uint32_t t = ledger.RegisterTag("t").value();
  uint64_t hint = 0;
  EXPECT_TRUE(ledger.TryAdmit(t, 1 << 30, &hint));
  EXPECT_EQ(ledger.total_staged(), static_cast<uint64_t>(1 << 30));
  EXPECT_EQ(FindTag(ledger.Snapshot(), "t").staged_bytes,
            static_cast<uint64_t>(1 << 30));
  ledger.Refund(t, 1 << 30);
  EXPECT_EQ(ledger.total_staged(), 0u);
}

TEST(TagAdmissionLedgerTest, RefundClampsInsteadOfUnderflowing) {
  TagAdmissionLedger ledger(1000, {});
  const uint32_t id = TagAdmissionLedger::kDefaultTagId;
  ASSERT_TRUE(ledger.TryAdmit(id, 100, nullptr));
  ledger.Refund(id, 500);  // a bookkeeping bug must not mint budget
  EXPECT_EQ(ledger.total_staged(), 0u);
  EXPECT_EQ(FindTag(ledger.Snapshot(), "default").staged_bytes, 0u);
}

TEST(TagAdmissionLedgerTest, LateRegistrationNeverDilutesConfiguredFloors) {
  TagAdmissionLedger ledger(900, {});
  // Alone, default owns the whole 450-byte reserve.
  EXPECT_EQ(FindTag(ledger.Snapshot(), "default").floor_bytes, 450u);
  const uint32_t late = ledger.RegisterTag("latecomer").value();
  EXPECT_EQ(ledger.RegisterTag("latecomer").value(), late);  // idempotent
  const auto rows = ledger.Snapshot();
  // The configured floor is immutable: a tag registered after
  // construction gets no floor at all (it borrows from the pool only),
  // so a junk-tag spray cannot shrink a configured tenant's guarantee.
  EXPECT_EQ(FindTag(rows, "default").floor_bytes, 450u);
  EXPECT_EQ(FindTag(rows, "latecomer").floor_bytes, 0u);
  EXPECT_EQ(ledger.num_tags(), 2u);
  // Pool-only still means admittable: the 450-byte shared pool is the
  // latecomer's whole allowance, and not one byte more.
  uint64_t hint = 0;
  EXPECT_TRUE(ledger.TryAdmit(late, 450, &hint));
  EXPECT_FALSE(ledger.TryAdmit(late, 1, &hint));
  ledger.Refund(late, 450);
}

TEST(TagAdmissionLedgerTest, TagTableIsCapped) {
  TagAdmissionLedger ledger(1000, {});
  // Fill the table (default occupies slot 0), then one more must be
  // refused — unbounded SET_TAG registration is the memory-growth DoS
  // the cap exists to stop.
  for (size_t i = 1; i < TagAdmissionLedger::kMaxTags; ++i) {
    ASSERT_TRUE(ledger.RegisterTag("tag" + std::to_string(i)).has_value())
        << "tag " << i;
  }
  EXPECT_EQ(ledger.num_tags(), TagAdmissionLedger::kMaxTags);
  EXPECT_FALSE(ledger.RegisterTag("one-too-many").has_value());
  EXPECT_EQ(ledger.num_tags(), TagAdmissionLedger::kMaxTags);
  // Known tags (configured or already registered) still resolve.
  EXPECT_EQ(ledger.RegisterTag("default").value(),
            TagAdmissionLedger::kDefaultTagId);
  EXPECT_TRUE(ledger.RegisterTag("tag1").has_value());
  // And the full table never dented the configured floor.
  EXPECT_EQ(FindTag(ledger.Snapshot(), "default").floor_bytes, 500u);
}

// The headline property: under randomized concurrent admit/refund
// interleavings, grants − refunds == outstanding staged bytes, per tag
// and in total; nothing underflows; and the admitted total never
// exceeds the budget while no registration is in flight.
TEST(TagAdmissionLedgerPropertyTest, ConcurrentConservation) {
  constexpr uint64_t kBudget = 1 << 20;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  TagAdmissionLedger ledger(kBudget,
                            {{"alpha", 3}, {"beta", 2}, {"gamma", 1}});
  std::vector<uint32_t> tag_ids = {
      TagAdmissionLedger::kDefaultTagId, ledger.RegisterTag("alpha").value(),
      ledger.RegisterTag("beta").value(), ledger.RegisterTag("gamma").value()};

  // Each thread keeps its own record of outstanding grants; the sum of
  // those records is the ground truth the ledger must agree with.
  std::vector<std::vector<std::pair<uint32_t, uint64_t>>> outstanding(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed0000 + static_cast<uint64_t>(t));
      auto& mine = outstanding[static_cast<size_t>(t)];
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint32_t tag =
            tag_ids[static_cast<size_t>(rng.NextU64() % tag_ids.size())];
        if (!mine.empty() && rng.NextU64() % 3 == 0) {
          const size_t victim =
              static_cast<size_t>(rng.NextU64() % mine.size());
          ledger.Refund(mine[victim].first, mine[victim].second);
          mine[victim] = mine.back();
          mine.pop_back();
        } else {
          const uint64_t bytes = 1 + rng.NextU64() % 512;
          if (ledger.TryAdmit(tag, bytes, nullptr)) {
            mine.emplace_back(tag, bytes);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Ledger state == sum of every thread's outstanding grants.
  std::vector<uint64_t> expected(tag_ids.size(), 0);
  uint64_t expected_total = 0;
  for (const auto& mine : outstanding) {
    for (const auto& [tag, bytes] : mine) {
      for (size_t i = 0; i < tag_ids.size(); ++i) {
        if (tag_ids[i] == tag) expected[i] += bytes;
      }
      expected_total += bytes;
    }
  }
  EXPECT_EQ(ledger.total_staged(), expected_total);
  EXPECT_LE(ledger.total_staged(), kBudget);
  const auto rows = ledger.Snapshot();  // ordered by dense tag id
  uint64_t snapshot_total = 0;
  for (size_t i = 0; i < tag_ids.size(); ++i) {
    EXPECT_EQ(rows[tag_ids[i]].staged_bytes, expected[i]) << "tag " << i;
  }
  for (const TagLedgerEntry& row : rows) snapshot_total += row.staged_bytes;
  EXPECT_EQ(snapshot_total, expected_total);

  // Refund everything outstanding: the ledger must drain to exactly 0.
  for (const auto& mine : outstanding) {
    for (const auto& [tag, bytes] : mine) ledger.Refund(tag, bytes);
  }
  EXPECT_EQ(ledger.total_staged(), 0u);
  for (const TagLedgerEntry& row : ledger.Snapshot()) {
    EXPECT_EQ(row.staged_bytes, 0u) << row.tag;
  }
}

// Satellite 2: the BUSY retry hint raises the client's backoff base
// while the jitter and the exponential envelope survive.
TEST(BusyBackoffHintTest, HintRaisesBaseJitterPreserved) {
  BusyBackoff backoff(1000, /*seed=*/42);
  // A 50 ms server hint: the jitter shifts above the hint, so the
  // delay lands in [50ms, 75ms) — never earlier than the server asked.
  const int64_t first = backoff.NextDelayUs(50000);
  EXPECT_GE(first, 50000);
  EXPECT_LT(first, 75000);
  // The base doubled from the hinted value and hit the 100 ms cap.
  const int64_t second = backoff.NextDelayUs(0);
  EXPECT_GE(second, 50000);
  EXPECT_LT(second, 150000);
}

TEST(BusyBackoffHintTest, HintIsCappedAndScheduleDeterministic) {
  // An absurd hint is clamped to the 100 ms cap; the hinted jitter
  // keeps the delay at or above the (clamped) ask.
  BusyBackoff capped(1000, 7);
  const int64_t delay = capped.NextDelayUs(60'000'000);
  EXPECT_LT(delay, 150000);
  EXPECT_GE(delay, 100000);

  // Same seed + same hint sequence = same schedule (testability); a
  // hint of 0 degenerates to the plain jittered exponential.
  BusyBackoff a(1000, 99), b(1000, 99);
  for (int i = 0; i < 6; ++i) {
    const int64_t hint = i == 2 ? 20000 : 0;
    EXPECT_EQ(a.NextDelayUs(hint), b.NextDelayUs(hint)) << i;
  }
  BusyBackoff c(1000, 99), d(1000, 100);
  bool diverged = false;
  for (int i = 0; i < 6; ++i) {
    if (c.NextDelayUs(0) != d.NextDelayUs(0)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "distinct seeds must not share a schedule";
}

}  // namespace
}  // namespace dd
