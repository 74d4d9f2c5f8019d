// Per-tag admission control: the staged-bytes budget split into per-tag
// ledgers (protocol v7). Every connection charges its staged INGEST /
// MERGE bytes to one tag ("default" unless the client sent SET_TAG);
// each *configured* tag (--tag-budget, plus the built-in "default")
// owns a guaranteed floor — a weighted slice of kFloorFraction × budget
// that no other tag can consume — plus a borrowable share of the
// remaining pool, so a flooding tag exhausts *its* allowance and gets
// BUSY while honest tags keep their floor. Floors are fixed at
// construction: tags registered later (an unanticipated SET_TAG) get no
// floor and borrow from the shared pool only, and the table is capped
// at kMaxTags — so an unauthenticated client spraying junk tag names
// can neither grow server state without bound nor dilute a configured
// tenant's guarantee.
// The throttle controller (server.cc) shrinks a misbehaving tag's
// borrowable share when the tag's own ack-latency p99 breaches the
// operator's target, and decays it back on recovery.
//
// The ledger is a pure accounting object: one mutex, no threads, no
// sockets — which is what makes its conservation invariants (grants −
// refunds == outstanding, never negative, floors never violated)
// checkable by a randomized property test (tests/admission_test.cc).

#ifndef DDSKETCH_SERVER_ADMISSION_H_
#define DDSKETCH_SERVER_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dd {

/// One tag's view of the ledger at Snapshot() time (feeds the v7
/// per-tag STATS rows).
struct TagLedgerEntry {
  uint32_t id = 0;
  std::string tag;
  uint64_t floor_bytes = 0;     ///< guaranteed slice, never borrowable away
  uint64_t budget_bytes = 0;    ///< floor + currently borrowable pool share
  uint64_t staged_bytes = 0;    ///< outstanding grants (grants − refunds)
  uint64_t busy_rejections = 0; ///< TryAdmit refusals charged to this tag
  double borrow_share = 1.0;    ///< throttle scale on the borrowable pool
};

/// The per-tag staged-bytes ledger. Thread-safe; every operation takes
/// one internal mutex (admission already sits behind a CAS-loop-grade
/// cost in the staging path, and refusal/refund are off the fast path).
class TagAdmissionLedger {
 public:
  static constexpr uint32_t kDefaultTagId = 0;
  static constexpr size_t kMaxTagLength = 64;
  /// Hard cap on distinct tags (configured + dynamically registered).
  /// Ledger entries and their latency sketches live for the server's
  /// lifetime, and STATS / the throttle tick walk every tag — the cap
  /// keeps an unauthenticated SET_TAG spray from growing any of that
  /// without bound.
  static constexpr size_t kMaxTags = 64;
  /// A throttled tag always keeps a sliver of borrowing power so the
  /// controller's decay has a signal to recover on.
  static constexpr double kMinBorrowShare = 0.02;
  /// Retry hint bounds: the default when no refill has been observed
  /// yet, and the cap so a hint can never park a client for seconds.
  static constexpr uint64_t kDefaultRetryMs = 10;
  static constexpr uint64_t kMaxRetryMs = 1000;
  /// Fraction of the budget reserved as guaranteed per-tag floors; the
  /// rest is the shared borrowable pool.
  static constexpr double kFloorFraction = 0.5;

  /// `total_budget` 0 means unlimited: every TryAdmit succeeds but the
  /// per-tag accounting still runs (STATS still shows staged bytes).
  /// `weights` pre-registers the configured tags (from --tag-budget);
  /// only these — and "default", always registered as tag id 0 — split
  /// the floor reserve. At most kMaxTags entries (callers validate).
  TagAdmissionLedger(
      uint64_t total_budget,
      const std::vector<std::pair<std::string, uint64_t>>& weights);

  /// Tag-name contract shared with the SET_TAG op: 1..kMaxTagLength
  /// chars of [A-Za-z0-9._-].
  static bool ValidTagName(std::string_view tag);

  /// Returns the tag's dense id, registering it if unknown. A tag
  /// registered here (rather than configured at construction) gets no
  /// floor — it borrows from the shared pool only — so late arrivals
  /// never shrink a configured tenant's guarantee. Returns nullopt when
  /// the table already holds kMaxTags tags (the caller should refuse
  /// the SET_TAG and leave the connection on its current tag).
  std::optional<uint32_t> RegisterTag(std::string_view tag);

  /// Tries to stage `bytes` for `tag_id`. Admits when the tag stays
  /// within its floor, or when the overflow fits both the shared pool
  /// and the tag's throttled share of it. On refusal returns false,
  /// charges the tag a busy rejection, and sets *retry_after_ms to the
  /// tag's refill-derived hint (never 0).
  bool TryAdmit(uint32_t tag_id, uint64_t bytes, uint64_t* retry_after_ms);

  /// Returns `bytes` previously granted to `tag_id` (commit completion
  /// or staging unwind). Clamps at zero rather than underflowing so a
  /// bookkeeping bug cannot mint budget.
  void Refund(uint32_t tag_id, uint64_t bytes);

  /// Throttle-controller surface: the borrowable-pool scale for one
  /// tag, clamped to [kMinBorrowShare, 1].
  double borrow_share(uint32_t tag_id) const;
  void set_borrow_share(uint32_t tag_id, double share);

  uint64_t total_budget() const { return total_budget_; }
  uint64_t total_staged() const;
  size_t num_tags() const;

  std::vector<TagLedgerEntry> Snapshot() const;

 private:
  struct Tag {
    std::string name;
    /// Floor-reserve weight. 0 marks a dynamically registered tag:
    /// excluded from the reserve split, floor stays 0 forever.
    uint64_t weight = 1;
    uint64_t floor = 0;
    uint64_t staged = 0;
    uint64_t busy = 0;
    double share = 1.0;
    // Refill-rate EWMA (bytes per ms) behind the retry hint: refunds
    // accumulate and fold into the rate once ≥1 ms has passed.
    double refill_bytes_per_ms = 0;
    uint64_t refund_accum = 0;
    std::chrono::steady_clock::time_point refill_mark{};
    bool refill_mark_set = false;
  };

  uint32_t RegisterTagLocked(std::string_view tag, uint64_t weight);
  void ComputeFloorsLocked();
  uint64_t SharedUsedLocked() const;
  uint64_t RetryHintMsLocked(const Tag& tag, uint64_t deficit) const;

  const uint64_t total_budget_;

  mutable std::mutex mu_;
  std::vector<Tag> tags_;
  std::unordered_map<std::string, uint32_t> ids_;
  uint64_t shared_pool_ = 0;  ///< total_budget_ − Σ floors
  uint64_t total_staged_ = 0;
};

}  // namespace dd

#endif  // DDSKETCH_SERVER_ADMISSION_H_
