// sketchd's serving core: a TCP daemon in front of a ShardedDurableStore.
//
// Threading model (documented in docs/ARCHITECTURE.md, "Serving"):
//
//   event-loop threads (epoll, edge-triggered; loop 0 also accepts)
//        │ parse frames from non-blocking FramedConns
//        │ INGEST / MERGE: validate, admission-check, route by series hash
//        ▼
//   per-shard staging queues (shard.queue_mu)
//        │                         │
//   committer thread 0   ...   committer thread N-1
//        │  append batch → 1 fsync → merge (store.WithShard(k))
//        │  then post run completions back to the owning event loop
//        ▼                         ▼
//   shard-0 store     ...     shard-(N-1) store
//        ▲                         ▲
//        └──── checkpoint scheduler thread ────┘
//
// A small, fixed pool of event-loop threads multiplexes every
// connection: each loop owns an epoll set of non-blocking sockets and
// never blocks on any one peer (partial writes are buffered, stalled
// peers are shed by deadline). A connection with a staged ingest run
// in flight stops being read until the run commits — TCP flow control
// pushes back on the client, which bounds per-connection memory and
// keeps responses in request order. Committers hand completed runs
// back to the owning loop through a wake-up queue (eventfd), so the
// socket write happens on the loop thread, never on a committer.
//
// Admission control: the staged-bytes budget caps the bytes
// validated-but-not-yet-durable across all shards, split into per-tag
// ledgers (protocol v7, server/admission.h): each connection charges
// the tag it declared via SET_TAG ("default" if none), every tag keeps
// a guaranteed floor, and the rest is a borrowable shared pool — so a
// flooding tenant exhausts its own allowance and gets BUSY (with a
// retry_after_ms hint) while honest tags keep their floor. When
// --tag-p99-target-us is set, a throttle controller thread watches
// each tag's own ack-latency sketch and halves a breaching tag's
// borrowable share, decaying it back on recovery. Runs are
// additionally capped per connection (`max_conn_inflight`), and
// connections that stall mid-frame (slow loris), stop reading their
// responses, or sit idle past the configured deadlines are shed.
//
// Group commit is unchanged from PR 5: each shard's committer drains
// up to `commit_batch` staged records per commit — N acknowledged
// ingests for one fsync, with up to `shards` fsyncs in flight at once.
// A client sees OK only after the shard batch holding its record is
// durable. The background checkpoint scheduler is also unchanged.
//
// QUERY / CHECKPOINT / STATS run on the loop thread and call the
// store, which locks each shard it touches itself: QUERY only the
// owning shard; CHECKPOINT, COMPACT and STATS every shard, one lock at
// a time in shard order, so ingest on the others keeps flowing.
//
// Replication (protocol v5, server/replication.h): a SUBSCRIBE request
// hands the connection from its event loop to the ReplicationShipper,
// which streams WAL segments (and snapshots, when the follower's
// position no longer matches) and gates ingest acks on follower acks.
// A server started with role=follower runs a ReplicationFollower that
// tails its primary and refuses every client write with FENCED; the
// read path (QUERY/STATS) serves normally. Promote() flips a follower
// (or a fenced ex-primary) back into a writable primary by bumping the
// fencing token persisted in every shard's LOCK file — a deposed
// primary that observes the new token (FENCE frame, or a SUBSCRIBE
// from a newer-tokened follower) sticky-fences itself, so late writes
// after a failover are refused instead of splitting the brain.

#ifndef DDSKETCH_SERVER_SERVER_H_
#define DDSKETCH_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/ddsketch.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/replication.h"
#include "timeseries/sharded_store.h"
#include "util/status.h"

namespace dd {

struct SketchServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  DurableSketchStoreOptions durable;
  /// Shard count for the data directory: 0 auto-detects (manifest count,
  /// legacy/fresh directories open single-shard); an explicit count must
  /// match the directory (see timeseries/sharded_store.h).
  size_t shards = 0;
  /// Max staged records drained into one group commit (one fsync),
  /// per shard.
  size_t commit_batch = 64;
  /// Extra microseconds a shard committer waits for a partial batch to
  /// fill. 0 = commit whatever queued while the previous commit ran.
  int64_t commit_interval_us = 0;
  /// Background checkpoint: snapshot + reset a shard's WAL once it
  /// exceeds this many bytes. 0 disables the size trigger.
  uint64_t checkpoint_wal_bytes = 0;
  /// Background checkpoint: snapshot + reset a shard's WAL once it has
  /// held records this long. 0 disables the interval trigger. (sketchd
  /// exposes this as --checkpoint-interval-s; milliseconds here keep the
  /// scheduler unit-testable.)
  int64_t checkpoint_interval_ms = 0;

  /// Event-loop threads multiplexing all connections. 0 = auto (half
  /// the hardware threads, clamped to [1, 4]).
  size_t event_loops = 0;
  /// Admission control: global cap on bytes staged (validated and
  /// queued, not yet durable) across all shards. Records arriving past
  /// the cap are refused with BUSY. 0 = unlimited. The cap is split
  /// into per-tag ledgers (v7): each tag's guaranteed floor is its
  /// weighted slice of TagAdmissionLedger::kFloorFraction × budget, the
  /// rest is a shared pool any tag may borrow from.
  uint64_t staged_bytes_budget = 64u << 20;
  /// Pre-registered tag weights (from sketchd --tag-budget). Tags not
  /// listed here register on first SET_TAG with weight 1; "default"
  /// always exists.
  std::vector<std::pair<std::string, uint64_t>> tag_weights;
  /// Throttle controller: shrink a tag's borrowable share when its own
  /// ingest/merge ack p99 (microseconds) breaches this target.
  /// 0 disables the controller (floors still isolate tenants).
  int64_t tag_p99_target_us = 0;
  /// Controller tick cadence (also the per-tag latency window length).
  int64_t tag_throttle_interval_ms = 200;
  /// Per-connection cap on records staged in one run (one run per
  /// connection may be in flight; reads pause until it commits).
  size_t max_conn_inflight = 1024;
  /// Shed a connection that has been completely idle (hello done, no
  /// partial frame, no pending writes) this long. 0 = never.
  int64_t idle_timeout_ms = 300000;
  /// Shed a connection whose pending unit of I/O — the hello, a partial
  /// frame (slow loris), or unread responses (stalled reader) — fails
  /// to complete within this deadline. Byte-at-a-time progress does not
  /// reset it. 0 = never.
  int64_t stall_timeout_ms = 10000;
  /// Relative accuracy of the self-instrumentation sketches: each event
  /// loop records every request's ack latency into a per-op DDSketch at
  /// this alpha, and STATS reports the merged percentiles (protocol
  /// v4). The default matches the library default.
  double latency_alpha = 0.01;

  // --- Replication (protocol v5). The server's role comes from
  // durable.role: kFollower additionally requires follow_host/port. ---

  /// Primary to tail when durable.role == kFollower ("--follow").
  std::string follow_host;
  uint16_t follow_port = 0;
  /// Semi-sync ack gating: a committed batch's client acks are parked
  /// until every subscribed follower acks it, at most this long; a
  /// follower that blows the deadline is dropped and the primary
  /// degrades to async. 0 disables gating (pure async shipping).
  int64_t repl_ack_timeout_ms = 1000;
  /// Heartbeat cadence on replication connections.
  int64_t repl_heartbeat_ms = 500;
  /// Bootstrap snapshot images larger than this ship chunked
  /// (kSnapshotChunk/kSnapshotEnd, protocol v6) instead of as one
  /// frame. Tests shrink it to exercise chunking with small stores.
  uint64_t repl_snapshot_chunk_bytes = 4u << 20;
};

/// The daemon: owns the sharded durable store, the listening socket, and
/// all serving threads. Construct via Start(), tear down via Stop()
/// (also run by the destructor). Stop() closes the store so the data
/// directory can be reopened immediately afterwards.
class SketchServer {
 public:
  /// Opens (or recovers) `data_dir`, binds the listening socket, and
  /// launches the event loops, one committer per shard, and (when a
  /// checkpoint trigger is configured) the checkpoint scheduler.
  static Result<std::unique_ptr<SketchServer>> Start(
      const std::string& data_dir, const SketchServerOptions& options);

  SketchServer(const SketchServer&) = delete;
  SketchServer& operator=(const SketchServer&) = delete;
  ~SketchServer();

  /// Stops accepting, sheds every connection (in-flight runs are
  /// committed first), joins all threads, and closes the store.
  /// Idempotent. Connections arriving at any point during shutdown are
  /// owned by exactly one event loop, so none can be missed by a sweep
  /// (the race the old accept-thread design documented).
  void Stop();

  /// The bound port (useful with options.port = 0).
  uint16_t port() const noexcept { return port_; }

  size_t num_shards() const noexcept { return shards_.size(); }
  size_t num_event_loops() const noexcept { return loops_.size(); }

  /// Group commits executed since Start, totaled across shards (each is
  /// exactly one WAL fsync).
  uint64_t batch_commits() const noexcept;

  /// Checkpoints the scheduler has run since Start, totaled across
  /// shards (client CHECKPOINTs are not counted).
  uint64_t background_checkpoints() const noexcept;

  /// Serving counters (also reported via STATS).
  uint64_t connections_open() const noexcept {
    return connections_open_.load(std::memory_order_relaxed);
  }
  uint64_t connections_shed() const noexcept {
    return connections_shed_.load(std::memory_order_relaxed);
  }
  uint64_t busy_rejections() const noexcept {
    return busy_rejections_.load(std::memory_order_relaxed);
  }
  /// The per-tag admission ledger (always present; unit tests and the
  /// throttle controller read it).
  const TagAdmissionLedger& ledger() const noexcept { return *ledger_; }
  /// Full-snapshot frames the replication shipper has sent (a caught-up
  /// follower riding a checkpoint must not bump this).
  uint64_t repl_snapshot_frames() const noexcept {
    return shipper_ ? shipper_->snapshot_frames() : 0;
  }

  /// Become the (new) primary: stops tailing the old one, bumps the
  /// fencing token on every shard, unfences, and best-effort FENCEs the
  /// old primary over the replication connection. Also un-fences a
  /// fenced ex-primary (re-promotion). Returns the new token. Safe from
  /// any thread (the PROMOTE op and sketchd's SIGUSR1 both land here).
  Result<uint64_t> Promote();

  /// True while this server refuses client writes with FENCED (follower
  /// role, or a primary that observed a newer fencing token).
  bool writes_fenced() const noexcept {
    return writes_fenced_.load(std::memory_order_relaxed);
  }

 private:
  class EventLoop;
  struct Conn;
  struct IngestRun;

  /// One staged INGEST/MERGE waiting for a shard committer. Lives in
  /// its run's entries array (address-stable once staged); the shard
  /// queue holds pointers.
  struct PendingIngest {
    WalRecord record;  // moved into the commit batch
    /// A MERGE payload decoded at validation, merged by the committer
    /// as is (never decoded twice); empty for an INGEST value.
    std::optional<DDSketch> sketch;
    Status result;
    uint64_t wal_offset = 0;
    uint64_t bytes = 0;  // admission-budget charge; 0 = never admitted
    uint32_t tag_id = 0; // ledger the charge (and refund) belongs to
    uint64_t retry_after_ms = 0;  // BUSY hint carried to the response
    bool done = false;
    IngestRun* run = nullptr;  // completion rendezvous
  };

  /// One shard's staging queue and committer. The shard's
  /// DurableSketchStore itself lives in store_ (same index), behind the
  /// store's own per-shard lock.
  struct Shard {
    std::mutex queue_mu;
    std::condition_variable queue_cv;  // wakes this shard's committer
    std::deque<PendingIngest*> queue;
    bool stopping = false;        // guarded by queue_mu
    uint64_t batch_commits = 0;   // guarded by queue_mu
    /// Sticky first commit error (guarded by queue_mu). After a batch
    /// commit fails this shard's durability substrate is suspect — and
    /// if the WAL repair failed its log is torn, where further appends
    /// would be silently dropped by recovery — so this shard's ingest
    /// path fail-stops: every later INGEST/MERGE routed here is refused
    /// with this status. Other shards, queries, STATS, and CHECKPOINT
    /// keep working.
    Status commit_error;

    std::thread committer;

    /// Written by the checkpoint scheduler only; read by STATS.
    std::atomic<uint64_t> background_checkpoints{0};
  };

  SketchServer(SketchServerOptions options, ShardedDurableStore store);

  /// Handles QUERY / CHECKPOINT / STATS on a loop thread (thread-safe:
  /// the store takes its per-shard locks itself).
  Response HandleNonIngest(const Request& request);
  /// Fills the v4 latency rows: merges every event loop's per-op
  /// latency sketches (ConcurrentDDSketch snapshots, safe concurrent
  /// with the loops' adds) and extracts the STATS percentiles.
  void FillOpLatencies(StoreStats* stats) const;
  /// Validates, admission-checks, and stages one run of INGEST/MERGE
  /// requests across the owning shards' queues. Returns true when the
  /// run is already complete (everything refused at validation,
  /// admission, or staging) — the caller responds inline; otherwise at
  /// least one committer owes a completion and will post the run back
  /// to its event loop.
  bool StageIngestRun(IngestRun* run);
  void CommitLoop(size_t shard_index);
  /// Drains up to commit_batch pending entries from shard `k`, commits
  /// them with one fsync, and posts completed runs back to their event
  /// loops. Called with the shard's queue_mu held; returns with it held.
  void CommitOneBatch(size_t shard_index, std::unique_lock<std::mutex>* lk);
  /// The background checkpoint scheduler: polls every shard's WAL size
  /// and age against the configured triggers. A shard's age clock
  /// restarts whenever its epoch moves (any checkpoint, a promotion).
  void CheckpointLoop();
  /// Validates a SUBSCRIBE request (role, fencing token, position
  /// count) and builds its response; called on the loop thread before
  /// the connection is handed to the shipper. A subscriber announcing a
  /// newer token than ours fences this server first.
  Response PrepareSubscribe(const Request& request);
  /// Sticky-fences every shard against `observed_token` and flips the
  /// fast-path flag (the shipper's on_fence callback).
  void FenceSelf(uint64_t observed_token);
  /// The FENCED refusal of a client write on a follower or a fenced
  /// ex-primary; `follower_hint` completes "this server is a follower; ".
  Status FencedRefusal(const char* follower_hint) const;
  /// True when either background-checkpoint trigger is configured.
  bool SchedulerEnabled() const noexcept {
    return options_.checkpoint_wal_bytes > 0 ||
           options_.checkpoint_interval_ms > 0;
  }

  /// Registers `tag` in the ledger and ensures its latency slot exists;
  /// returns the tag id (SET_TAG handling on a loop thread), or nullopt
  /// when the tag table is full (the connection keeps its current tag).
  std::optional<uint32_t> RegisterTag(std::string_view tag);
  /// Records `n` acked ingest/merge latencies of `us` microseconds into
  /// the tag's cumulative + window sketches (FinishRun, loop threads).
  void RecordTagAckLatency(uint32_t tag_id, double us, size_t n);
  /// The tail-latency throttle controller: every tick, drain each tag's
  /// latency window; a tag whose p99 breaches tag_p99_target_us has its
  /// borrowable share halved, a recovering tag decays back toward 1.
  void ThrottleLoop();

  SketchServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::optional<ShardedDurableStore> store_;
  /// One entry per store shard; unique_ptr for address stability (the
  /// committer threads hold pointers into it).
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The event-loop pool. Loop 0 owns the listener; accepted
  /// connections are distributed round-robin.
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};

  // Admission control: the per-tag staged-bytes ledger (v7) plus
  // serving counters (relaxed atomics; STATS reads are advisory).
  std::unique_ptr<TagAdmissionLedger> ledger_;
  /// Per-tag ack-latency sketches, indexed by ledger tag id. The vector
  /// grows under tag_latency_mu_; the per-tag object is stable once
  /// created and has its own lock.
  struct TagLatency;
  mutable std::mutex tag_latency_mu_;
  std::vector<std::unique_ptr<TagLatency>> tag_latency_;
  TagLatency* TagLatencyFor(uint32_t tag_id);
  std::atomic<uint64_t> busy_rejections_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};

  // Replication (v5). The shipper always exists (any primary may gain
  // subscribers); the follower only when started with role=follower.
  std::unique_ptr<ReplicationShipper> shipper_;
  std::unique_ptr<ReplicationFollower> follower_;
  /// Loop-thread fast path for the FENCED refusal in StageIngestRun;
  /// the durable truth lives in the shard LOCK files.
  std::atomic<bool> writes_fenced_{false};
  /// Role for error messages ("follower" vs "fenced"); flips on Promote.
  std::atomic<bool> role_follower_{false};
  std::mutex promote_mu_;  // serializes Promote() calls

  std::mutex scheduler_mu_;
  std::condition_variable scheduler_cv_;
  bool scheduler_stop_ = false;  // guarded by scheduler_mu_
  std::thread checkpoint_thread_;

  std::mutex throttle_mu_;
  std::condition_variable throttle_cv_;
  bool throttle_stop_ = false;  // guarded by throttle_mu_
  std::thread throttle_thread_;

  bool stopped_ = false;  // Stop() ran to completion (main thread only)
};

}  // namespace dd

#endif  // DDSKETCH_SERVER_SERVER_H_
