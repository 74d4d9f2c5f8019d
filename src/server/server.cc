#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/concurrent.h"
#include "core/ddsketch.h"
#include "server/net.h"
#include "timeseries/wal.h"

namespace dd {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

bool IsIngestOp(Request::Op op) {
  return op == Request::Op::kIngest || op == Request::Op::kMerge;
}

/// Moves the series and payload out of `request` (only its op is read
/// after staging, to label the response).
WalRecord ToWalRecord(Request&& request) {
  WalRecord record;
  record.series = std::move(request.series);
  record.timestamp = request.timestamp;
  if (request.op == Request::Op::kIngest) {
    record.type = WalRecord::Type::kIngestValue;
    record.value = request.value;
  } else {
    record.type = WalRecord::Type::kIngestSketch;
    record.payload = std::move(request.payload);
  }
  return record;
}

/// Fixed per-record charge against the staged-bytes budget on top of the
/// variable series/payload bytes: queue node, WalRecord struct, response
/// slot. Keeps tiny records from being "free" under admission control.
constexpr uint64_t kStagedRecordOverhead = 64;

/// The throttle controller ignores a tag's latency window below this
/// many samples — a handful of acks is noise, not a p99.
constexpr uint64_t kThrottleMinSamples = 32;

/// The latency row a non-ingest request's ack is recorded into. Ingests
/// and merges are routed by their per-entry outcome instead (a BUSY
/// refusal lands in the BUSY row, see FinishRun).
LatencyOp NonIngestLatencyOp(Request::Op op) {
  switch (op) {
    case Request::Op::kQuery:
      return LatencyOp::kQuery;
    case Request::Op::kCheckpoint:
    case Request::Op::kCompact:  // a compact IS a checkpoint with aging
      return LatencyOp::kCheckpoint;
    default:
      return LatencyOp::kStats;
  }
}

/// The minimum epoch across shards: the directory's conservative
/// generation, reported by CHECKPOINT, COMPACT and STATS.
uint64_t MinEpoch(const std::vector<ShardedDurableStore::ShardUsage>& usage) {
  uint64_t epoch = usage[0].epoch;
  for (const auto& shard : usage) epoch = std::min(epoch, shard.epoch);
  return epoch;
}

}  // namespace

/// One staged pipelined run of INGEST/MERGE requests from a single
/// connection. Heap-allocated and owned by the Conn; shard committers
/// hold pointers into `entries` (sized once, never reallocated) and
/// decrement `remaining`, and whichever committer finishes last posts
/// the run back to `loop`. While a run is in flight its connection is
/// not read — one run per connection at a time.
struct SketchServer::IngestRun {
  EventLoop* loop = nullptr;
  Conn* conn = nullptr;
  /// When the run's first request was fully framed; every entry's ack
  /// latency is measured from here (the requests of one run arrive in
  /// one buffered burst, so a per-entry stamp would add clock reads
  /// without adding information).
  TimePoint start{};
  std::vector<Request> requests;
  std::vector<PendingIngest> entries;  // parallel to requests
  /// Outstanding completions: one per staged entry, plus one staging
  /// sentinel held by the event loop until every entry is routed (so a
  /// committer can never see the count hit zero mid-staging).
  std::atomic<size_t> remaining{0};
};

/// One client connection, owned by exactly one event loop and only ever
/// touched from that loop's thread.
struct SketchServer::Conn {
  explicit Conn(int fd_in) : fd(fd_in), io(fd_in) {}

  int fd;
  FramedConn io;
  bool hello_done = false;
  bool saw_eof = false;
  /// fd closed and deregistered. A closed Conn with `run` set is a
  /// zombie: it stays alive (committers point into the run's entries)
  /// until the completion arrives, then is destroyed.
  bool closed = false;
  /// Admission tag every INGEST/MERGE on this connection is charged to
  /// (ledger id; 0 = "default" until a SET_TAG arrives).
  uint32_t tag_id = TagAdmissionLedger::kDefaultTagId;
  std::unique_ptr<IngestRun> run;  // staged run in flight (reads paused)
  bool have_deferred = false;
  std::string deferred_body;  // non-ingest frame parsed mid-run collection
  /// When the deferred frame was parsed: its ack latency must include
  /// the wait behind the run it deferred to.
  TimePoint deferred_stamp{};
  TimePoint last_activity{};
  /// Deadline for the pending unit of I/O (hello, partial frame, unread
  /// responses) to COMPLETE. Armed when the unit starts; byte-at-a-time
  /// progress does not push it back, which is what defeats a slow
  /// loris. Zero = no unit pending.
  TimePoint stall_deadline{};
};

/// One tag's ack-latency instrument (v7): a cumulative sketch feeding
/// the per-tag STATS percentiles and a window sketch the throttle
/// controller drains every tick. Guarded by its own mutex — loop
/// threads Add one value per finished run, contending only with runs
/// of the same tag.
struct SketchServer::TagLatency {
  TagLatency(DDSketch cumulative_in, DDSketch window_in)
      : cumulative(std::move(cumulative_in)), window(std::move(window_in)) {}

  std::mutex mu;
  DDSketch cumulative;
  DDSketch window;
};

/// One epoll event-loop thread. Owns a set of connections; loop 0 also
/// owns the listening socket and distributes accepted connections
/// round-robin over all loops. Cross-thread input (adopted fds from the
/// accepting loop, completed runs from committers, stop requests)
/// arrives through mutex-guarded queues plus an eventfd wake-up; all
/// connection state is then handled on the loop thread only.
class SketchServer::EventLoop {
 public:
  EventLoop(SketchServer* server, int listen_fd)
      : server_(server), listen_fd_(listen_fd) {}
  ~EventLoop() {
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Status Init() {
    auto epoll = Epoll::Create();
    if (!epoll.ok()) return epoll.status();
    epoll_.emplace(std::move(epoll).value());
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::Internal("eventfd: " + std::string(std::strerror(errno)));
    }
    DD_RETURN_IF_ERROR(epoll_->Add(wake_fd_, EPOLLIN, &wake_tag_));
    if (listen_fd_ >= 0) {
      DD_RETURN_IF_ERROR(epoll_->Add(listen_fd_, EPOLLIN, &listen_tag_));
    }
    // Self-instrumentation (v4): one latency sketch per LatencyOp.
    // num_shards = 1 because only this loop's thread Adds (an
    // uncontended lock, ~sketch-Add cost); the STATS handler — possibly
    // another loop's thread — Snapshot()s concurrently, which is what
    // ConcurrentDDSketch exists for. Create() also validates
    // --latency-alpha, so a bad alpha fails Start() instead of crashing
    // a loop.
    DDSketchConfig latency_config;
    latency_config.relative_accuracy = server_->options_.latency_alpha;
    latency_rows_.reserve(kNumLatencyOps);
    for (size_t i = 0; i < kNumLatencyOps; ++i) {
      auto sketch = ConcurrentDDSketch::Create(latency_config, 1);
      if (!sketch.ok()) return sketch.status();
      latency_rows_.push_back(std::move(sketch).value());
    }
    return Status::OK();
  }

  /// The per-op latency sketch, for the STATS handler's merge.
  const ConcurrentDDSketch& latency_row(size_t op) const {
    return latency_rows_[op];
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void RequestStop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Hands a freshly accepted fd to this loop (called by the accepting
  /// loop's thread).
  void AdoptConn(int fd) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      adopted_fds_.push_back(fd);
    }
    Wake();
  }

  /// Called by the shard committer that completed the run's last entry.
  void PostCompletion(IngestRun* run) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      completions_.push_back(run);
    }
    Wake();
  }

  /// After Join: closes fds adopted too late for the loop to see them.
  void CloseLeftovers() {
    std::lock_guard<std::mutex> lk(mu_);
    for (int fd : adopted_fds_) ::close(fd);
    adopted_fds_.clear();
  }

 private:
  /// Records one ack latency (microseconds, measured `start` → `now`)
  /// into this loop's row for `op`. The floor keeps a sub-tick
  /// measurement out of the sketch's zero bucket, where it would stop
  /// counting toward the percentiles' log buckets.
  void RecordLatency(LatencyOp op, TimePoint start, TimePoint now) {
    const double us =
        std::chrono::duration<double, std::micro>(now - start).count();
    latency_rows_[static_cast<size_t>(op)].Add(std::max(us, 1e-3));
  }

  void Wake() {
    const uint64_t one = 1;
    const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;  // EAGAIN just means a wake-up is already pending
  }

  void Run() {
    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    TimePoint last_sweep = Clock::now();
    for (;;) {
      auto wait = epoll_->Wait(events, kMaxEvents, 50);
      const int n_events = wait.ok() ? wait.value() : 0;
      std::vector<int> adopted;
      std::vector<IngestRun*> completed;
      bool stop = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        adopted.swap(adopted_fds_);
        completed.swap(completions_);
        stop = stop_;
      }
      for (int i = 0; i < n_events; ++i) {
        void* tag = events[i].data.ptr;
        if (tag == &wake_tag_) {
          uint64_t v = 0;
          while (::read(wake_fd_, &v, sizeof(v)) > 0) {
          }
        } else if (tag == &listen_tag_) {
          AcceptNew();
        } else {
          HandleEvent(static_cast<Conn*>(tag), events[i].events);
        }
      }
      for (IngestRun* run : completed) HandleRunComplete(run);
      for (int fd : adopted) {
        if (stop || shutdown_started_) {
          ::close(fd);
        } else {
          AddConn(fd);
        }
      }
      if (stop && !shutdown_started_) BeginShutdown();
      const TimePoint now = Clock::now();
      if (!shutdown_started_ &&
          now - last_sweep >= std::chrono::milliseconds(50)) {
        last_sweep = now;
        SweepDeadlines();
      }
      graveyard_.clear();
      if (shutdown_started_ && conns_.empty()) return;
    }
  }

  void AcceptNew() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // EAGAIN (drained) or the listener is shutting down
      }
      server_->connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const size_t pick =
          server_->next_loop_.fetch_add(1, std::memory_order_relaxed);
      EventLoop* target = server_->loops_[pick % server_->loops_.size()].get();
      if (target == this) {
        AddConn(fd);
      } else {
        target->AdoptConn(fd);
      }
    }
  }

  void AddConn(int fd) {
    auto owned = std::make_unique<Conn>(fd);
    Conn* c = owned.get();
    c->last_activity = Clock::now();
    if (!epoll_
             ->Add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c)
             .ok()) {
      ::close(fd);
      return;
    }
    conns_.emplace(c, std::move(owned));
    server_->connections_open_.fetch_add(1, std::memory_order_relaxed);
    ArmDeadline(c);    // the hello is a pending unit from byte zero
    PumpConn(c);       // bytes may have raced ahead of the epoll add
  }

  void HandleEvent(Conn* c, uint32_t ev) {
    if (c->closed) return;
    if (ev & (EPOLLHUP | EPOLLERR)) {
      CloseConn(c, false);
      return;
    }
    if (ev & EPOLLOUT) {
      FlushConn(c);
      if (c->closed) return;
    }
    if (ev & (EPOLLIN | EPOLLRDHUP)) PumpConn(c);
  }

  /// Read side: drain the socket (edge-triggered: one drain per edge),
  /// parse what is buffered, and either respond or stage a run. A
  /// connection with a run in flight is deliberately NOT read — TCP
  /// flow control pushes back on the client — and the missed edges are
  /// recovered by the refill in HandleRunComplete.
  void PumpConn(Conn* c) {
    if (c->closed || c->run) return;
    bool got = false;
    auto alive = c->io.FillFromSocket(&got);
    if (!alive.ok()) {
      CloseConn(c, false);
      return;
    }
    if (!alive.value()) c->saw_eof = true;
    if (got) c->last_activity = Clock::now();
    ProcessBuffered(c);
    if (c->closed) return;
    if (c->saw_eof && !c->run) {
      // Peer is done sending and everything parseable was handled; a
      // leftover partial frame is a mid-frame disconnect either way.
      CloseConn(c, false);
      return;
    }
    ArmDeadline(c);
  }

  void ProcessBuffered(Conn* c) {
    while (!c->closed && !c->run) {
      if (!c->hello_done) {
        auto hello = c->io.TryConsumeHello();
        if (!hello.ok()) {
          CloseConn(c, true);  // garbage or incompatible hello
          return;
        }
        if (!hello.value()) return;  // need more bytes
        c->hello_done = true;
        c->stall_deadline = {};
        c->io.QueueWrite(EncodeHello());
        FlushConn(c);
        continue;
      }
      std::string body;
      TimePoint unit_start;  // instrumentation: request fully framed
      if (c->have_deferred) {
        body = std::move(c->deferred_body);
        c->have_deferred = false;
        unit_start = c->deferred_stamp;
      } else {
        auto got = c->io.NextBufferedFrame(&body);
        if (!got.ok()) {
          CloseConn(c, true);  // corrupt frame / implausible length
          return;
        }
        if (!got.value()) return;  // only a frame prefix buffered
        c->stall_deadline = {};    // a unit completed; restart the clock
        unit_start = Clock::now();
      }
      auto request = DecodeRequest(body);
      if (!request.ok()) {
        CloseConn(c, true);  // CRC passed but body malformed: broken peer
        return;
      }
      if (request.value().op == Request::Op::kSubscribe) {
        HandleSubscribe(c, request.value(), unit_start);
        if (c->closed) return;  // adopted by the shipper (or shed)
        continue;
      }
      if (request.value().op == Request::Op::kSetTag) {
        // Intercepted here (like SUBSCRIBE) because it mutates the
        // Conn: every later ingest on this connection charges the
        // declared tag's ledger.
        Response response;
        response.op = Request::Op::kSetTag;
        const std::string& tag = request.value().tag;
        if (!TagAdmissionLedger::ValidTagName(tag)) {
          response.code = StatusCode::kInvalidArgument;
          response.message = "invalid tag: want 1-64 chars of [A-Za-z0-9._-]";
        } else if (const auto id = server_->RegisterTag(tag)) {
          c->tag_id = *id;
        } else {
          // Table full: refuse distinctly (not BUSY — retrying cannot
          // help) and leave the connection on its current tag, so a
          // junk-tag spray cannot grow server state without bound.
          response.code = StatusCode::kResourceExhausted;
          response.message = "tag table full; connection keeps its current tag";
        }
        c->io.QueueWrite(EncodeResponse(response));
        RecordLatency(LatencyOp::kStats, unit_start, Clock::now());
        FlushConn(c);
        continue;
      }
      if (!IsIngestOp(request.value().op)) {
        c->io.QueueWrite(
            EncodeResponse(server_->HandleNonIngest(request.value())));
        RecordLatency(NonIngestLatencyOp(request.value().op), unit_start,
                      Clock::now());
        FlushConn(c);
        continue;
      }
      // Collect the pipelined run of ingest requests already buffered,
      // so one client's burst becomes one staged group per shard. The
      // cap scales with the shard count (the run is split across shard
      // queues) but is bounded per connection by max_conn_inflight.
      const size_t run_cap = std::max<size_t>(
          1, std::min(server_->options_.commit_batch * server_->shards_.size(),
                      server_->options_.max_conn_inflight));
      auto run = std::make_unique<IngestRun>();
      run->loop = this;
      run->conn = c;
      run->start = unit_start;
      run->requests.push_back(std::move(request).value());
      while (run->requests.size() < run_cap) {
        std::string next;
        auto more = c->io.NextBufferedFrame(&next);
        if (!more.ok()) {
          CloseConn(c, true);
          return;
        }
        if (!more.value()) break;
        c->stall_deadline = {};
        auto next_request = DecodeRequest(next);
        if (!next_request.ok()) {
          CloseConn(c, true);
          return;
        }
        if (!IsIngestOp(next_request.value().op)) {
          // Handle it after the run; keeps responses in request order.
          c->deferred_body = std::move(next);
          c->have_deferred = true;
          c->deferred_stamp = Clock::now();
          break;
        }
        run->requests.push_back(std::move(next_request).value());
      }
      c->run = std::move(run);
      if (server_->StageIngestRun(c->run.get())) {
        FinishRun(c);  // nothing reached a committer: respond inline
      }
      // Otherwise reads stay paused until the completion is posted.
    }
  }

  /// SUBSCRIBE: validate, then hand the socket to the replication
  /// shipper. An OK subscribe takes the connection out of
  /// request/response mode for good, so it must be quiescent — nothing
  /// else buffered in either direction, no deferred frame, no EOF.
  void HandleSubscribe(Conn* c, const Request& request, TimePoint unit_start) {
    Response response = server_->PrepareSubscribe(request);
    if (response.code == StatusCode::kOk &&
        (c->io.buffered_read_bytes() > 0 || c->io.pending_write_bytes() > 0 ||
         c->have_deferred || c->saw_eof)) {
      response = Response{};
      response.op = Request::Op::kSubscribe;
      response.code = StatusCode::kInvalidArgument;
      response.message = "SUBSCRIBE must be the connection's only in-flight "
                         "request";
    }
    RecordLatency(LatencyOp::kStats, unit_start, Clock::now());
    if (response.code != StatusCode::kOk) {
      c->io.QueueWrite(EncodeResponse(response));
      FlushConn(c);
      return;
    }
    // Adopt: deregister the fd WITHOUT closing it and give it to the
    // shipper with the OK response as its first outgoing bytes. The
    // Conn is destroyed at the end of the loop iteration like any
    // closed connection; the fd now belongs to the shipper.
    const int fd = c->fd;
    epoll_->Del(fd);
    c->fd = -1;
    c->closed = true;
    server_->connections_open_.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns_.find(c);
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
    // A subscriber whose fencing token is older than ours last synced
    // under a deposed lineage: its WAL may end in a divergent suffix
    // that was never replicated, so its resume positions cannot be
    // trusted as prefixes of our log. Ignore them — empty positions
    // bootstrap every shard from a snapshot, which discards that
    // suffix. (A follower that merely restarted carries our token in
    // its LOCK files and keeps segment resume.)
    std::vector<std::pair<uint64_t, uint64_t>> positions = request.positions;
    if (request.repl_token < response.repl_token) positions.clear();
    server_->shipper_->AddSubscriber(fd, EncodeResponse(response),
                                     std::move(positions));
  }

  /// Writes the run's responses in request order and releases the run.
  void FinishRun(Conn* c) {
    IngestRun* run = c->run.get();
    std::string out;
    const TimePoint now = Clock::now();
    size_t acked = 0;
    for (size_t i = 0; i < run->requests.size(); ++i) {
      Response response;
      response.op = run->requests[i].op;
      response.code = run->entries[i].result.code();
      response.message = run->entries[i].result.message();
      response.wal_offset = run->entries[i].wal_offset;
      response.retry_after_ms = run->entries[i].retry_after_ms;
      out += EncodeResponse(response);
      // A BUSY refusal's ack is the cost of saying no, not an ingest
      // latency; it gets its own row. Only committed entries count as
      // acked for the tag sketch — a validation failure's round trip
      // would skew the p99 the throttle controller judges by.
      const bool busy = response.code == StatusCode::kBusy;
      if (run->entries[i].result.ok()) ++acked;
      RecordLatency(busy ? LatencyOp::kBusy
                         : (response.op == Request::Op::kIngest
                                ? LatencyOp::kIngest
                                : LatencyOp::kMerge),
                    run->start, now);
    }
    // The tag's own ack-latency sketch (v7): the instrument the
    // throttle controller and the per-tag STATS rows read. One value
    // for the whole run — every entry shares the run's stamp.
    if (acked > 0) {
      const double us =
          std::chrono::duration<double, std::micro>(now - run->start).count();
      server_->RecordTagAckLatency(c->tag_id, us, acked);
    }
    c->run.reset();
    c->last_activity = Clock::now();
    c->io.QueueWrite(out);
    FlushConn(c);
  }

  void HandleRunComplete(IngestRun* run) {
    Conn* c = run->conn;
    if (c->closed) {
      // Zombie: the peer is gone; the run only kept the Conn alive so
      // the committers' entry pointers stayed valid.
      auto it = conns_.find(c);
      graveyard_.push_back(std::move(it->second));
      conns_.erase(it);
      return;
    }
    FinishRun(c);
    if (c->closed) return;
    PumpConn(c);  // recover read edges consumed while the run was staged
  }

  void FlushConn(Conn* c) {
    if (c->closed) return;
    auto drained = c->io.Flush();
    if (!drained.ok()) {
      CloseConn(c, false);
      return;
    }
    ArmDeadline(c);
  }

  /// Arms the stall deadline when a unit of I/O is pending and no
  /// deadline is running; clears it when nothing is pending. Never
  /// pushes a running deadline back (progress trickles don't pay rent).
  void ArmDeadline(Conn* c) {
    const bool unit_pending =
        !c->run && (!c->hello_done || c->io.buffered_read_bytes() > 0 ||
                    c->io.pending_write_bytes() > 0);
    if (!unit_pending) {
      c->stall_deadline = {};
      return;
    }
    const int64_t stall_ms = server_->options_.stall_timeout_ms;
    if (stall_ms > 0 && c->stall_deadline == TimePoint{}) {
      c->stall_deadline = Clock::now() + std::chrono::milliseconds(stall_ms);
    }
  }

  void SweepDeadlines() {
    const TimePoint now = Clock::now();
    const int64_t idle_ms = server_->options_.idle_timeout_ms;
    std::vector<Conn*> doomed;
    for (auto& entry : conns_) {
      Conn* c = entry.first;
      if (c->closed) continue;
      if (c->stall_deadline != TimePoint{} && now >= c->stall_deadline) {
        doomed.push_back(c);
        continue;
      }
      if (idle_ms > 0 && !c->run && c->stall_deadline == TimePoint{} &&
          now - c->last_activity >= std::chrono::milliseconds(idle_ms)) {
        doomed.push_back(c);
      }
    }
    for (Conn* c : doomed) CloseConn(c, true);
  }

  /// Deregisters and closes the fd. `shed` marks a policy close
  /// (deadline, protocol violation, overload) for the counters. The
  /// Conn is destroyed at the end of the loop iteration — or, with a
  /// run in flight, after the completion arrives (zombie).
  void CloseConn(Conn* c, bool shed) {
    if (c->closed) return;
    c->closed = true;
    // Count first: the peer may observe EOF as soon as the fd closes.
    server_->connections_open_.fetch_sub(1, std::memory_order_relaxed);
    if (shed) {
      server_->connections_shed_.fetch_add(1, std::memory_order_relaxed);
    }
    epoll_->Del(c->fd);
    ::close(c->fd);
    c->fd = -1;
    if (!c->run) {
      auto it = conns_.find(c);
      graveyard_.push_back(std::move(it->second));
      conns_.erase(it);
    }
  }

  void BeginShutdown() {
    shutdown_started_ = true;
    if (listen_fd_ >= 0) epoll_->Del(listen_fd_);
    std::vector<Conn*> all;
    all.reserve(conns_.size());
    for (auto& entry : conns_) all.push_back(entry.first);
    for (Conn* c : all) CloseConn(c, false);
    // Zombies stay in conns_; Run() exits once their completions drain.
  }

  SketchServer* const server_;
  const int listen_fd_;  // -1: this loop does not accept
  std::optional<Epoll> epoll_;
  int wake_fd_ = -1;
  std::thread thread_;

  std::mutex mu_;
  bool stop_ = false;                    // guarded by mu_
  std::vector<int> adopted_fds_;         // guarded by mu_
  std::vector<IngestRun*> completions_;  // guarded by mu_

  /// v4 self-instrumentation: ack-latency sketches, indexed by
  /// LatencyOp. Written by this loop's thread only; read (Snapshot) by
  /// whichever loop serves STATS.
  std::vector<ConcurrentDDSketch> latency_rows_;

  // Loop-thread-only state.
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns_;
  std::vector<std::unique_ptr<Conn>> graveyard_;
  bool shutdown_started_ = false;
  char listen_tag_ = 0;  // epoll data.ptr markers
  char wake_tag_ = 0;
};

Result<std::unique_ptr<SketchServer>> SketchServer::Start(
    const std::string& data_dir, const SketchServerOptions& options) {
  if (options.commit_batch == 0) {
    return Status::InvalidArgument("commit_batch must be at least 1");
  }
  if (options.max_conn_inflight == 0) {
    return Status::InvalidArgument("max_conn_inflight must be at least 1");
  }
  if (options.tag_p99_target_us < 0) {
    return Status::InvalidArgument("tag_p99_target_us must be >= 0");
  }
  if (options.tag_throttle_interval_ms <= 0) {
    return Status::InvalidArgument("tag_throttle_interval_ms must be >= 1");
  }
  for (const auto& [tag, weight] : options.tag_weights) {
    if (!TagAdmissionLedger::ValidTagName(tag)) {
      return Status::InvalidArgument(
          "invalid tag in tag budget: '" + tag +
          "' (want 1-64 chars of [A-Za-z0-9._-])");
    }
    if (weight == 0) {
      return Status::InvalidArgument("tag weight must be >= 1 for '" + tag +
                                     "'");
    }
  }
  if (options.tag_weights.size() + 1 > TagAdmissionLedger::kMaxTags) {
    return Status::InvalidArgument(
        "too many tags in tag budget (max " +
        std::to_string(TagAdmissionLedger::kMaxTags - 1) +
        " plus the built-in default)");
  }
  if (options.durable.role == StoreRole::kFollower &&
      (options.follow_host.empty() || options.follow_port == 0)) {
    return Status::InvalidArgument(
        "follower role requires a primary to follow (--follow host:port)");
  }
  ShardedDurableStoreOptions store_options;
  store_options.durable = options.durable;
  store_options.shards = options.shards;
  auto store = ShardedDurableStore::Open(data_dir, store_options);
  if (!store.ok()) return store.status();
  // Private constructor + threads capturing `this` mean the server must
  // live at a stable address: build it on the heap before binding.
  std::unique_ptr<SketchServer> server(
      new SketchServer(options, std::move(store).value()));
  uint16_t bound_port = 0;
  auto listen_fd = ListenTcp(options.host, options.port, &bound_port);
  if (!listen_fd.ok()) return listen_fd.status();
  server->listen_fd_ = listen_fd.value();
  server->port_ = bound_port;
  DD_RETURN_IF_ERROR(SetNonBlocking(server->listen_fd_));
  size_t n_loops = options.event_loops;
  if (n_loops == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    n_loops = std::min<size_t>(4, std::max<size_t>(1, hw / 2));
  }
  for (size_t i = 0; i < n_loops; ++i) {
    server->loops_.push_back(std::make_unique<EventLoop>(
        server.get(), i == 0 ? server->listen_fd_ : -1));
    DD_RETURN_IF_ERROR(server->loops_.back()->Init());
  }
  // Replication plumbing before any committer starts (committers route
  // their completion handshakes through the shipper). The store lives
  // behind the optional for the server's whole life, so the pointer the
  // replication threads hold stays valid until Stop() has joined them.
  ReplicationShipperOptions ship_options;
  ship_options.ack_timeout_ms = options.repl_ack_timeout_ms;
  ship_options.heartbeat_ms = options.repl_heartbeat_ms;
  ship_options.snapshot_chunk_bytes = options.repl_snapshot_chunk_bytes;
  server->shipper_ = std::make_unique<ReplicationShipper>(
      &*server->store_, ship_options,
      [s = server.get()](uint64_t token) { s->FenceSelf(token); });
  server->shipper_->Start();
  server->role_follower_.store(
      options.durable.role == StoreRole::kFollower, std::memory_order_relaxed);
  server->writes_fenced_.store(
      options.durable.role == StoreRole::kFollower ||
          server->store_->FenceState().fenced,
      std::memory_order_relaxed);
  for (size_t k = 0; k < server->shards_.size(); ++k) {
    server->shards_[k]->committer =
        std::thread([s = server.get(), k] { s->CommitLoop(k); });
  }
  if (server->SchedulerEnabled()) {
    server->checkpoint_thread_ =
        std::thread([s = server.get()] { s->CheckpointLoop(); });
  }
  if (options.tag_p99_target_us > 0) {
    server->throttle_thread_ =
        std::thread([s = server.get()] { s->ThrottleLoop(); });
  }
  for (auto& loop : server->loops_) loop->StartThread();
  if (options.durable.role == StoreRole::kFollower) {
    ReplicationFollowerOptions follow_options;
    follow_options.host = options.follow_host;
    follow_options.port = options.follow_port;
    server->follower_ = std::make_unique<ReplicationFollower>(
        &*server->store_, follow_options);
    server->follower_->Start();
  }
  return server;
}

SketchServer::SketchServer(SketchServerOptions options,
                           ShardedDurableStore store)
    : options_(std::move(options)), store_(std::move(store)) {
  ledger_ = std::make_unique<TagAdmissionLedger>(options_.staged_bytes_budget,
                                                 options_.tag_weights);
  shards_.reserve(store_->num_shards());
  for (size_t k = 0; k < store_->num_shards(); ++k) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SketchServer::~SketchServer() { Stop(); }

void SketchServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // 0. Replication first: the follower stops applying, and the shipper
  // drops its subscribers and releases every parked completion — the
  // event loops (step 1) cannot drain their in-flight runs while acks
  // sit parked, and later commits complete inline once the shipper is
  // stopped.
  if (follower_) follower_->Stop();
  if (shipper_) shipper_->Stop();
  // 1. Stop the event loops first: they shed every connection, and any
  // in-flight run needs the committers still alive to complete (zombie
  // connections wait inside the loop for their completions).
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  for (auto& loop : loops_) loop->CloseLeftovers();
  // 2. Committers: drain every staged record (each was admitted before
  // the loops stopped), then exit.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->queue_mu);
    shard->stopping = true;
  }
  for (auto& shard : shards_) shard->queue_cv.notify_all();
  // joinable() guards: Start() can fail between constructing the server
  // and launching the threads (e.g. bind error), and the unique_ptr's
  // destructor still runs Stop().
  for (auto& shard : shards_) {
    if (shard->committer.joinable()) shard->committer.join();
  }
  {
    std::lock_guard<std::mutex> lk(scheduler_mu_);
    scheduler_stop_ = true;
  }
  scheduler_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  {
    std::lock_guard<std::mutex> lk(throttle_mu_);
    throttle_stop_ = true;
  }
  throttle_cv_.notify_all();
  if (throttle_thread_.joinable()) throttle_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  store_.reset();  // releases every shard's data-dir lock for reopeners
}

uint64_t SketchServer::batch_commits() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->queue_mu);
    total += shard->batch_commits;
  }
  return total;
}

uint64_t SketchServer::background_checkpoints() const noexcept {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->background_checkpoints.load(std::memory_order_relaxed);
  }
  return total;
}

bool SketchServer::StageIngestRun(IngestRun* run) {
  const size_t n = run->requests.size();
  run->entries.resize(n);  // address-stable from here on
  // A follower or fenced ex-primary refuses every write up front,
  // before validation or admission (mirrors the BUSY refusal shape:
  // never staged, never acknowledged). The durable gate in the store
  // backstops this fast path if a fence races in after the check.
  if (writes_fenced_.load(std::memory_order_relaxed)) {
    const Status refusal = FencedRefusal("writes must go to the primary");
    for (size_t i = 0; i < n; ++i) {
      run->entries[i].run = run;
      run->entries[i].result = refusal;
      run->entries[i].done = true;
    }
    return true;
  }
  std::vector<std::vector<PendingIngest*>> by_shard(shards_.size());
  size_t staged = 0;
  for (size_t i = 0; i < n; ++i) {
    PendingIngest& entry = run->entries[i];
    entry.run = run;
    entry.record = ToWalRecord(std::move(run->requests[i]));
    // Validation reads only the store's immutable configuration
    // (prototype sketch parameters), so it runs lock-free on the loop
    // thread — a bad request is rejected here and never poisons or
    // stalls a committer batch. A MERGE payload is decoded here, once;
    // the committer merges the decoded sketch.
    entry.result = store_->ValidateRecord(entry.record, &entry.sketch);
    if (!entry.result.ok()) {
      entry.done = true;
      continue;
    }
    // Admission control: charge the connection's tag ledger before the
    // record can queue. A record that would blow the tag's allowance
    // (floor + borrowable pool share) is refused with BUSY — never
    // staged, never acknowledged — so one flooding tenant exhausts its
    // own budget while every other tag keeps its floor. The refusal
    // carries the tag's refill-derived retry hint. A MERGE entry holds
    // its decoded sketch until commit, and the client picks the store
    // type and bucket bound, so a few payload bytes can decode into a
    // wide dense store: the charge is the larger of the two.
    const uint64_t held = std::max<uint64_t>(
        entry.record.payload.size(),
        entry.sketch ? entry.sketch->size_in_bytes() : 0);
    const uint64_t bytes =
        entry.record.series.size() + held + kStagedRecordOverhead;
    entry.tag_id = run->conn->tag_id;
    uint64_t hint_ms = 0;
    if (!ledger_->TryAdmit(entry.tag_id, bytes, &hint_ms)) {
      entry.result =
          Status::Busy("staged-bytes budget exceeded; retry with backoff");
      entry.retry_after_ms = hint_ms;
      entry.done = true;
      busy_rejections_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    entry.bytes = bytes;
    by_shard[store_->ShardOf(entry.record.series)].push_back(&entry);
    ++staged;
  }
  if (staged == 0) return true;  // everything refused: respond inline
  // One completion per staged entry plus the staging sentinel: a
  // committer finishing instantly can never drive the count to zero
  // while entries are still being routed below.
  run->remaining.store(staged + 1, std::memory_order_relaxed);
  for (size_t k = 0; k < by_shard.size(); ++k) {
    if (by_shard[k].empty()) continue;
    Shard& shard = *shards_[k];
    std::lock_guard<std::mutex> lk(shard.queue_mu);
    if (shard.stopping || !shard.commit_error.ok()) {
      // Refused at staging time (shutdown or a fail-stopped shard):
      // complete on the spot and refund the admission charge.
      const Status status =
          shard.stopping ? Status::ResourceExhausted("server is shutting down")
                         : shard.commit_error;
      for (PendingIngest* entry : by_shard[k]) {
        entry->result = status;
        entry->done = true;
        ledger_->Refund(entry->tag_id, entry->bytes);
        entry->bytes = 0;
      }
      run->remaining.fetch_sub(by_shard[k].size(), std::memory_order_acq_rel);
      continue;
    }
    for (PendingIngest* entry : by_shard[k]) {
      shard.queue.push_back(entry);
    }
    shard.queue_cv.notify_all();
  }
  // Drop the sentinel. If it was the last count, every staged entry was
  // already completed (all groups refused, or the committers raced
  // ahead) and no completion will be posted — finish inline.
  return run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

Response SketchServer::HandleNonIngest(const Request& request) {
  Response response;
  response.op = request.op;
  auto fail = [&response](const Status& status) {
    response.code = status.code();
    response.message = status.message();
    return response;
  };
  switch (request.op) {
    case Request::Op::kIngest:
    case Request::Op::kMerge:
      return fail(Status::Internal("ingest op routed to HandleNonIngest"));
    case Request::Op::kQuery: {
      // A series lives on exactly one shard (pinned hash, immutable
      // count), so the read locks only the owner — queries never
      // contend with the other shards' committers or checkpoints.
      auto merged =
          store_->QueryRange(request.series, request.start, request.end);
      if (!merged.ok()) return fail(merged.status());
      response.values.reserve(request.quantiles.size());
      for (double q : request.quantiles) {
        auto value = merged.value().Quantile(q);
        if (!value.ok()) return fail(value.status());
        response.values.push_back(value.value());
      }
      return response;
    }
    case Request::Op::kCheckpoint: {
      if (writes_fenced_.load(std::memory_order_relaxed)) {
        return fail(FencedRefusal("checkpoints run on the primary"));
      }
      if (Status status = store_->Checkpoint(); !status.ok()) {
        return fail(status);
      }
      response.epoch = MinEpoch(store_->Usage());
      return response;
    }
    case Request::Op::kCompact: {
      if (writes_fenced_.load(std::memory_order_relaxed)) {
        return fail(FencedRefusal("compaction runs on the primary"));
      }
      // The explicit fold honours the caller's clock (clamped to the
      // data horizon inside the store); the checkpoint that persists it
      // also ages anything eligible by data time.
      auto compacted = store_->Compact(request.compact_now);
      if (!compacted.ok()) return fail(compacted.status());
      response.compacted = compacted.value();
      response.epoch = MinEpoch(store_->Usage());
      return response;
    }
    case Request::Op::kStats: {
      StoreStats& stats = response.stats;
      const std::vector<ShardedDurableStore::ShardUsage> usage =
          store_->Usage();
      stats.epoch = MinEpoch(usage);
      // v5: the server's role is shard 0's (every shard shares it).
      stats.role = usage[0].role == StoreRole::kFollower ? 1 : 0;
      stats.shards.reserve(shards_.size());
      for (size_t k = 0; k < shards_.size(); ++k) {
        const ShardedDurableStore::ShardUsage& shard = usage[k];
        ShardStats row;
        row.shard = k;
        row.num_series = shard.num_series;
        row.wal_bytes = shard.wal_offset;
        row.epoch = shard.epoch;
        row.background_checkpoints =
            shards_[k]->background_checkpoints.load(std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(shards_[k]->queue_mu);
          row.batch_commits = shards_[k]->batch_commits;
        }
        stats.size_in_bytes += shard.size_in_bytes;
        // v6: per-level ladder rows, summed across shards (all shards
        // share one ladder — pinned by each shard's snapshot).
        if (stats.levels.size() < shard.levels.size()) {
          stats.levels.resize(shard.levels.size());
        }
        for (size_t i = 0; i < shard.levels.size(); ++i) {
          const LevelUsage& level = shard.levels[i];
          stats.levels[i].interval_seconds =
              static_cast<uint64_t>(level.interval_seconds);
          stats.levels[i].retention_seconds =
              static_cast<uint64_t>(level.retention_seconds);
          stats.levels[i].num_intervals += level.num_intervals;
          stats.levels[i].rollup_merges += level.rollup_merges;
          stats.levels[i].retained_bytes += level.retained_bytes;
          stats.num_intervals += level.num_intervals;
        }
        // v5: fencing state, aggregated conservatively (max token; one
        // fenced shard fences the server).
        stats.fence_token = std::max(stats.fence_token, shard.fence_token);
        if (shard.fenced) stats.fenced = 1;
        stats.num_series += row.num_series;
        stats.wal_offset += row.wal_bytes;
        stats.batch_commits += row.batch_commits;
        stats.background_checkpoints += row.background_checkpoints;
        stats.shards.push_back(row);
      }
      stats.connections_open =
          connections_open_.load(std::memory_order_relaxed);
      stats.connections_accepted =
          connections_accepted_.load(std::memory_order_relaxed);
      stats.connections_shed =
          connections_shed_.load(std::memory_order_relaxed);
      stats.busy_rejections =
          busy_rejections_.load(std::memory_order_relaxed);
      stats.staged_bytes = ledger_->total_staged();
      // v7: one row per admission tag — ledger state plus the tag's own
      // ack-latency percentiles (the throttle controller's instrument).
      for (const TagLedgerEntry& row : ledger_->Snapshot()) {
        TagStatsRow tag_row;
        tag_row.tag = row.tag;
        tag_row.floor_bytes = row.floor_bytes;
        tag_row.budget_bytes = row.budget_bytes;
        tag_row.staged_bytes = row.staged_bytes;
        tag_row.busy_rejections = row.busy_rejections;
        tag_row.throttle_permille =
            static_cast<uint64_t>(row.borrow_share * 1000.0 + 0.5);
        if (TagLatency* lat = TagLatencyFor(row.id)) {
          std::lock_guard<std::mutex> lat_lk(lat->mu);
          tag_row.count = lat->cumulative.count();
          if (tag_row.count > 0) {
            tag_row.p50_us = lat->cumulative.QuantileOrNaN(0.5);
            tag_row.p99_us = lat->cumulative.QuantileOrNaN(0.99);
            tag_row.p999_us = lat->cumulative.QuantileOrNaN(0.999);
          }
        }
        stats.tags.push_back(std::move(tag_row));
      }
      stats.repl_subscribers = shipper_ ? shipper_->subscribers() : 0;
      stats.repl_shipped_bytes = shipper_ ? shipper_->shipped_bytes() : 0;
      if (follower_) {
        stats.repl_applied_bytes = follower_->applied_bytes();
        stats.repl_connected = follower_->connected() ? 1 : 0;
        stats.repl_heartbeat_age_ms = follower_->heartbeat_age_ms();
      }
      FillOpLatencies(&stats);
      return response;
    }
    case Request::Op::kSubscribe:
      // Intercepted on the event loop (the connection is handed to the
      // shipper before this dispatcher runs); reaching here is a bug.
      return fail(Status::Internal("SUBSCRIBE routed to HandleNonIngest"));
    case Request::Op::kSetTag:
      // Intercepted on the event loop (it mutates the Conn's tag);
      // reaching here is a bug.
      return fail(Status::Internal("SET_TAG routed to HandleNonIngest"));
    case Request::Op::kPromote: {
      auto token = Promote();
      if (!token.ok()) return fail(token.status());
      response.repl_token = token.value();
      return response;
    }
  }
  return fail(Status::Internal("unhandled request op"));
}

void SketchServer::FillOpLatencies(StoreStats* stats) const {
  if (loops_.empty()) return;
  for (size_t i = 0; i < kNumLatencyOps; ++i) {
    DDSketch merged = loops_[0]->latency_row(i).Snapshot();
    for (size_t l = 1; l < loops_.size(); ++l) {
      // Every loop built its sketch from the same config, so the merge
      // cannot fail (full mergeability: the result equals one sketch
      // over all loops' latencies).
      (void)merged.MergeFrom(loops_[l]->latency_row(i).Snapshot());
    }
    OpLatencyStats& row = stats->op_latencies[i];
    row.count = merged.count();
    if (row.count == 0) continue;  // empty rows report zeros, never NaN
    row.p50_us = merged.QuantileOrNaN(0.5);
    row.p90_us = merged.QuantileOrNaN(0.9);
    row.p99_us = merged.QuantileOrNaN(0.99);
    row.p999_us = merged.QuantileOrNaN(0.999);
    row.max_us = merged.max();
  }
}

SketchServer::TagLatency* SketchServer::TagLatencyFor(uint32_t tag_id) {
  std::lock_guard<std::mutex> lk(tag_latency_mu_);
  if (tag_latency_.size() <= tag_id) tag_latency_.resize(tag_id + 1);
  if (!tag_latency_[tag_id]) {
    DDSketchConfig config;
    config.relative_accuracy = options_.latency_alpha;
    auto cumulative = DDSketch::Create(config);
    auto window = DDSketch::Create(config);
    // latency_alpha was validated when the event loops built their own
    // sketches at Start; a failure here is unreachable.
    if (!cumulative.ok() || !window.ok()) return nullptr;
    tag_latency_[tag_id] = std::make_unique<TagLatency>(
        std::move(cumulative).value(), std::move(window).value());
  }
  return tag_latency_[tag_id].get();
}

std::optional<uint32_t> SketchServer::RegisterTag(std::string_view tag) {
  const std::optional<uint32_t> id = ledger_->RegisterTag(tag);
  if (id) (void)TagLatencyFor(*id);  // the controller ticks over existing slots
  return id;
}

void SketchServer::RecordTagAckLatency(uint32_t tag_id, double us, size_t n) {
  TagLatency* lat = TagLatencyFor(tag_id);
  if (lat == nullptr || n == 0) return;
  // Same sub-tick floor as the per-loop rows: a value in the sketch's
  // zero bucket would stop counting toward the percentiles.
  const double value = std::max(us, 1e-3);
  std::lock_guard<std::mutex> lk(lat->mu);
  lat->cumulative.Add(value, n);
  lat->window.Add(value, n);
}

void SketchServer::ThrottleLoop() {
  const auto interval = std::chrono::milliseconds(
      std::max<int64_t>(1, options_.tag_throttle_interval_ms));
  const double target_us = static_cast<double>(options_.tag_p99_target_us);
  std::unique_lock<std::mutex> lk(throttle_mu_);
  for (;;) {
    throttle_cv_.wait_for(lk, interval, [this] { return throttle_stop_; });
    if (throttle_stop_) return;
    lk.unlock();
    size_t n_tags = 0;
    {
      std::lock_guard<std::mutex> tags_lk(tag_latency_mu_);
      n_tags = tag_latency_.size();
    }
    for (uint32_t id = 0; id < n_tags; ++id) {
      TagLatency* lat = nullptr;
      {
        std::lock_guard<std::mutex> tags_lk(tag_latency_mu_);
        lat = tag_latency_[id].get();
      }
      if (lat == nullptr) continue;
      // Drain the tag's window: its p99 over the last tick is the
      // controller's whole input (dogfooding the paper's sketch —
      // mergeable, fixed-size, relative-error percentiles).
      uint64_t window_count = 0;
      double window_p99 = 0;
      {
        std::lock_guard<std::mutex> lat_lk(lat->mu);
        window_count = lat->window.count();
        if (window_count > 0) {
          window_p99 = lat->window.QuantileOrNaN(0.99);
          DDSketchConfig config;
          config.relative_accuracy = options_.latency_alpha;
          auto fresh = DDSketch::Create(config);
          if (fresh.ok()) lat->window = std::move(fresh).value();
        }
      }
      const double share = ledger_->borrow_share(id);
      if (window_count >= kThrottleMinSamples && window_p99 > target_us) {
        // Breach: halve the tag's borrowable share. Its floor is
        // untouchable, so a throttled tenant degrades, never starves.
        ledger_->set_borrow_share(id, share * 0.5);
      } else if (share < 1.0 && window_p99 <= target_us) {
        // Recovery: decay back toward full borrowing, additive nudge so
        // a fully-halved share escapes zero-progress multiplication.
        ledger_->set_borrow_share(id, share * 1.25 + 0.01);
      }
    }
    lk.lock();
  }
}

void SketchServer::CommitLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::unique_lock<std::mutex> lk(shard.queue_mu);
  for (;;) {
    shard.queue_cv.wait(
        lk, [&shard] { return shard.stopping || !shard.queue.empty(); });
    if (shard.queue.empty()) return;  // stopping and nothing left to commit
    if (options_.commit_interval_us > 0 &&
        shard.queue.size() < options_.commit_batch) {
      // Give concurrent ingests a window to fill the batch; a full batch
      // (or shutdown) commits immediately.
      shard.queue_cv.wait_for(
          lk, std::chrono::microseconds(options_.commit_interval_us),
          [this, &shard] {
            return shard.stopping ||
                   shard.queue.size() >= options_.commit_batch;
          });
    }
    CommitOneBatch(shard_index, &lk);
  }
}

void SketchServer::CommitOneBatch(size_t shard_index,
                                  std::unique_lock<std::mutex>* lk) {
  Shard& shard = *shards_[shard_index];
  std::vector<PendingIngest*> batch;
  batch.reserve(std::min(shard.queue.size(), options_.commit_batch));
  while (!shard.queue.empty() && batch.size() < options_.commit_batch) {
    batch.push_back(shard.queue.front());
    shard.queue.pop_front();
  }
  // A batch staged before a commit failure must not reach the store:
  // after a failed WAL repair the log may end in a torn frame, and
  // anything appended behind it would be ACKed yet silently dropped by
  // recovery. Fail it with the sticky error instead.
  Status status = shard.commit_error;
  lk->unlock();

  uint64_t offset = 0;
  uint64_t epoch = 0;
  if (status.ok()) {
    // Moved, not copied: an entry's record and sketch are not read
    // again once its batch is handed to the store.
    std::vector<WalRecord> records;
    std::vector<DDSketch> sketches;
    records.reserve(batch.size());
    for (PendingIngest* pending : batch) {
      records.push_back(std::move(pending->record));
      if (pending->sketch) sketches.push_back(std::move(*pending->sketch));
    }
    store_->WithShard(shard_index, [&](DurableSketchStore& shard_store) {
      status = shard_store.IngestBatch(records, sketches);
      offset = shard_store.wal_offset();
      epoch = shard_store.epoch();
    });
  }

  lk->lock();
  if (status.ok()) {
    ++shard.batch_commits;
  } else if (shard.commit_error.ok() &&
             status.code() != StatusCode::kFenced) {
    // Fail-stop this shard's ingest path — except on FENCED, which
    // refuses before the WAL is touched: the durability substrate is
    // intact and a later Promote() makes the shard writable again.
    shard.commit_error = status;
  }
  lk->unlock();
  // Admission charges are refunded to their tags' ledgers as soon as
  // the batch leaves the staging pipeline — parked bytes below are
  // durable, not staged. (The refunds also feed each tag's refill-rate
  // estimate behind the BUSY retry hint.)
  for (PendingIngest* pending : batch) {
    ledger_->Refund(pending->tag_id, pending->bytes);
    pending->bytes = 0;
  }
  // Completion handshake outside queue_mu: fill the entries, then
  // decrement the runs' counters. The acq_rel chain on `remaining`
  // orders every committer's entry writes before the final
  // decrementer's PostCompletion, whose queue mutex in turn orders them
  // before the event loop's reads. With replication subscribers
  // attached, a durable batch's handshake is parked in the shipper
  // until its (epoch, offset) is acknowledged downstream (semi-sync); a
  // fenced release turns the acks into FENCED, because records the new
  // primary never acked may not survive the failover.
  auto complete = [batch = std::move(batch), status, offset](bool fenced) {
    const Status final_status =
        fenced ? Status::Fenced(
                     "not acknowledged: this primary was fenced before the "
                     "batch replicated")
               : status;
    for (PendingIngest* pending : batch) {
      pending->result = final_status;
      pending->wal_offset = offset;
      pending->done = true;
      IngestRun* run = pending->run;
      if (run->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        run->loop->PostCompletion(run);
      }
    }
  };
  if (status.ok() && shipper_) {
    shipper_->SubmitCommitted(shard_index, epoch, offset, std::move(complete));
  } else {
    complete(false);  // a failed batch has no durable position to gate on
  }
  lk->lock();
}

void SketchServer::CheckpointLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  // Poll cadence: fine-grained enough that a tiny test interval fires
  // promptly, coarse enough that an idle daemon costs nothing. Each poll
  // is a few integer reads per shard under its lock.
  auto poll = std::chrono::milliseconds(50);
  if (options_.checkpoint_interval_ms > 0) {
    poll = std::min(
        poll, std::chrono::milliseconds(
                  std::max<int64_t>(1, options_.checkpoint_interval_ms / 2)));
  }
  // Per-shard bookkeeping, owned by this thread alone.
  struct AgeClock {
    uint64_t epoch = 0;  // the epoch `base` was taken in (0: none yet)
    TimePoint base;      // no record in the WAL is older than this
    /// After a failed checkpoint the shard is skipped until here — a
    /// snapshot write is expensive, so a persistently failing one must
    /// not be retried every poll.
    TimePoint backoff_until;
  };
  std::vector<AgeClock> clocks(shards_.size());
  std::unique_lock<std::mutex> lk(scheduler_mu_);
  for (;;) {
    scheduler_cv_.wait_for(lk, poll, [this] { return scheduler_stop_; });
    if (scheduler_stop_) return;
    // A follower (or fenced ex-primary) never checkpoints on its own:
    // the primary's stream drives its epochs. Checked every poll so a
    // Promote() re-enables the scheduler in place.
    if (writes_fenced_.load(std::memory_order_relaxed)) continue;
    lk.unlock();
    for (size_t k = 0; k < shards_.size(); ++k) {
      AgeClock& clock = clocks[k];
      // Holding only this shard's lock: its committer waits, every
      // other shard keeps committing. nullopt: nothing was due.
      const std::optional<Status> result = store_->WithShard(
          k, [&](DurableSketchStore& shard_store) -> std::optional<Status> {
            const TimePoint now = Clock::now();
            const uint64_t wal_bytes =
                shard_store.wal_offset() - kWalHeaderBytes;
            if (wal_bytes == 0 || shard_store.epoch() != clock.epoch) {
              // Clean, or checkpointed since the last poll (a client
              // CHECKPOINT/COMPACT, a promotion): restart the age clock
              // so a newly-dirty shard gets a full interval before the
              // time trigger fires.
              clock = {shard_store.epoch(), now, clock.backoff_until};
            }
            const bool size_due = options_.checkpoint_wal_bytes > 0 &&
                                  wal_bytes >= options_.checkpoint_wal_bytes;
            const bool time_due = options_.checkpoint_interval_ms > 0 &&
                                  now - clock.base >= interval;
            if ((!size_due && !time_due) || now < clock.backoff_until) {
              return std::nullopt;
            }
            return shard_store.Checkpoint();
          });
      if (!result) continue;
      // A scheduler checkpoint failure is not fail-stop — the WAL is
      // untouched by a failed snapshot write, so ingest stays safe —
      // but failures back off and reach the operator's log.
      if (result->ok()) {
        shards_[k]->background_checkpoints.fetch_add(
            1, std::memory_order_relaxed);
      } else {
        std::fprintf(stderr,
                     "sketchd: background checkpoint of shard %zu failed "
                     "(will retry in 5s): %s\n",
                     k, result->ToString().c_str());
        clock.backoff_until = Clock::now() + std::chrono::seconds(5);
      }
    }
    lk.lock();
  }
}

Response SketchServer::PrepareSubscribe(const Request& request) {
  Response response;
  response.op = Request::Op::kSubscribe;
  auto fail = [&response](const Status& status) {
    response.code = status.code();
    response.message = status.message();
    return response;
  };
  if (role_follower_.load(std::memory_order_relaxed)) {
    return fail(Status::InvalidArgument(
        "this server is a follower; SUBSCRIBE to the primary (chained "
        "replication is not supported)"));
  }
  if (!request.positions.empty() &&
      request.positions.size() != shards_.size()) {
    return fail(Status::InvalidArgument(
        "SUBSCRIBE carries " + std::to_string(request.positions.size()) +
        " resume positions for a " + std::to_string(shards_.size()) +
        "-shard primary"));
  }
  // A subscriber that has seen a newer primary than us means we were
  // deposed while we weren't looking: self-fence before refusing. So
  // does an existing fence, whichever path set it — anything parked
  // awaiting subscriber acks must release as FENCED, not OK.
  const ShardedDurableStore::Fencing fencing = store_->FenceState();
  if (request.repl_token > fencing.token || fencing.fenced) {
    FenceSelf(request.repl_token);
    return fail(FencedRefusal("SUBSCRIBE to the primary"));
  }
  response.repl_token = fencing.token;
  response.repl_shards = shards_.size();
  return response;
}

void SketchServer::FenceSelf(uint64_t observed_token) {
  (void)store_->Fence(observed_token);
  writes_fenced_.store(true, std::memory_order_relaxed);
  // Fence the shipper too, whichever path discovered the demotion:
  // batches parked for subscriber acks must release as FENCED, not OK —
  // those records may not exist on the new primary.
  if (shipper_) shipper_->Fence();
}

Status SketchServer::FencedRefusal(const char* follower_hint) const {
  return Status::Fenced(
      role_follower_.load(std::memory_order_relaxed)
          ? std::string("this server is a follower; ") + follower_hint
          : "writer fenced: a newer primary holds the fencing token");
}

Result<uint64_t> SketchServer::Promote() {
  std::lock_guard<std::mutex> promote_lk(promote_mu_);
  // Stop applying the old primary's stream before flipping roles; the
  // socket is kept open so the new token can be sent up it afterwards.
  if (follower_) follower_->StopTail();
  auto new_token = store_->Promote();
  if (!new_token.ok()) return new_token.status();
  role_follower_.store(false, std::memory_order_relaxed);
  writes_fenced_.store(false, std::memory_order_relaxed);
  // Tell the deposed primary it lost the token. Best-effort: if it is
  // already dead this is a no-op, and its next life must rejoin as a
  // follower (docs/OPERATIONS.md runbook) — any replication handshake
  // it attempts with its stale token fences it then.
  if (follower_) follower_->FenceUpstream(new_token.value());
  return new_token;
}

}  // namespace dd
