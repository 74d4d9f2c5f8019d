// sketchd_loadgen: the end-to-end benchmark's load generator. It runs the
// sketchd daemon in its own process and drives it over loopback with
// pre-generated inputs; see perfbench/README.md for the workloads and
// metrics.
//
//   sketchd_loadgen --workload ingest_values|merge_sketches|query_ranges
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//
// One run:
//   1. set up (9x untraced, median reported): generate inputs, preload
//      (query_ranges), start sketchd on a fresh directory, hello;
//   2. one untimed warm-up pass of the main stream;
//   3. the timed phase: two closed-loop connections cycle the main stream
//      while a third sends the side stream on a fixed schedule, for S
//      seconds; every 200 ms all three streams pause between calls and a
//      generator thread samples the host-speed anchor while the daemon is
//      idle; STATS is scraped before and after, outside the timing;
//   4. CHECKPOINT, then one untimed pass of every write (so recovery
//      replays a fixed log), record the daemon's VmHWM, SIGKILL it;
//   5. restart on the same directory (9x traced, median reported as
//      recovery_s; once untraced) and time until it answers STATS; on the
//      first restart, check answers against exact quantiles of the
//      generated inputs;
//   6. open the directory with the store library and check every
//      series' count against its acked records;
//   7. traced runs only: replay the inputs through each layer.
// The last stdout line is the JSON result. Any transport error, lost
// ack, wrong answer or uncounted failure makes the result incorrect or
// the run fail (exit 1, no result line).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen/conn.h"
#include "loadgen/daemon.h"
#include "loadgen/inputs.h"
#include "loadgen/replay.h"
#include "loadgen/stats.h"
#include "timeseries/sharded_store.h"
#include "util/dir_layout.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Two closed-loop connections: with sketchd's one event loop and one
// committer that keeps busy threads at the host's 4 cores.
constexpr int kMainConnections = 2;
// sketchd flags; every other flag keeps its default (no background
// checkpoint, commit batch 64, one fsync per group commit).
const std::vector<std::string> kDaemonFlags = {"--event-loops", "1",
                                               "--shards", "1"};
// Set-ups per untraced run (setup_s) and restarts per traced run
// (recovery_s); the median is reported.
constexpr int kRepeats = 9;
// Time a run may take beyond --seconds (set-ups, restarts, checks and the
// traced replay) before the watchdog kills it.
constexpr double kRunAllowanceSeconds = 150;
// The anchor is sampled in a pause of every stream this often.
constexpr auto kAnchorPeriod = std::chrono::milliseconds(200);
constexpr int kAnchorSamplesPerPause = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Results of one stream (one thread) of the timed phase.
struct StreamStats {
  std::vector<double> latency_ms;  ///< per call; paced: from the due time
  std::vector<double> late_ms;     ///< paced: send time - due time
  uint64_t records = 0;            ///< write records or queries attempted
  uint64_t ok = 0;                 ///< acked records / OK queries
  uint64_t failed = 0;
  uint64_t busy = 0;
  uint64_t wrong_answers = 0;      ///< queries off by more than alpha
  double max_rel_error = 0;
  /// Traced runs: each traced pass's time over the mean of its two
  /// untraced neighbours', so host-speed drift across the run cancels.
  std::vector<double> trace_overhead;
  dd::Status error;
};

/// Relative error of each answer against the exact values; counts the
/// ones beyond alpha.
void CheckAnswers(const std::vector<double>& answers,
                  const std::vector<double>& exact, double* max_rel_error,
                  uint64_t* wrong) {
  bool bad = answers.size() != exact.size();
  for (size_t i = 0; i < answers.size() && i < exact.size(); ++i) {
    const double rel = std::abs(answers[i] - exact[i]) / std::abs(exact[i]);
    *max_rel_error = std::max(*max_rel_error, rel);
    if (!(rel <= kAlpha * (1 + 1e-9))) bad = true;
  }
  if (bad) ++*wrong;
}

/// One write call; tallies into `out` and `acked_times`.
dd::Status DoWrite(Connection* conn, const WriteFlush& flush, size_t index,
                   uint64_t backoff_seed, uint32_t* acked_times,
                   StreamStats* out) {
  WriteOutcome outcome;
  DD_RETURN_IF_ERROR(conn->Write(flush.frames, backoff_seed, &outcome));
  out->records += flush.frames.size();
  out->ok += outcome.acked;
  out->failed += outcome.failed;
  out->busy += outcome.busy;
  if (outcome.acked == flush.frames.size()) ++acked_times[index];
  return dd::Status::OK();
}

/// One QUERY call; checks the answers when the window's data is fixed.
dd::Status DoQuery(Connection* conn, const QueryTemplate& q, StreamStats* out) {
  auto response = conn->Call(q.frame);
  if (!response.ok()) return response.status();
  ++out->records;
  if (response.value().code != dd::StatusCode::kOk) {
    ++out->failed;
    return dd::Status::OK();
  }
  ++out->ok;
  if (!q.exact.empty()) {
    CheckAnswers(response.value().values, q.exact, &out->max_rel_error,
                 &out->wrong_answers);
  }
  return dd::Status::OK();
}

/// Shared state of the timed phase's threads.
struct Phase {
  const Inputs* inputs = nullptr;
  std::vector<uint32_t>* acked_times = nullptr;  ///< per write flush
  /// 0: one pass, no deadline. Pauses do not count towards it.
  int64_t deadline_ns = 0;
  std::atomic<bool> stop{false};
  /// While set, no stream starts a call, so the daemon is idle once
  /// `in_call` drops to 0 (see PauseStreams).
  std::atomic<bool> pause{false};
  std::atomic<int> in_call{0};
  std::atomic<int64_t> paused_ns{0};  ///< total time spent paused

  bool PastDeadline() const {
    return deadline_ns != 0 && NowNs() - paused_ns.load() >= deadline_ns;
  }
};

/// Called by a stream before each call: waits while the phase is paused
/// and returns how long it waited (ns). Pair with LeaveCall.
int64_t EnterCall(Phase* phase) {
  int64_t waited = 0;
  for (;;) {
    phase->in_call.fetch_add(1);
    if (!phase->pause.load()) return waited;
    phase->in_call.fetch_sub(1);
    const int64_t t0 = NowNs();
    while (phase->pause.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
    waited += NowNs() - t0;
  }
}

void LeaveCall(Phase* phase) { phase->in_call.fetch_sub(1); }

/// Stops every stream between calls, waits until no call is in flight,
/// runs `idle_work` and resumes the streams. The pause is excluded from
/// the phase's deadline and elapsed time.
template <typename Fn>
void PauseStreams(Phase* phase, Fn idle_work) {
  const int64_t t0 = NowNs();
  phase->pause.store(true);
  while (phase->in_call.load() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  idle_work();
  phase->paused_ns.fetch_add(NowNs() - t0);
  phase->pause.store(false);
}

/// A closed-loop main stream: cycles `mine` (flush or template indices)
/// until the deadline, one call at a time. Traced runs alternate traced
/// and untraced passes so the trace's overhead is measured in-run.
void RunClosedLoop(Connection* conn, Phase* phase, const std::vector<size_t>& mine,
                   uint64_t seed, Trace* trace, StreamStats* out) {
  const Inputs& in = *phase->inputs;
  dd::Rng backoff_seeds(seed);
  double previous_untraced_s = 0;
  double pending_traced_s = 0;
  for (uint64_t pass = 0;; ++pass) {
    const bool traced = trace->enabled() && pass % 2 == 1;
    const int64_t pass_start = NowNs();
    int64_t pass_paused_ns = 0;
    const uint64_t pass_span = traced ? trace->Begin("client.pass", 0, pass) : 0;
    for (size_t index : mine) {
      pass_paused_ns += EnterCall(phase);
      if (phase->PastDeadline()) {
        LeaveCall(phase);
        return;
      }
      const int64_t t0 = NowNs();
      const uint64_t span =
          traced ? trace->Begin(in.writes_are_main ? "client.write" : "client.query",
                                pass_span, index)
                 : 0;
      dd::Status s =
          in.writes_are_main
              ? DoWrite(conn, in.writes[index], index, backoff_seeds.NextU64(),
                        phase->acked_times->data(), out)
              : DoQuery(conn, in.queries[index], out);
      LeaveCall(phase);
      if (!s.ok()) {
        out->error = s;
        return;
      }
      if (traced) trace->End(span, 1);
      out->latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    if (traced) trace->End(pass_span, mine.size());
    const double pass_s =
        static_cast<double>(NowNs() - pass_start - pass_paused_ns) / 1e9;
    if (traced) {
      pending_traced_s = pass_s;
    } else {
      if (pending_traced_s > 0 && previous_untraced_s > 0) {
        out->trace_overhead.push_back(pending_traced_s /
                                      ((previous_untraced_s + pass_s) / 2));
      }
      previous_untraced_s = pass_s;
    }
    if (phase->deadline_ns == 0) return;
  }
}

/// The open-loop side stream: call k is due at start + k / rate and is
/// timed from its due time, however late the generator sends it. A pause
/// that holds a due call back moves the rest of the schedule with it.
void RunPaced(Connection* conn, Phase* phase, const std::vector<size_t>& order,
              double rate, uint64_t seed, Trace* trace, StreamStats* out) {
  const Inputs& in = *phase->inputs;
  dd::Rng backoff_seeds(seed);
  int64_t start = NowNs();
  const double interval_ns = 1e9 / rate;
  for (uint64_t k = 0; !phase->stop.load(std::memory_order_relaxed); ++k) {
    int64_t due = start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
    const int64_t now = NowNs();
    if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const int64_t paused = EnterCall(phase);
    start += paused;
    due += paused;
    if (phase->stop.load(std::memory_order_relaxed)) {
      LeaveCall(phase);
      break;
    }
    const size_t index = order[k % order.size()];
    const int64_t sent = NowNs();
    const uint64_t span = trace->Begin(
        in.writes_are_main ? "client.side_query" : "client.side_write", 0, k);
    dd::Status s =
        in.writes_are_main
            ? DoQuery(conn, in.queries[index], out)
            : DoWrite(conn, in.writes[index], index, backoff_seeds.NextU64(),
                      phase->acked_times->data(), out);
    LeaveCall(phase);
    if (!s.ok()) {
      out->error = s;
      return;
    }
    trace->End(span, 1);
    const int64_t done = NowNs();
    out->late_ms.push_back(static_cast<double>(sent - due) / 1e6);
    out->latency_ms.push_back(static_cast<double>(done - due) / 1e6);
  }
}

std::vector<size_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  dd::Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.NextBounded(i)]);
  return order;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, 0.5);
}

dd::Result<dd::StoreStats> ScrapeStats(Connection* conn) {
  dd::Request request;
  request.op = dd::Request::Op::kStats;
  auto response = conn->Call(dd::EncodeRequest(request));
  if (!response.ok()) return response.status();
  if (dd::Status s = dd::ResponseStatus(response.value()); !s.ok()) return s;
  return response.value().stats;
}

dd::Status Checkpoint(Connection* conn) {
  dd::Request request;
  request.op = dd::Request::Op::kCheckpoint;
  auto response = conn->Call(dd::EncodeRequest(request));
  if (!response.ok()) return response.status();
  return dd::ResponseStatus(response.value());
}

void PrintStats(const char* label, const dd::StoreStats& stats) {
  std::printf("# STATS %s: series=%llu intervals=%llu size_in_bytes=%llu "
              "batch_commits=%llu busy_rejections=%llu\n",
              label, static_cast<unsigned long long>(stats.num_series),
              static_cast<unsigned long long>(stats.num_intervals),
              static_cast<unsigned long long>(stats.size_in_bytes),
              static_cast<unsigned long long>(stats.batch_commits),
              static_cast<unsigned long long>(stats.busy_rejections));
  for (size_t i = 0; i < dd::kNumLatencyOps; ++i) {
    const dd::OpLatencyStats& row = stats.op_latencies[i];
    if (row.count == 0) continue;
    std::printf("#   %-10s n=%llu p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n",
                std::string(dd::LatencyOpName(static_cast<dd::LatencyOp>(i))).c_str(),
                static_cast<unsigned long long>(row.count), row.p50_us,
                row.p99_us, row.p999_us, row.max_us);
  }
  for (const dd::LevelStatsRow& level : stats.levels) {
    std::printf("#   level %llus: intervals=%llu rollup_merges=%llu bytes=%llu\n",
                static_cast<unsigned long long>(level.interval_seconds),
                static_cast<unsigned long long>(level.num_intervals),
                static_cast<unsigned long long>(level.rollup_merges),
                static_cast<unsigned long long>(level.retained_bytes));
  }
}

/// Everything one run measures.
struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  double elapsed_s = 0;
  StreamStats writes;   ///< main or side write stream, merged
  StreamStats queries;  ///< main or side query stream, merged
  double peak_rss_mb = 0;
  double daemon_cpu_s = 0;  ///< daemon CPU time during the timed phase
  std::vector<double> anchor_s;  ///< anchor CPU times, in the phase's pauses
  double disk_bytes_per_record = 0;
  dd::StoreStats before;
  dd::StoreStats after;
  double rel_error_max = 0;
  uint64_t wrong_answers = 0;
  uint64_t lost_acks = 0;
  uint64_t checks = 0;
};

void Merge(const StreamStats& from, StreamStats* into) {
  into->latency_ms.insert(into->latency_ms.end(), from.latency_ms.begin(),
                          from.latency_ms.end());
  into->late_ms.insert(into->late_ms.end(), from.late_ms.begin(), from.late_ms.end());
  into->records += from.records;
  into->ok += from.ok;
  into->failed += from.failed;
  into->busy += from.busy;
  into->wrong_answers += from.wrong_answers;
  into->max_rel_error = std::max(into->max_rel_error, from.max_rel_error);
  into->trace_overhead.insert(into->trace_overhead.end(),
                              from.trace_overhead.begin(), from.trace_overhead.end());
}

/// Runs the main stream on kMainConnections threads (and, with `side`,
/// the paced side stream) until the phase ends. Stream results are
/// merged into `result` by kind (write or query).
dd::Status RunStreams(const std::vector<std::unique_ptr<Connection>>& conns,
                      Phase* phase, bool side, uint64_t seed,
                      std::vector<Trace>* traces, RunResult* result) {
  const Inputs& in = *phase->inputs;
  const size_t main_items = in.writes_are_main ? in.writes.size() : in.queries.size();
  const std::vector<size_t> main_order = Shuffled(main_items, seed);
  std::vector<StreamStats> stats(kMainConnections + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kMainConnections; ++t) {
    // Disjoint shares: each write flush has one owner, so per-flush ack
    // counters need no synchronization.
    std::vector<size_t> mine;
    for (size_t i = t; i < main_order.size(); i += kMainConnections) {
      mine.push_back(main_order[i]);
    }
    threads.emplace_back([&, t, mine = std::move(mine)] {
      RunClosedLoop(conns[t].get(), phase, mine, seed + 1 + t, &(*traces)[t],
                    &stats[t]);
    });
  }
  std::thread side_thread;
  if (side) {
    const size_t side_items = in.writes_are_main ? in.queries.size() : in.writes.size();
    std::vector<size_t> side_order(side_items);
    for (size_t i = 0; i < side_items; ++i) side_order[i] = i;
    if (in.writes_are_main) side_order = Shuffled(side_items, seed + 100);
    side_thread = std::thread([&, side_order = std::move(side_order)] {
      RunPaced(conns[kMainConnections].get(), phase, side_order,
               in.side_rate_per_s, seed + 200, &(*traces)[kMainConnections],
               &stats[kMainConnections]);
    });
  }
  for (auto& t : threads) t.join();
  phase->stop.store(true);
  if (side_thread.joinable()) side_thread.join();

  for (int t = 0; t <= kMainConnections; ++t) {
    if (!stats[t].error.ok()) return stats[t].error;
    const bool is_main = t < kMainConnections;
    const bool writes = is_main == in.writes_are_main;
    Merge(stats[t], writes ? &result->writes : &result->queries);
  }
  return dd::Status::OK();
}

/// Checks the recovered daemon's answers against exact quantiles of
/// every acked write (and of the preloaded history).
dd::Status CheckRecoveredAnswers(Connection* conn, const Inputs& in,
                                 const std::vector<uint32_t>& acked_times,
                                 RunResult* result) {
  std::map<std::string, std::vector<size_t>> flushes_of;
  for (size_t f = 0; f < in.writes.size(); ++f) {
    flushes_of[in.writes[f].series].push_back(f);
  }
  for (const CheckWindow& w : in.write_checks) {
    std::vector<std::pair<double, uint64_t>> weighted;
    for (size_t f : flushes_of[w.series]) {
      for (const auto& [ts, v] : in.writes[f].points) {
        if (ts >= w.start && ts < w.end && acked_times[f] > 0) {
          weighted.emplace_back(v, acked_times[f]);
        }
      }
    }
    dd::Request request;
    request.op = dd::Request::Op::kQuery;
    request.series = w.series;
    request.start = w.start;
    request.end = w.end;
    request.quantiles = kQuantiles;
    auto response = conn->Call(dd::EncodeRequest(request));
    if (!response.ok()) return response.status();
    DD_RETURN_IF_ERROR(dd::ResponseStatus(response.value()));
    CheckAnswers(response.value().values, WeightedQuantiles(weighted, kQuantiles),
                 &result->rel_error_max, &result->wrong_answers);
    ++result->checks;
  }
  for (const QueryTemplate& q : in.queries) {
    if (q.exact.empty()) continue;
    auto response = conn->Call(q.frame);
    if (!response.ok()) return response.status();
    DD_RETURN_IF_ERROR(dd::ResponseStatus(response.value()));
    CheckAnswers(response.value().values, q.exact, &result->rel_error_max,
                 &result->wrong_answers);
    ++result->checks;
  }
  return dd::Status::OK();
}

/// Counts every series in the recovered store against its acked
/// records (plus its preloaded history).
void CheckRecoveredCounts(const dd::ShardedDurableStore& store, const Inputs& in,
                          const std::vector<uint32_t>& acked_times,
                          RunResult* result) {
  std::map<std::string, uint64_t> expected;
  for (size_t f = 0; f < in.writes.size(); ++f) {
    expected[in.writes[f].series] +=
        static_cast<uint64_t>(acked_times[f]) * in.writes[f].points.size();
  }
  for (const HistorySketch& h : in.history) expected[h.series] += h.values.size();
  constexpr int64_t kForever = int64_t{1} << 40;
  for (const auto& [series, count] : expected) {
    auto range = store.QueryRange(series, -kForever, kForever);
    const uint64_t recovered = range.ok() ? range.value().count() : 0;
    if (recovered != count) {
      std::fprintf(stderr, "lost acks: %s recovered %llu of %llu records\n",
                   series.c_str(), static_cast<unsigned long long>(recovered),
                   static_cast<unsigned long long>(count));
      result->lost_acks += count > recovered ? count - recovered : recovered - count;
    }
  }
}

struct LiveDaemon {
  std::unique_ptr<Daemon> daemon;
  std::string data_dir;
};

/// Generate inputs, preload, start sketchd, hello: the timed set-up.
dd::Result<LiveDaemon> SetUp(const Args& args, Workload workload, const std::string& dir,
                          Inputs* inputs, double* seconds) {
  const int64_t t0 = NowNs();
  *inputs = GenerateInputs(workload, args.seed);
  LiveDaemon d;
  d.data_dir = dir;
  DD_RETURN_IF_ERROR(Preload(*inputs, dir));
  auto daemon = Daemon::Start(SKETCHD_BINARY, dir, dir + ".log", kDaemonFlags);
  if (!daemon.ok()) return daemon.status();
  d.daemon = std::move(daemon.value());
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return d;
}

int Fail(const std::string& what, const dd::Status& s) {
  std::fprintf(stderr, "sketchd_loadgen: %s: %s\n", what.c_str(), s.ToString().c_str());
  return 1;
}

/// One run in `work`, a fresh directory the caller removes afterwards.
int Run(const Args& args, Workload workload, const std::string& work) {
  std::error_code ec;

  RunResult result;
  Inputs in;
  LiveDaemon live;
  const int setups = args.trace ? 1 : kRepeats;
  for (int k = 0; k < setups; ++k) {
    double seconds = 0;
    auto d = SetUp(args, workload, work + "/data-" + std::to_string(k), &in, &seconds);
    if (!d.ok()) return Fail("set-up", d.status());
    result.setup_s.push_back(seconds);
    if (k + 1 < setups) {
      d.value().daemon.reset();
      fs::remove_all(d.value().data_dir, ec);
    } else {
      live = std::move(d.value());
    }
  }
  ComputeHistoryExact(&in);

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kMainConnections + 2; ++i) {
    auto conn = Connection::Open(live.daemon->port());
    if (!conn.ok()) return Fail("connect", conn.status());
    conns.push_back(std::move(conn.value()));
  }
  Connection* control = conns.back().get();
  std::vector<uint32_t> acked_times(in.writes.size(), 0);
  std::vector<Trace> traces;
  for (int t = 0; t <= kMainConnections; ++t) {
    traces.emplace_back(args.trace, static_cast<uint64_t>(t + 1) << 40);
  }
  std::vector<Trace> untraced(kMainConnections + 1, Trace(false, 0));

  // Warm-up: one untimed pass of the main stream.
  {
    Phase phase;
    phase.inputs = &in;
    phase.acked_times = &acked_times;
    RunResult warm_up;
    if (dd::Status s = RunStreams(conns, &phase, false, args.seed, &untraced, &warm_up);
        !s.ok()) {
      return Fail("warm-up", s);
    }
  }

  auto before = ScrapeStats(control);
  if (!before.ok()) return Fail("STATS", before.status());
  result.before = before.value();
  const uint64_t bytes_before = DirectoryBytes(live.data_dir);
  const double cpu_before = live.daemon->CpuSeconds();
  {
    Phase phase;
    phase.inputs = &in;
    phase.acked_times = &acked_times;
    const int64_t t0 = NowNs();
    phase.deadline_ns = t0 + static_cast<int64_t>(args.seconds * 1e9);
    // The host-speed anchor, sampled through the phase but only while the
    // daemon is idle, so the daemon's own load on the shared caches and
    // cores cannot move it.
    std::atomic<bool> anchor_stop{false};
    std::thread anchor([&] {
      for (;;) {
        std::this_thread::sleep_for(kAnchorPeriod);
        if (anchor_stop.load()) break;
        PauseStreams(&phase, [&] {
          AnchorCpuSeconds();  // brings the anchor's buffer back into cache
          for (int i = 0; i < kAnchorSamplesPerPause; ++i) {
            result.anchor_s.push_back(AnchorCpuSeconds());
          }
        });
      }
    });
    const dd::Status status = RunStreams(conns, &phase, true, args.seed, &traces, &result);
    result.elapsed_s =
        static_cast<double>(NowNs() - t0 - phase.paused_ns.load()) / 1e9;
    anchor_stop.store(true);
    anchor.join();
    if (!status.ok()) return Fail("timed phase", status);
  }
  auto after = ScrapeStats(control);
  if (!after.ok()) return Fail("STATS", after.status());
  result.after = after.value();
  const uint64_t bytes_after = DirectoryBytes(live.data_dir);
  result.daemon_cpu_s = live.daemon->CpuSeconds() - cpu_before;
  result.disk_bytes_per_record =
      result.writes.ok > 0
          ? static_cast<double>(bytes_after - bytes_before) /
                static_cast<double>(result.writes.ok)
          : 0;
  PrintStats("before", result.before);
  PrintStats("after", result.after);

  // Durability round: checkpoint, then one pass of every write, so the
  // restarts below replay a fixed log on top of a fixed snapshot.
  if (dd::Status s = Checkpoint(control); !s.ok()) return Fail("CHECKPOINT", s);
  {
    Phase phase;
    phase.inputs = &in;
    phase.acked_times = &acked_times;
    StreamStats durability;
    dd::Rng seeds(args.seed + 300);
    for (size_t f = 0; f < in.writes.size(); ++f) {
      if (dd::Status s = DoWrite(control, in.writes[f], f, seeds.NextU64(),
                                 acked_times.data(), &durability);
          !s.ok()) {
        return Fail("durability round", s);
      }
    }
    result.writes.failed += durability.failed;
    result.writes.busy += durability.busy;
  }
  result.peak_rss_mb = live.daemon->PeakRssMb();
  conns.clear();
  live.daemon->Kill();

  // Crash recovery: restart on the same directory until it answers STATS.
  const int restarts = args.trace ? kRepeats : 1;
  for (int k = 0; k < restarts; ++k) {
    const int64_t t0 = NowNs();
    auto daemon = Daemon::Start(SKETCHD_BINARY, live.data_dir, live.data_dir + ".log",
                                kDaemonFlags);
    if (!daemon.ok()) return Fail("restart", daemon.status());
    result.recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (k == 0) {
      auto conn = Connection::Open(daemon.value()->port());
      if (!conn.ok()) return Fail("connect", conn.status());
      if (dd::Status s = CheckRecoveredAnswers(conn.value().get(), in, acked_times, &result);
          !s.ok()) {
        return Fail("recovered answers", s);
      }
    }
    daemon.value()->Kill();
  }

  // Count check with the store library, on a copy for traced runs (whose
  // replay then reads the end-of-run state from it).
  Trace layers(args.trace, uint64_t{9} << 40);
  std::string check_dir = live.data_dir;
  if (args.trace) {
    check_dir = work + "/end-copy";
    fs::copy(live.data_dir, check_dir, fs::copy_options::recursive, ec);
    if (ec) return Fail("copy", dd::Status::Internal(ec.message()));
  }
  std::vector<Metric> layer_metrics;
  {
    dd::ShardedDurableStoreOptions options;
    options.shards = 1;
    const uint64_t root = layers.Begin("replay", 0, 0);
    const uint64_t open_span = layers.Begin("timeseries.open", root, 0);
    auto store = dd::ShardedDurableStore::Open(check_dir, options);
    layers.End(open_span, 1);
    if (!store.ok()) return Fail("open recovered store", store.status());
    CheckRecoveredCounts(store.value(), in, acked_times, &result);
    if (args.trace) {
      fs::create_directories(work + "/replay", ec);
      // A single-shard directory keeps the flat (pre-sharding) layout.
      std::string wal_path = dd::DurableSketchStore::WalPath(check_dir);
      if (!fs::exists(wal_path)) {
        wal_path = dd::DurableSketchStore::WalPath(dd::ShardSubdir(check_dir, 0));
      }
      if (dd::Status s = ReplayLayers(in, store.value(), wal_path, work + "/replay",
                                      root, &layers);
          !s.ok()) {
        return Fail("replay", s);
      }
      layers.End(root, 0);
      layer_metrics = ReplayMetrics(layers);
    }
  }

  // Results.
  const LatencySummary write_lat = Summarize(result.writes.latency_ms);
  const LatencySummary query_lat = Summarize(result.queries.latency_ms);
  const uint64_t attempted = result.writes.records + result.queries.records;
  const uint64_t failed = result.writes.failed + result.queries.failed;
  result.wrong_answers += result.queries.wrong_answers;
  result.rel_error_max = std::max(result.rel_error_max, result.queries.max_rel_error);
  // Every write must have been acked for the durability and exactness
  // checks to hold; a failed write also fails the run.
  const bool correct = result.lost_acks == 0 && result.wrong_answers == 0 &&
                       failed == 0 && result.checks > 0 &&
                       result.rel_error_max <= kAlpha * (1 + 1e-9);
  std::printf("# %s seed=%llu elapsed=%.3fs writes: %llu records acked, %zu calls "
              "(p50 %.3f ms, p99 %.3f ms); queries: %llu ok, %zu calls "
              "(p50 %.3f ms, p99 %.3f ms)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              result.elapsed_s, static_cast<unsigned long long>(result.writes.ok),
              write_lat.count, write_lat.p50, write_lat.p99,
              static_cast<unsigned long long>(result.queries.ok), query_lat.count,
              query_lat.p50, query_lat.p99);
  std::printf("# checks: %llu windows, rel_error_max=%.6f, wrong=%llu, lost_acks=%llu, "
              "failed=%llu, busy=%llu\n",
              static_cast<unsigned long long>(result.checks), result.rel_error_max,
              static_cast<unsigned long long>(result.wrong_answers),
              static_cast<unsigned long long>(result.lost_acks),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(result.writes.busy));

  std::string samples = "# setup_s samples:";
  for (double v : result.setup_s) samples += " " + std::to_string(v);
  samples += "; recovery_s samples:";
  for (double v : result.recovery_s) samples += " " + std::to_string(v);
  std::vector<Metric> metrics;
  const double main_ops =
      static_cast<double>(in.writes_are_main ? result.writes.ok : result.queries.ok);
  const double cpu_s_per_op = main_ops > 0 ? result.daemon_cpu_s / main_ops : 0;
  const double anchor_s = Median(result.anchor_s);
  std::printf("%s; daemon cpu %.3fs, %.3f us/op; anchor median %.3f ms over %zu samples\n",
              samples.c_str(), result.daemon_cpu_s, cpu_s_per_op * 1e6, anchor_s * 1e3,
              result.anchor_s.size());

  if (!args.trace) {
    metrics = {
        {"cpu_per_op_anchored", cpu_s_per_op / anchor_s, "ratio"},
        {"rel_error_max", result.rel_error_max, "ratio"},
        {"setup_s", Median(result.setup_s), "s"},
        {"peak_rss_mb", result.peak_rss_mb, "MiB"},
        {"disk_bytes_per_record", result.disk_bytes_per_record, "B"},
    };
  } else {
    const dd::StoreStats& st = result.after;
    const auto row = [&](dd::LatencyOp op) {
      return st.op_latencies[static_cast<size_t>(op)];
    };
    const dd::LatencyOp write_op = in.workload == Workload::kMergeSketches
                                       ? dd::LatencyOp::kMerge
                                       : dd::LatencyOp::kIngest;
    const uint64_t commits = st.batch_commits - result.before.batch_commits;
    const StreamStats& main_stream = in.writes_are_main ? result.writes : result.queries;
    const StreamStats& side = in.writes_are_main ? result.queries : result.writes;
    std::vector<double> late = side.late_ms;
    std::sort(late.begin(), late.end());
    // Wall-clock rates and latencies: end-to-end quantities, reported here
    // without a bound because steal on a shared host swings them by more
    // than any bound a gate could use (see README.md).
    metrics = {
        {"cpu_us_per_op", cpu_s_per_op * 1e6, "us"},
        {"recovery_s", Median(result.recovery_s), "s"},
        {"ingest_rps", static_cast<double>(result.writes.ok) / result.elapsed_s, "1/s"},
        {"ingest_p50_ms", write_lat.p50, "ms"},
        {"ingest_p99_ms", write_lat.p99, "ms"},
        {"query_rps", static_cast<double>(result.queries.ok) / result.elapsed_s, "1/s"},
        {"query_p50_ms", query_lat.p50, "ms"},
        {"query_p99_ms", query_lat.p99, "ms"},
        {"failed_ratio",
         attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
         "ratio"},
        {"server.records_per_commit",
         commits > 0 ? static_cast<double>(result.writes.ok) / static_cast<double>(commits) : 0,
         "count"},
        {"server.srv_write_p50_us", row(write_op).p50_us, "us"},
        {"server.srv_write_p99_us", row(write_op).p99_us, "us"},
        {"server.srv_query_p50_us", row(dd::LatencyOp::kQuery).p50_us, "us"},
        {"server.srv_query_p99_us", row(dd::LatencyOp::kQuery).p99_us, "us"},
        {"server.busy_rejections",
         static_cast<double>(st.busy_rejections - result.before.busy_rejections), "count"},
        {"server.store_size_bytes", static_cast<double>(st.size_in_bytes), "B"},
    };
    metrics.insert(metrics.end(), layer_metrics.begin(), layer_metrics.end());
    metrics.push_back({"bench.side_stream_late_ms", SortedQuantile(late, 0.99), "ms"});
    metrics.push_back({"bench.anchor_ms", anchor_s * 1e3, "ms"});
    metrics.push_back(
        {"bench.trace_overhead", Median(main_stream.trace_overhead), "ratio"});
    Trace all(true, 0);
    for (const Trace& t : traces) all.Append(t);
    all.Append(layers);
    const std::string trace_path = work + ".spans.tsv";
    if (!all.WriteTsv(trace_path)) {
      return Fail("trace", dd::Status::Internal("cannot write " + trace_path));
    }
    std::printf("# %zu spans written to %s\n", all.spans().size(), trace_path.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  if (!correct) {
    std::fprintf(stderr, "sketchd_loadgen: correctness checks failed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sketchd_loadgen --workload W --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const auto workload = perfbench::ParseWorkload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "sketchd_loadgen: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string work = args.work_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + (args.trace ? "-trace" : "");
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "sketchd_loadgen: %s: %s\n", work.c_str(),
                 ec.message().c_str());
    return 1;
  }
  perfbench::StartWatchdog(args.seconds + perfbench::kRunAllowanceSeconds);
  const int code = perfbench::Run(args, *workload, work);
  std::filesystem::remove_all(work, ec);
  return code;
}
