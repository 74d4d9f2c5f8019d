// The three workloads' inputs, generated from the seed before any timing
// starts. The daemon receives only these generated requests.
//
//   ingest_values   web_latency values as pipelined INGEST flushes (main,
//                   closed loop) + a paced QUERY side stream;
//   merge_sketches  pre-built span sketches as pipelined MERGE flushes
//                   (main, closed loop) + a paced QUERY side stream;
//   query_ranges    QUERY over short, hour- and day-long windows of a
//                   preloaded, rolled-up pareto history (main, closed
//                   loop) + a paced INGEST side stream into live series.
//
// Every main-stream pass repeats the same requests, so the store's shape
// (series, intervals, sketch sizes) is fixed work however many passes a
// run completes; only counts grow.

#ifndef PERFBENCH_LOADGEN_INPUTS_H_
#define PERFBENCH_LOADGEN_INPUTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "loadgen/conn.h"
#include "util/status.h"

namespace perfbench {

enum class Workload { kIngestValues, kMergeSketches, kQueryRanges };

std::optional<Workload> ParseWorkload(std::string_view name);

/// sketchd's default relative accuracy; every checked answer must be
/// within it of the exact quantile.
inline constexpr double kAlpha = 0.01;

/// The quantiles every QUERY asks for (p50/p90/p99/p999).
inline const std::vector<double> kQuantiles = {0.5, 0.9, 0.99, 0.999};

/// One write call: a pipelined batch of INGEST or MERGE requests for one
/// series.
struct WriteFlush {
  std::string series;
  Frames frames;  ///< one request per record
  /// The raw values behind the records, with their timestamps (for a
  /// MERGE, the values its sketch summarizes).
  std::vector<std::pair<int64_t, double>> points;
  std::vector<std::string> payloads;  ///< MERGE payloads, one per record
};

/// One QUERY, pre-encoded.
struct QueryTemplate {
  std::string series;
  int64_t start = 0;
  int64_t end = 0;
  std::string frame;
  /// Exact answers (one per kQuantiles entry) when the window's data is
  /// fixed (the preloaded history); empty otherwise.
  std::vector<double> exact;
};

/// One preloaded interval sketch of the query_ranges history.
struct HistorySketch {
  std::string series;
  int64_t timestamp = 0;
  std::vector<double> values;
  std::string payload;
};

/// A (series, window) whose recovered answers are checked against the
/// exact quantiles of every acked write in it.
struct CheckWindow {
  std::string series;
  int64_t start = 0;
  int64_t end = 0;
};

struct Inputs {
  Workload workload = Workload::kIngestValues;
  /// True when writes are the closed-loop main stream and queries the
  /// paced side stream; false on query_ranges, where it is the reverse.
  bool writes_are_main = true;
  double side_rate_per_s = 0;  ///< paced side-stream calls per second
  std::vector<WriteFlush> writes;
  std::vector<QueryTemplate> queries;
  std::vector<HistorySketch> history;
  std::vector<CheckWindow> write_checks;
};

/// Deterministic in (workload, seed).
Inputs GenerateInputs(Workload workload, uint64_t seed);

/// Builds the query_ranges history in a fresh data directory with the
/// store library (ingest every interval sketch, then Compact, which rolls
/// the ladder up and checkpoints). A no-op for the other workloads.
dd::Status Preload(const Inputs& inputs, const std::string& data_dir);

/// Fills QueryTemplate::exact for windows over the preloaded history.
void ComputeHistoryExact(Inputs* inputs);

/// Exact lower quantiles of a weighted multiset {(value, weight)}: the
/// element of 0-based rank floor(q(N-1)), N the total weight.
std::vector<double> WeightedQuantiles(
    std::vector<std::pair<double, uint64_t>> weighted,
    const std::vector<double>& qs);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_INPUTS_H_
