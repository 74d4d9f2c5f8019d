// Measurement helpers for the sketchd load generator: exact percentiles
// of latency samples, an in-memory span trace, and the result line.
//
// Latency percentiles are computed exactly from sorted samples, never
// with the repository's DDSketch, so a change to the sketch cannot move
// the instrument that measures it.

#ifndef PERFBENCH_LOADGEN_STATS_H_
#define PERFBENCH_LOADGEN_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The lower q-quantile of an ascending vector: the element of 0-based
/// rank floor(q(n-1)), the paper's convention. NaN when empty.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Median and p99 of a latency sample, with the sample count.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/// The same-run host-speed anchor: CPU time of the calling thread for a
/// fixed task that shares no code with the repository (a table-driven
/// CRC-32 over a 128 KiB buffer). On a shared host the CPU time of
/// identical work drifts by tens of percent between minutes; dividing
/// the daemon's CPU time by this anchor, sampled through the same phase
/// in pauses while the daemon is idle, cancels most of that drift.
double AnchorCpuSeconds();

/// One traced interval: a client call or a replayed layer call. Spans of
/// one request share `request`; `parent` is the id of the enclosing span
/// (0 for a root); `items` counts the units of work inside (records,
/// values, sketches) so per-unit costs are measured where the work is.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t items = 0;
};

/// A span buffer owned by one thread. Disabled traces record nothing, so
/// untraced runs pay one branch per call site.
class Trace {
 public:
  /// `id_base` keeps span ids unique across the threads' buffers.
  Trace(bool enabled, uint64_t id_base) : enabled_(enabled), next_id_(id_base) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request);
  /// Closes span `id` now, recording `items` units of work.
  void End(uint64_t id, uint64_t items);
  /// Records a count at a layer boundary as a zero-length span.
  void Count(const char* name, uint64_t parent, uint64_t request,
             uint64_t items);

  const std::vector<Span>& spans() const { return spans_; }
  void Append(const Trace& other);

  /// Sum of durations (ns), of items, and the span count per name.
  struct Totals {
    double ns = 0;
    double items = 0;
    double count = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;

  /// Writes one tab-separated line per span.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t next_id_;
  std::vector<Span> spans_;
  std::map<uint64_t, size_t> open_;  // span id -> index in spans_
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result as the last line of stdout:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_STATS_H_
