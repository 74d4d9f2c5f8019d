// The traced run's per-layer replay: one pass of the workload's generated
// inputs goes through each module's public functions in the order the
// daemon calls them, with a span around every layer call, and the
// per-layer metrics are derived from those spans.

#ifndef PERFBENCH_LOADGEN_REPLAY_H_
#define PERFBENCH_LOADGEN_REPLAY_H_

#include <string>
#include <vector>

#include "loadgen/inputs.h"
#include "loadgen/stats.h"
#include "timeseries/sharded_store.h"
#include "util/status.h"

namespace perfbench {

/// The daemon's default --commit-batch: records per group commit.
inline constexpr size_t kCommitBatch = 64;

/// Replays `inputs` under the root span `parent`. Write-path layers run
/// on a fresh WAL and store in `replay_dir`; query, snapshot and WAL
/// replay layers run on `end_store`, the end-of-run state opened from a
/// copy of the daemon's directory, whose log is `end_wal_path`.
dd::Status ReplayLayers(const Inputs& inputs,
                        const dd::ShardedDurableStore& end_store,
                        const std::string& end_wal_path,
                        const std::string& replay_dir, uint64_t parent,
                        Trace* trace);

/// The timeseries./core./server. metrics the replay spans measure (plus
/// timeseries.open_ms from the caller's "timeseries.open" span).
std::vector<Metric> ReplayMetrics(const Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_REPLAY_H_
