#include "loadgen/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "core/ddsketch.h"
#include "data/datasets.h"
#include "loadgen/stats.h"
#include "timeseries/sharded_store.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Where the sizes come from. Sourced: the 10 s base interval and the
// 10 s / 1 m / 1 h rollup ladder (sketchd's default for a fresh
// directory; examples/metrics_backend.cpp ships one sketch per 10 s
// interval), alpha 0.01, commit batch 64 and 1024 records in flight per
// connection (sketchd's defaults), the datasets (the paper's evaluation
// sets, src/data/datasets.h), and the workload shapes (the benchmark's
// specification). Every count below is an assumption, not measured
// traffic; perfbench/README.md gives the reason for each.

// Data time: a day boundary, so every rollup level's buckets align.
constexpr int64_t kHorizon = 1699920000;
// ingest_values / merge_sketches write into the last hour before the
// horizon, which stays at 10 s resolution through a checkpoint.
constexpr int64_t kWriteBase = kHorizon - 3600;

// ingest_values: 256 series x one 256-value flush per pass, values spread
// over six 10 s intervals (one 1-minute bucket). A flush is 4 full
// default commit batches and stays under the in-flight cap.
constexpr int kIngestSeries = 256;
constexpr int kIngestFlushValues = 256;
constexpr int64_t kIngestSpanSeconds = 60;

// merge_sketches: 128 series x 2 flushes x 16 sketches of 512 values,
// one sketch per 10 s interval. 512 span values fill ~800 B payloads;
// metrics_backend.cpp uses 50 values per interval.
constexpr int kMergeSeries = 128;
constexpr int kMergeFlushesPerSeries = 2;
constexpr int kMergeFlushSketches = 16;
constexpr int kMergeSketchValues = 512;

// query_ranges: 32 history series over 30 hours (one 32-value sketch per
// minute, 16-value sketches every 10 s in the last hour), and 8 live
// series fed by the paced side stream. 30 hours holds the day-long
// window and a 24-hour window that ends six hours before the horizon.
constexpr int kHistorySeries = 32;
constexpr int64_t kHistoryHours = 30;
constexpr int kHistoryMinuteValues = 32;
constexpr int kHistoryTenSecondValues = 16;
constexpr int kLiveSeries = 8;
constexpr int kLiveFlushesPerSeries = 16;
constexpr int kLiveFlushValues = 10;
constexpr int64_t kLiveSpanSeconds = 600;

// The side streams: a light load beside the main stream that still gives
// ~3000 latency samples in a 15 s run.
constexpr double kSideQueriesPerSecond = 200;
constexpr double kSideFlushesPerSecond = 200;

std::string Name(const char* pattern, int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), pattern, i);
  return buf;
}

dd::Request IngestRequest(const std::string& series, int64_t ts, double v) {
  dd::Request request;
  request.op = dd::Request::Op::kIngest;
  request.series = series;
  request.timestamp = ts;
  request.value = v;
  return request;
}

QueryTemplate Query(const std::string& series, int64_t start, int64_t end) {
  dd::Request request;
  request.op = dd::Request::Op::kQuery;
  request.series = series;
  request.start = start;
  request.end = end;
  request.quantiles = kQuantiles;
  QueryTemplate q;
  q.series = series;
  q.start = start;
  q.end = end;
  q.frame = dd::EncodeRequest(request);
  return q;
}

std::string SketchOf(const std::vector<double>& values) {
  auto sketch = dd::DDSketch::Create(dd::DDSketchConfig{});
  sketch.value().AddBatch(values);
  return sketch.value().Serialize();
}

void GenerateIngestValues(uint64_t seed, Inputs* in) {
  const auto dist = dd::MakeDataset(dd::DatasetId::kWebLatency);
  dd::Rng rng(seed);
  for (int s = 0; s < kIngestSeries; ++s) {
    WriteFlush flush;
    flush.series = Name("web.host-%03d.latency", s);
    for (int i = 0; i < kIngestFlushValues; ++i) {
      const int64_t ts = kWriteBase + i * kIngestSpanSeconds / kIngestFlushValues;
      const double v = dist->Sample(rng);
      flush.points.emplace_back(ts, v);
      flush.frames.Add(IngestRequest(flush.series, ts, v));
    }
    in->queries.push_back(
        Query(flush.series, kWriteBase, kWriteBase + kIngestSpanSeconds));
    in->write_checks.push_back(
        {flush.series, kWriteBase, kWriteBase + kIngestSpanSeconds});
    in->write_checks.push_back({flush.series, kWriteBase + 20, kWriteBase + 30});
    in->writes.push_back(std::move(flush));
  }
  in->side_rate_per_s = kSideQueriesPerSecond;
}

void GenerateMergeSketches(uint64_t seed, Inputs* in) {
  const auto dist = dd::MakeDataset(dd::DatasetId::kSpan);
  dd::Rng rng(seed);
  const int64_t span = 10 * kMergeFlushesPerSeries * kMergeFlushSketches;
  std::vector<double> values(kMergeSketchValues);
  for (int s = 0; s < kMergeSeries; ++s) {
    const std::string series = Name("span.svc-%03d.duration", s);
    for (int f = 0; f < kMergeFlushesPerSeries; ++f) {
      WriteFlush flush;
      flush.series = series;
      for (int k = 0; k < kMergeFlushSketches; ++k) {
        const int64_t ts = kWriteBase + 10 * (f * kMergeFlushSketches + k);
        for (double& v : values) {
          v = dist->Sample(rng);
          flush.points.emplace_back(ts, v);
        }
        dd::Request request;
        request.op = dd::Request::Op::kMerge;
        request.series = series;
        request.timestamp = ts;
        request.payload = SketchOf(values);
        flush.frames.Add(request);
        flush.payloads.push_back(std::move(request.payload));
      }
      in->writes.push_back(std::move(flush));
    }
    in->queries.push_back(Query(series, kWriteBase, kWriteBase + span));
    in->write_checks.push_back({series, kWriteBase, kWriteBase + span});
    in->write_checks.push_back({series, kWriteBase + 10, kWriteBase + 20});
  }
  in->side_rate_per_s = kSideQueriesPerSecond;
}

void GenerateQueryRanges(uint64_t seed, Inputs* in) {
  const auto dist = dd::MakeDataset(dd::DatasetId::kPareto);
  dd::Rng rng(seed);
  const int64_t hour = 3600;
  const int64_t day = 24 * hour;
  for (int s = 0; s < kHistorySeries; ++s) {
    const std::string series = Name("pareto.rpc-%02d.latency", s);
    for (int64_t t = kHorizon - kHistoryHours * hour; t < kHorizon;) {
      const bool recent = t >= kHorizon - hour;
      HistorySketch h;
      h.series = series;
      h.timestamp = t;
      h.values.resize(recent ? kHistoryTenSecondValues : kHistoryMinuteValues);
      for (double& v : h.values) v = dist->Sample(rng);
      h.payload = SketchOf(h.values);
      in->history.push_back(std::move(h));
      t += recent ? 10 : 60;
    }
    // Windows aligned to every level they touch, so the buckets a query
    // merges hold exactly the window's data.
    for (int j = 0; j < 4; ++j) {
      const int64_t start = kHorizon - hour + 900 * j;
      in->queries.push_back(Query(series, start, start + 60));
    }
    for (int64_t k : {1, 6, 20}) {
      in->queries.push_back(
          Query(series, kHorizon - (k + 1) * hour, kHorizon - k * hour));
    }
    in->queries.push_back(Query(series, kHorizon - day, kHorizon));
    in->queries.push_back(
        Query(series, kHorizon - 30 * hour, kHorizon - 6 * hour));
  }
  for (int s = 0; s < kLiveSeries; ++s) {
    const std::string series = Name("pareto.live-%02d.latency", s);
    for (int f = 0; f < kLiveFlushesPerSeries; ++f) {
      WriteFlush flush;
      flush.series = series;
      for (int i = 0; i < kLiveFlushValues; ++i) {
        const int64_t ts = kHorizon - kLiveSpanSeconds +
                           static_cast<int64_t>(rng.NextBounded(kLiveSpanSeconds));
        const double v = dist->Sample(rng);
        flush.points.emplace_back(ts, v);
        flush.frames.Add(IngestRequest(series, ts, v));
      }
      in->writes.push_back(std::move(flush));
    }
    in->write_checks.push_back({series, kHorizon - kLiveSpanSeconds, kHorizon});
  }
  in->writes_are_main = false;
  in->side_rate_per_s = kSideFlushesPerSecond;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "ingest_values") return Workload::kIngestValues;
  if (name == "merge_sketches") return Workload::kMergeSketches;
  if (name == "query_ranges") return Workload::kQueryRanges;
  return std::nullopt;
}

Inputs GenerateInputs(Workload workload, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  // Decorrelate neighbouring seeds before they drive the generators.
  const uint64_t mixed = dd::Rng(seed ^ 0x5ca1ab1e0ddba11ULL).NextU64();
  switch (workload) {
    case Workload::kIngestValues:
      GenerateIngestValues(mixed, &in);
      break;
    case Workload::kMergeSketches:
      GenerateMergeSketches(mixed, &in);
      break;
    case Workload::kQueryRanges:
      GenerateQueryRanges(mixed, &in);
      break;
  }
  return in;
}

dd::Status Preload(const Inputs& inputs, const std::string& data_dir) {
  if (inputs.history.empty()) return dd::Status::OK();
  dd::ShardedDurableStoreOptions options;
  options.shards = 1;
  auto store = dd::ShardedDurableStore::Open(data_dir, options);
  if (!store.ok()) return store.status();
  for (const HistorySketch& h : inputs.history) {
    DD_RETURN_IF_ERROR(store.value().Ingest(h.series, h.timestamp, h.payload));
  }
  auto folded = store.value().Compact(std::numeric_limits<int64_t>::max());
  return folded.ok() ? dd::Status::OK() : folded.status();
}

void ComputeHistoryExact(Inputs* inputs) {
  std::map<std::string, std::vector<const HistorySketch*>> by_series;
  for (const HistorySketch& h : inputs->history) {
    by_series[h.series].push_back(&h);
  }
  for (QueryTemplate& q : inputs->queries) {
    auto it = by_series.find(q.series);
    if (it == by_series.end()) continue;
    std::vector<double> values;
    for (const HistorySketch* h : it->second) {
      if (h->timestamp >= q.start && h->timestamp < q.end) {
        values.insert(values.end(), h->values.begin(), h->values.end());
      }
    }
    std::sort(values.begin(), values.end());
    q.exact.clear();
    for (double quantile : kQuantiles) {
      q.exact.push_back(SortedQuantile(values, quantile));
    }
  }
}

std::vector<double> WeightedQuantiles(
    std::vector<std::pair<double, uint64_t>> weighted,
    const std::vector<double>& qs) {
  std::sort(weighted.begin(), weighted.end());
  uint64_t total = 0;
  for (const auto& [v, w] : weighted) total += w;
  std::vector<double> out;
  for (double q : qs) {
    if (total == 0) {
      out.push_back(std::numeric_limits<double>::quiet_NaN());
      continue;
    }
    const auto rank = static_cast<uint64_t>(
        std::floor(q * static_cast<double>(total - 1)));
    uint64_t cumulative = 0;
    double value = weighted.back().first;
    for (const auto& [v, w] : weighted) {
      cumulative += w;
      if (cumulative > rank) {
        value = v;
        break;
      }
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace perfbench
