#include "loadgen/replay.h"

#include <map>
#include <span>

#include "core/ddsketch.h"
#include "server/protocol.h"
#include "timeseries/durable_store.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "util/file_io.h"

namespace perfbench {
namespace {

// Snapshot and WAL-replay calls are few and large; repeat them so one
// scheduler hiccup does not set the layer's number.
constexpr int kRecoveryRepeats = 3;

/// The daemon's request -> log record conversion (server.cc ToWalRecord).
dd::WalRecord ToWalRecord(const dd::Request& request) {
  dd::WalRecord record;
  record.series = request.series;
  record.timestamp = request.timestamp;
  if (request.op == dd::Request::Op::kIngest) {
    record.type = dd::WalRecord::Type::kIngestValue;
    record.value = request.value;
  } else {
    record.type = dd::WalRecord::Type::kIngestSketch;
    record.payload = request.payload;
  }
  return record;
}

dd::Status Check(const dd::Status& s, const char* what) {
  if (s.ok()) return s;
  return dd::Status::Internal(std::string(what) + ": " + s.ToString());
}

/// One group commit, as the daemon's committer runs it: the log layer
/// alone (append each record, one Sync) and the whole durable commit.
dd::Status ReplayCommit(const std::vector<dd::WalRecord>& batch,
                        dd::WalWriter* wal, dd::DurableSketchStore* durable,
                        uint64_t parent, uint64_t request, Trace* trace) {
  uint64_t span = trace->Begin("timeseries.wal_append", parent, request);
  for (const dd::WalRecord& r : batch) {
    DD_RETURN_IF_ERROR(Check(wal->Append(r), "WalWriter::Append"));
  }
  DD_RETURN_IF_ERROR(Check(wal->Sync(), "WalWriter::Sync"));
  trace->End(span, batch.size());
  span = trace->Begin("timeseries.commit", parent, request);
  DD_RETURN_IF_ERROR(Check(durable->IngestBatch(batch), "IngestBatch"));
  trace->End(span, batch.size());
  return dd::Status::OK();
}

}  // namespace

dd::Status ReplayLayers(const Inputs& inputs,
                        const dd::ShardedDurableStore& end_store,
                        const std::string& end_wal_path,
                        const std::string& replay_dir, uint64_t parent,
                        Trace* trace) {
  auto wal = dd::WalWriter::Create(replay_dir + "/replay-wal.log", 1);
  if (!wal.ok()) return wal.status();
  dd::DurableSketchStoreOptions options;
  auto durable =
      dd::DurableSketchStore::Open(replay_dir + "/replay-store", options);
  if (!durable.ok()) return durable.status();
  auto value_store = dd::SketchStore::Create(options.store);
  auto sketch_store = dd::SketchStore::Create(options.store);
  if (!value_store.ok()) return value_store.status();
  if (!sketch_store.ok()) return sketch_store.status();
  auto empty = dd::DDSketch::Create(options.store.sketch);
  if (!empty.ok()) return empty.status();

  // Write path, one pass of the workload's writes in stream order.
  std::vector<dd::WalRecord> batch;
  uint64_t request = 0;
  for (const WriteFlush& flush : inputs.writes) {
    ++request;
    const size_t n = flush.frames.size();
    std::vector<dd::Request> requests;
    requests.reserve(n);
    uint64_t span = trace->Begin("server.frame_decode", parent, request);
    for (size_t i = 0; i < n; ++i) {
      size_t consumed = 0;
      auto body = dd::DecodeFrame(flush.frames.frame(i), &consumed);
      if (!body.ok()) return body.status();
      auto decoded = dd::DecodeRequest(body.value());
      if (!decoded.ok()) return decoded.status();
      requests.push_back(std::move(decoded.value()));
    }
    trace->End(span, n);
    trace->Count("server.wire_bytes", parent, request, flush.frames.wire.size());

    std::vector<dd::WalRecord> records;
    records.reserve(n);
    for (const dd::Request& r : requests) records.push_back(ToWalRecord(r));

    span = trace->Begin("timeseries.validate", parent, request);
    for (const dd::WalRecord& r : records) {
      DD_RETURN_IF_ERROR(Check(durable.value().ValidateRecord(r), "Validate"));
    }
    trace->End(span, n);

    uint64_t wal_bytes = 0;
    span = trace->Begin("timeseries.wal_encode", parent, request);
    for (const dd::WalRecord& r : records) {
      wal_bytes += dd::EncodeWalRecord(r).size();
    }
    trace->End(span, n);
    trace->Count("timeseries.wal_bytes", parent, request, wal_bytes);

    dd::Response ack;
    ack.op = requests.front().op;
    span = trace->Begin("server.response_encode", parent, request);
    for (size_t i = 0; i < n; ++i) {
      ack.wal_offset = i;
      dd::EncodeResponse(ack);
    }
    trace->End(span, n);

    // The raw values behind the flush: inserted into a sketch (an agent
    // pre-aggregating) and applied to a store grouped per interval (the
    // committer's batched value path).
    std::vector<double> values;
    values.reserve(flush.points.size());
    for (const auto& point : flush.points) values.push_back(point.second);
    dd::DDSketch agent = empty.value();
    span = trace->Begin("core.add_batch", parent, request);
    agent.AddBatch(values);
    trace->End(span, values.size());

    span = trace->Begin("timeseries.apply_values", parent, request);
    for (size_t begin = 0; begin < flush.points.size();) {
      const int64_t interval = value_store.value().RawStart(flush.points[begin].first);
      size_t end = begin;
      while (end < flush.points.size() &&
             value_store.value().RawStart(flush.points[end].first) == interval) {
        ++end;
      }
      DD_RETURN_IF_ERROR(Check(
          value_store.value().IngestValues(
              flush.series, interval,
              std::span<const double>(values.data() + begin, end - begin)),
          "IngestValues"));
      begin = end;
    }
    trace->End(span, values.size());

    // Sketch apply: the MERGE payloads, or the flush as one pre-built
    // sketch for value workloads.
    std::vector<std::pair<int64_t, dd::DDSketch>> sketches;
    if (flush.payloads.empty()) {
      sketches.emplace_back(flush.points.front().first, std::move(agent));
    } else {
      for (size_t i = 0; i < flush.payloads.size(); ++i) {
        auto sketch = dd::DDSketch::Deserialize(flush.payloads[i]);
        if (!sketch.ok()) return sketch.status();
        sketches.emplace_back(requests[i].timestamp, std::move(sketch.value()));
      }
    }
    span = trace->Begin("timeseries.apply_sketch", parent, request);
    for (const auto& [ts, sketch] : sketches) {
      DD_RETURN_IF_ERROR(Check(
          sketch_store.value().IngestSketch(flush.series, ts, sketch),
          "IngestSketch"));
    }
    trace->End(span, sketches.size());

    for (dd::WalRecord& r : records) {
      batch.push_back(std::move(r));
      if (batch.size() == kCommitBatch) {
        DD_RETURN_IF_ERROR(ReplayCommit(batch, &wal.value(), &durable.value(),
                                        parent, request, trace));
        batch.clear();
      }
    }
  }
  if (!batch.empty()) {
    DD_RETURN_IF_ERROR(ReplayCommit(batch, &wal.value(), &durable.value(),
                                    parent, request, trace));
  }

  // Sketch decode + merge: the payloads queries merge on query_ranges
  // (the preloaded history), the MERGE payloads otherwise, or each value
  // flush as one serialized sketch.
  std::vector<std::pair<const std::string*, std::string>> payloads;
  if (!inputs.history.empty()) {
    for (const HistorySketch& h : inputs.history) {
      payloads.emplace_back(&h.series, h.payload);
    }
  } else {
    for (const WriteFlush& flush : inputs.writes) {
      if (flush.payloads.empty()) {
        dd::DDSketch sketch = empty.value();
        for (const auto& point : flush.points) sketch.Add(point.second);
        payloads.emplace_back(&flush.series, sketch.Serialize());
      } else {
        for (const std::string& p : flush.payloads) {
          payloads.emplace_back(&flush.series, p);
        }
      }
    }
  }
  std::map<std::string, dd::DDSketch> merged;
  for (const auto& [series, payload] : payloads) {
    ++request;
    uint64_t span = trace->Begin("core.deserialize", parent, request);
    auto sketch = dd::DDSketch::Deserialize(payload);
    trace->End(span, 1);
    if (!sketch.ok()) return sketch.status();
    auto it = merged.try_emplace(*series, empty.value()).first;
    span = trace->Begin("core.merge", parent, request);
    const dd::Status s = it->second.MergeFrom(sketch.value());
    trace->End(span, 1);
    DD_RETURN_IF_ERROR(Check(s, "MergeFrom"));
  }

  // Query path on the end-of-run state.
  const dd::SketchStore& store = end_store.shard(0).store();
  for (const QueryTemplate& q : inputs.queries) {
    ++request;
    uint64_t span = trace->Begin("timeseries.query_range", parent, request);
    auto range = store.QueryRange(q.series, q.start, q.end);
    trace->End(span, 1);
    if (!range.ok()) return range.status();
    span = trace->Begin("core.quantiles", parent, request);
    auto answers = range.value().Quantiles(kQuantiles);
    trace->End(span, 1);
    if (!answers.ok()) return answers.status();
    auto steps = store.QuerySeries(q.series, q.start, q.end, 0.5,
                                   store.options().levels.front().interval_seconds);
    if (!steps.ok()) return steps.status();
    trace->Count("timeseries.query_steps", parent, request, steps.value().size());
  }

  // Recovery path: snapshot codec and WAL scan of the end-of-run state.
  auto wal_bytes = dd::ReadFileToString(end_wal_path);
  if (!wal_bytes.ok()) return wal_bytes.status();
  for (int i = 0; i < kRecoveryRepeats; ++i) {
    ++request;
    uint64_t span = trace->Begin("timeseries.snapshot_encode", parent, request);
    const std::string image = dd::EncodeSnapshot(store, end_store.shard(0).epoch());
    trace->End(span, 1);
    trace->Count("timeseries.snapshot_bytes", parent, request, image.size());
    span = trace->Begin("timeseries.snapshot_decode", parent, request);
    auto decoded = dd::DecodeSnapshot(image);
    trace->End(span, 1);
    if (!decoded.ok()) return decoded.status();
    span = trace->Begin("timeseries.wal_replay", parent, request);
    auto log = dd::ReadWal(wal_bytes.value(), dd::WalRead::kTolerateTornTail);
    if (!log.ok()) return log.status();
    trace->End(span, log.value().records.size());
  }
  return dd::Status::OK();
}

std::vector<Metric> ReplayMetrics(const Trace& trace) {
  const auto totals = trace.TotalsByName();
  auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? Trace::Totals{} : it->second;
  };
  // Per unit of work (ns per item) and per call (ns per span).
  auto per_item = [&](const char* name, double scale) {
    const Trace::Totals t = get(name);
    return t.items > 0 ? t.ns / t.items / scale : 0.0;
  };
  auto per_call = [&](const char* name, double scale) {
    const Trace::Totals t = get(name);
    return t.count > 0 ? t.ns / t.count / scale : 0.0;
  };
  const double records = get("server.frame_decode").items;
  auto per_record = [&](const char* name) {
    return records > 0 ? get(name).items / records : 0.0;
  };
  auto per_span = [&](const char* count_name, const char* span_name) {
    const double calls = get(span_name).count;
    return calls > 0 ? get(count_name).items / calls : 0.0;
  };
  return {
      {"server.frame_decode_ns", per_item("server.frame_decode", 1), "ns"},
      {"server.response_encode_ns", per_item("server.response_encode", 1), "ns"},
      {"server.wire_bytes_per_record", per_record("server.wire_bytes"), "B"},
      {"timeseries.validate_ns", per_item("timeseries.validate", 1), "ns"},
      {"timeseries.wal_encode_ns", per_item("timeseries.wal_encode", 1), "ns"},
      {"timeseries.wal_append_us_per_batch",
       per_call("timeseries.wal_append", 1e3), "us"},
      {"timeseries.wal_bytes_per_record", per_record("timeseries.wal_bytes"), "B"},
      {"timeseries.commit_us_per_batch", per_call("timeseries.commit", 1e3), "us"},
      {"timeseries.apply_ns_per_value", per_item("timeseries.apply_values", 1),
       "ns"},
      {"timeseries.apply_sketch_us", per_item("timeseries.apply_sketch", 1e3),
       "us"},
      {"timeseries.query_range_us", per_call("timeseries.query_range", 1e3), "us"},
      {"timeseries.intervals_per_query",
       per_span("timeseries.query_steps", "timeseries.query_range"), "count"},
      {"timeseries.snapshot_encode_ms",
       per_call("timeseries.snapshot_encode", 1e6), "ms"},
      {"timeseries.snapshot_decode_ms",
       per_call("timeseries.snapshot_decode", 1e6), "ms"},
      {"timeseries.snapshot_bytes",
       per_span("timeseries.snapshot_bytes", "timeseries.snapshot_encode"), "B"},
      {"timeseries.wal_replay_ms", per_call("timeseries.wal_replay", 1e6), "ms"},
      {"timeseries.open_ms", per_call("timeseries.open", 1e6), "ms"},
      {"core.add_batch_ns_per_value", per_item("core.add_batch", 1), "ns"},
      {"core.deserialize_us", per_item("core.deserialize", 1e3), "us"},
      {"core.merge_us", per_item("core.merge", 1e3), "us"},
      {"core.quantiles_ns", per_call("core.quantiles", 1), "ns"},
  };
}

}  // namespace perfbench
