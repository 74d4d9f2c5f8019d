#include "loadgen/stats.h"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<size_t>(
      std::floor(q * static_cast<double>(sorted.size() - 1)));
  return sorted[std::min(rank, sorted.size() - 1)];
}

namespace {
volatile uint32_t g_anchor_sink = 0;  // keeps the anchor's work from being elided
}  // namespace

double AnchorCpuSeconds() {
  // Table-driven CRC-32 over a fixed 128 KiB buffer: a dependent chain of
  // shifts, xors and L1 table lookups fed by a streaming read from L2,
  // the same kind of work as decoding and merging requests.
  static const std::vector<uint8_t> buffer = [] {
    std::vector<uint8_t> bytes(128 * 1024);
    uint64_t state = 42;
    for (uint8_t& b : bytes) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      b = static_cast<uint8_t>(state >> 56);
    }
    return bytes;
  }();
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> entries(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
    return entries;
  }();
  timespec begin{}, end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &begin);
  uint32_t crc = ~0u;
  for (uint8_t b : buffer) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  g_anchor_sink = crc;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - begin.tv_sec) +
         static_cast<double>(end.tv_nsec - begin.tv_nsec) / 1e9;
}

LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = SortedQuantile(samples, 0.5);
  summary.p99 = SortedQuantile(samples, 0.99);
  return summary;
}

uint64_t Trace::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = ++next_id_;
  span.parent = parent;
  span.request = request;
  open_[span.id] = spans_.size();
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void Trace::End(uint64_t id, uint64_t items) {
  if (!enabled_) return;
  const int64_t now = NowNs();
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  spans_[it->second].items = items;
  open_.erase(it);
}

void Trace::Count(const char* name, uint64_t parent, uint64_t request,
                  uint64_t items) {
  End(Begin(name, parent, request), items);
}

void Trace::Append(const Trace& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::map<std::string, Trace::Totals> Trace::TotalsByName() const {
  std::map<std::string, Totals> totals;
  for (const Span& span : spans_) {
    Totals& t = totals[span.name];
    t.ns += static_cast<double>(span.end_ns - span.start_ns);
    t.items += static_cast<double>(span.items);
    t.count += 1;
  }
  return totals;
}

bool Trace::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\titems\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Shortest round-trip decimal form; JSON has no NaN/inf, so those
/// become null, which no reader of the result will take for a number.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

}  // namespace

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
