// Differential property test for the insert hot path: the devirtualized
// fast path (FastIndex + DenseStore::TryAddFast/TryAddFastRun, the
// default) and the seed's generic virtual path (pinned via
// DDSketchConfig::reference_insert_path) must be observationally
// identical under arbitrary interleavings of Add / AddBatch / Remove /
// MergeFrom — including clamped magnitudes, sub-min-indexable values,
// NaN/inf rejects, negatives, and collapse-inducing spreads.
//
// Everything is compared exactly: bucket contents and counters, and
// min/max/sum by bit pattern — AddBatch folds the sum in input order, so a
// batch leaves the same bits as one Add per value, non-finite sums from
// the clamp regime included.

#include "core/ddsketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "util/rng.h"

namespace dd {
namespace {

DDSketch MakeSketch(const DDSketchConfig& base, bool reference) {
  DDSketchConfig config = base;
  config.reference_insert_path = reference;
  auto r = DDSketch::Create(config);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::map<int32_t, uint64_t> Buckets(const Store& store) {
  std::map<int32_t, uint64_t> out;
  store.ForEach([&](int32_t index, uint64_t count) { out[index] = count; });
  return out;
}

void ExpectIdentical(const DDSketch& fast, const DDSketch& ref,
                     const char* where) {
  ASSERT_EQ(fast.count(), ref.count()) << where;
  ASSERT_EQ(fast.zero_count(), ref.zero_count()) << where;
  ASSERT_EQ(fast.rejected_count(), ref.rejected_count()) << where;
  ASSERT_EQ(fast.clamped_count(), ref.clamped_count()) << where;
  ASSERT_EQ(fast.num_buckets(), ref.num_buckets()) << where;
  ASSERT_EQ(std::bit_cast<uint64_t>(fast.min()),
            std::bit_cast<uint64_t>(ref.min()))
      << where;
  ASSERT_EQ(std::bit_cast<uint64_t>(fast.max()),
            std::bit_cast<uint64_t>(ref.max()))
      << where;
  ASSERT_EQ(Buckets(fast.positive_store()), Buckets(ref.positive_store()))
      << where;
  ASSERT_EQ(Buckets(fast.negative_store()), Buckets(ref.negative_store()))
      << where;
  ASSERT_EQ(std::bit_cast<uint64_t>(fast.sum()),
            std::bit_cast<uint64_t>(ref.sum()))
      << where << " sums " << fast.sum() << " vs " << ref.sum();
  if (!fast.empty()) {
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
      // Identical buckets and extremes make the estimates bit-identical.
      ASSERT_EQ(fast.QuantileOrNaN(q), ref.QuantileOrNaN(q))
          << where << " q=" << q;
    }
  }
}

/// Value generator mixing the interesting regimes: ordinary magnitudes,
/// negatives, clamped extremes, zero-bucket dust, exact zero, and the
/// occasional NaN/inf reject.
double NextValue(Rng& rng) {
  const uint64_t kind = rng.NextBounded(100);
  const double u = rng.NextDouble();
  if (kind < 55) return 1e-3 + u * 1e6;                   // common positives
  if (kind < 75) return -(1e-3 + u * 1e6);                // common negatives
  if (kind < 82) {  // clamped extremes (beyond max_indexable, both signs)
    return (u < 0.5 ? -1.0 : 1.0) * (1e308 + u * 7e307);
  }
  if (kind < 88) return (u - 0.5) * 1e-308;               // zero-bucket dust
  if (kind < 92) return 0.0;                              // exact zero
  if (kind < 94) return std::numeric_limits<double>::quiet_NaN();
  if (kind < 96) return (kind % 2 == 0 ? 1 : -1) *
                        std::numeric_limits<double>::infinity();
  // Wide magnitude sweep: exercises growth and collapse.
  return std::ldexp(1.0 + u, static_cast<int>(rng.NextBounded(2000)) - 1000);
}

struct NamedConfig {
  const char* name;
  DDSketchConfig config;
};

std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> out;
  {
    DDSketchConfig c;  // the default: log mapping, collapsing dense
    c.max_num_buckets = 128;  // small bound: collapses happen constantly
    out.push_back({"log/collapsing", c});
  }
  {
    DDSketchConfig c;
    c.mapping = MappingType::kCubicInterpolated;
    c.store = StoreType::kUnboundedDense;
    out.push_back({"cubic/unbounded", c});
  }
  {
    DDSketchConfig c;
    c.mapping = MappingType::kLinearInterpolated;
    c.max_num_buckets = 64;
    out.push_back({"linear/collapsing", c});
  }
  {
    DDSketchConfig c;
    c.mapping = MappingType::kQuadraticInterpolated;
    c.store = StoreType::kSparse;
    c.max_num_buckets = 0;
    out.push_back({"quadratic/sparse", c});
  }
  return out;
}

TEST(InsertDifferentialTest, InterleavedOpsMatchReferencePath) {
  // Two passes: every regime, and one whose draws skip magnitudes above
  // 1e7 so the sum stays finite and its bits can show summation order
  // (a clamp-regime draw overflows both sums early, after which the sum
  // comparison only sees two equal non-finite values).
  for (const bool finite_sum : {false, true}) {
    for (const NamedConfig& named : Configs()) {
      SCOPED_TRACE(named.name);
      SCOPED_TRACE(finite_sum ? "finite sum" : "all regimes");
      Rng rng(0xDD5C);
      auto next_value = [&rng, finite_sum] {
        for (;;) {
          const double v = NextValue(rng);
          if (!finite_sum || !(std::abs(v) > 1e7)) return v;
        }
      };
      DDSketch fast = MakeSketch(named.config, /*reference=*/false);
      DDSketch ref = MakeSketch(named.config, /*reference=*/true);
      // A second pair fed in tandem, as the MergeFrom source.
      DDSketch fast_other = MakeSketch(named.config, /*reference=*/false);
      DDSketch ref_other = MakeSketch(named.config, /*reference=*/true);
      std::vector<double> recent;  // removal candidates, clamped included

      for (int op = 0; op < 3000; ++op) {
        const uint64_t kind = rng.NextBounded(100);
        if (kind < 45) {
          const double v = next_value();
          const uint64_t n = 1 + rng.NextBounded(3);
          fast.Add(v, n);
          ref.Add(v, n);
          if (recent.size() < 512) recent.push_back(v);
        } else if (kind < 65) {
          std::vector<double> batch;
          const size_t n = 1 + rng.NextBounded(700);  // crosses chunk size
          batch.reserve(n);
          for (size_t i = 0; i < n; ++i) batch.push_back(next_value());
          fast.AddBatch(batch);
          ref.AddBatch(batch);
          if (!batch.empty() && recent.size() < 512) {
            recent.push_back(batch.front());
          }
        } else if (kind < 85) {
          // Remove something previously added (often) or arbitrary
          // (rarely): both sketches must agree on how much came out.
          const double v = (!recent.empty() && rng.NextBounded(4) != 0)
                               ? recent[rng.NextBounded(recent.size())]
                               : next_value();
          const uint64_t n = 1 + rng.NextBounded(2);
          ASSERT_EQ(fast.Remove(v, n), ref.Remove(v, n)) << "op " << op;
        } else if (kind < 95) {
          const double v = next_value();
          fast_other.Add(v);
          ref_other.Add(v);
        } else {
          ASSERT_TRUE(fast.MergeFrom(fast_other).ok());
          ASSERT_TRUE(ref.MergeFrom(ref_other).ok());
        }
        if (op % 100 == 99) ExpectIdentical(fast, ref, "periodic");
      }
      ExpectIdentical(fast, ref, "final");
      if (finite_sum) {
        ASSERT_TRUE(std::isfinite(ref.sum())) << ref.sum();
      }
    }
  }
}

TEST(InsertDifferentialTest, BatchEqualsScalarAdds) {
  // AddBatch against one-value-at-a-time Add on the same (fast) config:
  // catches batch-only bookkeeping drift independent of the reference
  // path knob. Two streams: every regime, whose sum overflows into the
  // non-finite range, and one without magnitudes above 1e7 (the clamp
  // regime and the top of the wide sweep), whose sum stays finite and
  // unswamped so that summation order shows in its low bits. Each is fed
  // as batches of varying size: any split of a stream must leave the
  // same bits.
  DDSketchConfig config;
  config.mapping = MappingType::kCubicInterpolated;
  config.max_num_buckets = 256;
  for (const bool finite_sum : {false, true}) {
    DDSketch batched = MakeSketch(config, false);
    DDSketch scalar = MakeSketch(config, false);
    Rng rng(0xBA7C);
    std::vector<double> values;
    while (values.size() < 20000) {
      const double v = NextValue(rng);
      if (!finite_sum || !(std::abs(v) > 1e7)) values.push_back(v);
    }
    for (size_t i = 0; i < values.size();) {
      const size_t n = std::min<size_t>(values.size() - i,
                                        1 + rng.NextBounded(1100));
      batched.AddBatch(std::span<const double>(values).subspan(i, n));
      i += n;
    }
    for (double v : values) scalar.Add(v);
    ASSERT_EQ(std::isfinite(scalar.sum()), finite_sum);
    ExpectIdentical(batched, scalar, finite_sum ? "finite sum" : "all regimes");
  }
}

}  // namespace
}  // namespace dd
