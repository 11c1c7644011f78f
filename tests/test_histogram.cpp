// LogHistogram: bucket geometry round-trips, quantile semantics, the
// associative/commutative merge that keeps serialized histograms
// byte-identical across worker counts, and weighted bulk recording.

#include "telemetry/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace srbsg {
namespace {

using telemetry::LogHistogram;

TEST(LogHistogram, BucketIndexExactBelowSubBucketRange) {
  for (u64 v = 0; v < (u64{1} << LogHistogram::kSubBucketBits); ++v) {
    EXPECT_EQ(LogHistogram::bucket_lo(LogHistogram::bucket_index(v)), v);
  }
}

TEST(LogHistogram, BucketLoIndexRoundTrip) {
  // bucket_lo(idx) must be the smallest value mapping to idx, and every
  // value must land in a bucket whose lower bound does not exceed it.
  std::vector<u64> probes = {8, 9, 15, 16, 17, 100, 960, 1000, 1024, 4096};
  probes.push_back(u64{1} << 32);
  probes.push_back(u64{1} << 63);
  probes.push_back(~u64{0});
  for (const u64 v : probes) {
    const u32 idx = LogHistogram::bucket_index(v);
    EXPECT_LE(LogHistogram::bucket_lo(idx), v) << "value " << v;
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_lo(idx)), idx)
        << "bucket_lo(" << idx << ") maps to a different bucket";
    if (LogHistogram::bucket_lo(idx) > 0) {
      EXPECT_LT(LogHistogram::bucket_index(LogHistogram::bucket_lo(idx) - 1), idx)
          << "bucket_lo(" << idx << ") is not the smallest member";
    }
  }
}

TEST(LogHistogram, RelativeErrorBoundedBySubBucketWidth) {
  // Each bucket's width is at most 1/8 of its lower bound (kSubBucketBits
  // = 3), so reporting bucket_lo never understates by more than 12.5%.
  for (u64 v = 1; v < (u64{1} << 20); v = v * 3 + 1) {
    const u64 lo = LogHistogram::bucket_lo(LogHistogram::bucket_index(v));
    EXPECT_LE(v - lo, lo / (u64{1} << LogHistogram::kSubBucketBits) + 1)
        << "value " << v << " lower bound " << lo;
  }
}

TEST(LogHistogram, QuantilesOnKnownData) {
  LogHistogram h;
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // Quantiles report the bucket's conservative lower bound.
  EXPECT_EQ(h.quantile(0.0), 1u);
  const u64 p50 = h.quantile(0.50);
  EXPECT_LE(p50, 50u);
  EXPECT_GE(p50, 44u);  // 50 lives in bucket [48,52); lower bound >= 44 at 12.5%
  EXPECT_LE(h.quantile(0.99), 100u);
  EXPECT_EQ(h.quantile(1.0), LogHistogram::bucket_lo(LogHistogram::bucket_index(100)));
}

TEST(LogHistogram, QuantilesStayWithinRecordedRange) {
  // 1000 shares a bucket whose lower bound is below it; a quantile must
  // never report a value no sample had.
  LogHistogram h;
  h.record(1000, 64);
  ASSERT_LT(LogHistogram::bucket_lo(LogHistogram::bucket_index(1000)), 1000u);
  EXPECT_EQ(h.quantile(0.0), 1000u);
  EXPECT_EQ(h.quantile(0.50), 1000u);
  EXPECT_EQ(h.quantile(0.99), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  h.record(250, 3);
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(LogHistogram, EmptyHistogramIsZero) {
  const LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(LogHistogram, MergeMatchesSingleShardRecording) {
  // Shard-and-merge must be indistinguishable from recording everything
  // into one histogram, regardless of how values are split.
  LogHistogram whole;
  LogHistogram shard_a;
  LogHistogram shard_b;
  for (u64 v = 0; v < 1000; ++v) {
    const u64 sample = (v * 2654435761u) % 100000;
    whole.record(sample);
    (v % 3 == 0 ? shard_a : shard_b).record(sample);
  }
  LogHistogram merged_ab = shard_a;
  merged_ab.merge(shard_b);
  LogHistogram merged_ba = shard_b;
  merged_ba.merge(shard_a);
  for (const LogHistogram* m : {&merged_ab, &merged_ba}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->sum(), whole.sum());
    EXPECT_EQ(m->min(), whole.min());
    EXPECT_EQ(m->max(), whole.max());
    EXPECT_EQ(m->buckets(), whole.buckets()) << "merge is not order-independent";
  }
}

TEST(LogHistogram, WeightedRecordEqualsRepeatedRecord) {
  LogHistogram repeated;
  LogHistogram weighted;
  for (int i = 0; i < 37; ++i) repeated.record(960);
  weighted.record(960, 37);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.sum(), repeated.sum());
  EXPECT_EQ(weighted.buckets(), repeated.buckets());
  EXPECT_EQ(weighted.quantile(0.999), repeated.quantile(0.999));
}

TEST(LogHistogram, ClearResetsEverything) {
  LogHistogram h;
  h.record(123, 5);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.record(7);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
}

}  // namespace
}  // namespace srbsg
