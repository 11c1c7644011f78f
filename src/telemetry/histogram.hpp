#pragma once
// Log-bucketed latency histogram (HDR-style, integer-only).
//
// Buckets cover the full u64 range with a bounded relative error: values
// below 2^kSubBucketBits are exact, larger values share an octave split
// into 2^kSubBucketBits sub-buckets, so every bucket's width is at most
// 1/2^kSubBucketBits of its lower bound. Recording is O(1) (a bit-width
// computation plus one array add), merging is element-wise addition, and
// quantiles walk the cumulative counts — everything is integer
// arithmetic on deterministic inputs, which is what keeps serialized
// histograms byte-identical across worker counts (DESIGN.md §16).

#include <vector>

#include "common/types.hpp"

namespace srbsg::telemetry {

class LogHistogram {
 public:
  /// Sub-buckets per octave as a power of two: 8 sub-buckets, so bucket
  /// boundaries are within 12.5% of each other — tight enough to
  /// separate a remap-stalled write from a plain one at any scale.
  static constexpr u32 kSubBucketBits = 3;

  /// Bucket index holding `v`. Exact below 2^kSubBucketBits; above, the
  /// octave of the leading bit plus the next kSubBucketBits bits.
  [[nodiscard]] static u32 bucket_index(u64 v);

  /// Smallest value mapping to bucket `idx` (quantiles report this
  /// conservative lower bound, clamped to the recorded range).
  [[nodiscard]] static u64 bucket_lo(u32 idx);

  /// Record `weight` samples of value `v` (bulk paths record a whole
  /// chunk of identical per-write latencies in one call).
  void record(u64 v, u64 weight = 1);

  /// Element-wise sum; shards merge associatively and commutatively, so
  /// the merged histogram is independent of worker count and join order.
  void merge(const LogHistogram& other);

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 sum() const { return sum_; }
  [[nodiscard]] u64 min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] u64 max() const { return max_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Lower bound of the bucket holding the q-th sample (0 <= q <= 1),
  /// clamped to [min(), max()]; 0 on an empty histogram.
  [[nodiscard]] u64 quantile(double q) const;

  /// Sparse bucket-index-ordered view; zero-count buckets are skipped.
  [[nodiscard]] const std::vector<u64>& buckets() const { return counts_; }

  void clear();

 private:
  std::vector<u64> counts_;  ///< bucket-indexed, grown lazily
  u64 count_{0};
  u64 sum_{0};
  u64 min_{~u64{0}};
  u64 max_{0};
};

}  // namespace srbsg::telemetry
