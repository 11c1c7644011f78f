#include "telemetry/histogram.hpp"

#include <algorithm>
#include <bit>

namespace srbsg::telemetry {

u32 LogHistogram::bucket_index(u64 v) {
  if (v < (u64{1} << kSubBucketBits)) return static_cast<u32>(v);
  // Octave of the leading bit, then the next kSubBucketBits bits select
  // the sub-bucket; the layout is continuous: bucket_lo(idx + 1) is the
  // first value past bucket idx.
  const u32 h = static_cast<u32>(std::bit_width(v)) - 1;
  const u32 sub = static_cast<u32>((v >> (h - kSubBucketBits)) & ((u64{1} << kSubBucketBits) - 1));
  return ((h - kSubBucketBits + 1) << kSubBucketBits) | sub;
}

u64 LogHistogram::bucket_lo(u32 idx) {
  if (idx < (u32{1} << kSubBucketBits)) return idx;
  const u32 octave = idx >> kSubBucketBits;
  const u64 sub = idx & ((u32{1} << kSubBucketBits) - 1);
  return ((u64{1} << kSubBucketBits) | sub) << (octave - 1);
}

void LogHistogram::record(u64 v, u64 weight) {
  if (weight == 0) return;
  const u32 idx = bucket_index(v);
  if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
  counts_[idx] += weight;
  count_ += weight;
  sum_ += v * weight;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.size() < other.counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

u64 LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample among `count_` sorted samples; the double
  // product is exact for every realistic count and identical on every
  // IEEE-754 platform, so serialized quantiles stay deterministic.
  const u64 rank = static_cast<u64>(q * static_cast<double>(count_ - 1));
  // A bucket's lower bound can undercut the smallest recorded sample;
  // clamping keeps every quantile inside the observed [min, max].
  u64 cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > rank) return std::clamp(bucket_lo(static_cast<u32>(i)), min_, max_);
  }
  return max_;
}

void LogHistogram::clear() {
  counts_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = ~u64{0};
  max_ = 0;
}

}  // namespace srbsg::telemetry
