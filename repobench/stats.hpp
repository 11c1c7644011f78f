#pragma once
// Order statistics for the benchmark's own measurements: median, MAD,
// the tail percentile rule, and calibrated repetition of one call.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "timed_scheme.hpp"

namespace repobench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median absolute deviation from the median.
inline double mad(const std::vector<double>& v) {
  const double m = median(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::fabs(x - m));
  return median(std::move(dev));
}

/// The percentiles a tail may be reported at, highest last.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9};

/// Samples at or below the nearest-rank `pct` percentile of `n` >= 1
/// samples.
inline std::size_t rank_of(double pct, std::size_t n) {
  const auto k = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

struct Tail {
  double pct{0.0};     ///< the percentile chosen from kTailLadder
  double value{0.0};   ///< nearest-rank sample at that percentile
  std::size_t beyond{0};  ///< samples above that rank (always >= 10)
};

/// The highest ladder percentile with at least ten samples beyond it, so
/// the reported tail rests on more than a handful of extreme runs. Empty
/// when fewer than 20 samples leave even the median without ten beyond.
inline std::optional<Tail> tail_percentile(std::span<const double> samples) {
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  std::optional<Tail> best;
  if (v.empty()) return best;
  for (const double pct : kTailLadder) {
    const std::size_t rank = rank_of(pct, v.size());
    if (v.size() - rank < 10) break;
    best = Tail{pct, v[rank - 1], v.size() - rank};
  }
  return best;
}

/// A public call repeated until `min_seconds` of samples exist.
struct Calibrated {
  double median_ns{0.0};  ///< per call
  double mad_ns{0.0};
  u64 reps{0};  ///< calls timed
};

inline volatile u64 g_calibrate_sink = 0;

/// Times `op(i)` (which returns a value folded into a sink, so the call
/// cannot be elided) in batches of at least 20 us, so no sample is a
/// sub-microsecond single timing; reports the median and MAD over at
/// least nine batches.
template <class Op>
Calibrated calibrate(Op&& op, double min_seconds) {
  u64 sink = 0;
  u64 i = 0;
  auto batch_ns = [&](u64 batch) {
    const u64 t0 = host_ns();
    for (u64 k = 0; k < batch; ++k) sink ^= op(i++);
    return host_ns() - t0;
  };
  u64 batch = 1;
  while (batch_ns(batch) < 20'000) batch *= 2;
  std::vector<double> per_call;
  const u64 start = host_ns();
  const auto budget = static_cast<u64>(min_seconds * 1e9);
  while (per_call.size() < 9 || host_ns() - start < budget) {
    per_call.push_back(static_cast<double>(batch_ns(batch)) / static_cast<double>(batch));
  }
  g_calibrate_sink = sink;
  return Calibrated{median(per_call), mad(per_call), batch * per_call.size()};
}

}  // namespace repobench
