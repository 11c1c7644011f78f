#pragma once
// Deterministic, fast random number generation (xoshiro256** seeded by
// SplitMix64). Every stochastic component of the simulator takes an
// explicit seed so experiments are exactly reproducible; nothing reads
// std::random_device.

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace srbsg {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr u64 splitmix64(u64& state) {
  state += 0x9e3779b97f4a7c15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
///
/// The draws are defined here so they inline into the loops that make
/// them (the trace generators draw two or three per record).
class Rng {
 public:
  using result_type = u64;

  explicit Rng(u64 seed = 0x5eed5eed5eed5eedULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~u64{0}; }

  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  u64 next() {
    const u64 result = std::rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound); bound must be nonzero.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  u64 next_below(u64 bound) {
    check(bound != 0, "next_below: bound must be nonzero");
    u64 x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<u64>(m);
    if (lo < bound) {
      const u64 threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<u64>(m);
      }
    }
    return static_cast<u64>(m >> 64);
  }

  /// Uniform value in [lo, hi] inclusive.
  u64 next_in(u64 lo, u64 hi);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability p.
  bool next_bool(double p = 0.5) { return next_double() < p; }

  /// Fisher-Yates shuffle of a span.
  template <class T>
  void shuffle(std::span<T> data) {
    for (u64 i = data.size(); i > 1; --i) {
      u64 j = next_below(i);
      using std::swap;
      swap(data[i - 1], data[j]);
    }
  }

  /// Fork a statistically independent child generator (for threads).
  [[nodiscard]] Rng fork();

 private:
  std::array<u64, 4> s_{};
};

/// Draw `n` distinct values in [0, bound). O(n) expected when n << bound.
[[nodiscard]] std::vector<u64> sample_distinct(Rng& rng, u64 bound, u64 n);

}  // namespace srbsg
