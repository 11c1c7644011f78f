#include "trace/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace srbsg::trace {
namespace {

/// Largest mean gap whose 32x cap still fits the record's 32-bit gap.
constexpr u32 kMaxMeanGap = ~u32{0} / 32;

/// Rejects what generator `gen` cannot serve: fewer than `min_lines`
/// lines, or a mean gap whose capped draw overflows 32 bits.
void check_options(const GeneratorOptions& opt, const std::string& gen, u64 min_lines) {
  check(opt.lines >= min_lines,
        gen + ": lines must be at least " + std::to_string(min_lines));
  check(opt.mean_instruction_gap <= kMaxMeanGap,
        gen + ": mean_instruction_gap must be at most " + std::to_string(kMaxMeanGap));
}

/// The loop every generator runs: per record, the address draws of
/// `next_addr(rng)`, then the gap draw, then the write flag. A template,
/// so the whole body, Rng draws included, inlines into each generator.
template <class NextAddr>
Trace generate(const char* name, const GeneratorOptions& opt, NextAddr next_addr) {
  Rng rng(opt.seed);
  const u32 mean = opt.mean_instruction_gap;
  Trace t(name);
  t.reserve(opt.accesses);
  for (u64 i = 0; i < opt.accesses; ++i) {
    const u64 addr = next_addr(rng);
    u32 gap = 0;
    if (mean != 0) {
      // Geometric-ish gap with the requested mean, capped to keep traces sane.
      const double u = std::max(rng.next_double(), 1e-12);
      const double g = -std::log(u) * static_cast<double>(mean);
      gap = static_cast<u32>(std::min(g, 32.0 * static_cast<double>(mean)));
    }
    const bool is_write = rng.next_bool(opt.write_ratio);
    t.add({.instruction_gap = gap, .is_write = is_write, .data = pcm::DataClass::kMixed,
           .addr = addr});
  }
  return t;
}

}  // namespace

Trace make_uniform(const GeneratorOptions& opt) {
  check_options(opt, "make_uniform", 1);
  return generate("uniform", opt, [&](Rng& rng) { return rng.next_below(opt.lines); });
}

Trace make_sequential(const GeneratorOptions& opt) {
  check_options(opt, "make_sequential", 1);
  u64 next = 0;
  return generate("sequential", opt, [&](Rng&) {
    const u64 addr = next;
    next = next + 1 == opt.lines ? 0 : next + 1;
    return addr;
  });
}

Trace make_zipf(const GeneratorOptions& opt, double alpha) {
  check_options(opt, "make_zipf", 1);
  check(alpha > 0.0, "make_zipf: alpha must be positive");
  // Build the CDF over a capped rank universe, then scatter ranks across
  // the address space with a cheap bijective mix.
  const u64 ranks = std::min<u64>(opt.lines, 1u << 16);
  std::vector<double> cdf(ranks);
  double sum = 0.0;
  for (u64 r = 0; r < ranks; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
    cdf[r] = sum;
  }
  for (auto& v : cdf) v /= sum;
  // Guide table: guide[j] is the first rank whose CDF reaches j/G, for G
  // the smallest power of two >= ranks. A draw u starts its search at
  // guide[floor(u*G)] and scans forward to the first rank whose CDF
  // reaches u, which is exactly std::lower_bound's answer: u*G and j/G
  // are exact at a power-of-two G, so j/G <= u and the start is at or
  // before that rank; the CDF does not decrease, and its last entry is
  // exactly 1.0 > u, so the scan stops inside the table.
  const u64 guides = std::bit_ceil(ranks);
  const auto scale = static_cast<double>(guides);
  std::vector<u32> guide(guides);
  for (u64 j = 0, r = 0; j < guides; ++j) {
    while (cdf[r] < static_cast<double>(j) / scale) ++r;
    guide[j] = static_cast<u32>(r);
  }
  // Each rank's line: rank * scatter mod lines, for an odd multiplier
  // coprime to the width, maps the ranks onto distinct lines. At a
  // power-of-two width every odd multiplier is coprime, and the 128-bit
  // product's residue equals the wrapped 64-bit product's.
  u64 mix_state = opt.seed ^ 0x9e3779b97f4a7c15ULL;
  u64 scatter = splitmix64(mix_state) | 1;
  while (std::gcd(scatter % opt.lines, opt.lines) != 1) scatter += 2;
  std::vector<u64> line_of(ranks);
  for (u64 r = 0; r < ranks; ++r) {
    line_of[r] = static_cast<u64>(static_cast<__uint128_t>(r) * scatter % opt.lines);
  }

  return generate("zipf", opt, [&](Rng& rng) {
    const double u = rng.next_double();
    u64 rank = guide[static_cast<u64>(u * scale)];
    while (cdf[rank] < u) ++rank;
    return line_of[rank];
  });
}

Trace make_hotspot(const GeneratorOptions& opt, double hot_fraction, double hot_traffic) {
  check_options(opt, "make_hotspot", 2);
  check(hot_fraction > 0.0 && hot_fraction < 1.0, "make_hotspot: bad hot fraction");
  check(hot_traffic > 0.0 && hot_traffic < 1.0, "make_hotspot: bad hot traffic");
  const u64 hot_lines = std::max<u64>(1, static_cast<u64>(hot_fraction *
                                                          static_cast<double>(opt.lines)));
  return generate("hotspot", opt, [&](Rng& rng) {
    if (rng.next_bool(hot_traffic)) return rng.next_below(hot_lines);
    return hot_lines + rng.next_below(opt.lines - hot_lines);
  });
}

void uniform_address_block(u64 lines, u64 seed, u64 start, std::span<u64> out) {
  check(lines != 0, "uniform_address_block: lines must be nonzero");
  // Lemire multiply-shift with rejection (same method as Rng::next_below),
  // but over a stateless per-element splitmix64 stream.
  const u64 threshold = (0 - lines) % lines;
  for (std::size_t i = 0; i < out.size(); ++i) {
    u64 s = seed + (start + i) * 0x9e3779b97f4a7c15ULL;
    u64 x = splitmix64(s);
    __uint128_t m = static_cast<__uint128_t>(x) * lines;
    auto lo = static_cast<u64>(m);
    while (lo < threshold) {
      x = splitmix64(s);
      m = static_cast<__uint128_t>(x) * lines;
      lo = static_cast<u64>(m);
    }
    out[i] = static_cast<u64>(m >> 64);
  }
}

}  // namespace srbsg::trace
