#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace srbsg::trace {
namespace {

u32 sample_gap(Rng& rng, u32 mean) {
  if (mean == 0) return 0;
  // Geometric-ish gap with the requested mean, capped to keep traces sane.
  const double u = std::max(rng.next_double(), 1e-12);
  const double g = -std::log(u) * static_cast<double>(mean);
  return static_cast<u32>(std::min(g, 32.0 * static_cast<double>(mean)));
}

TraceRecord make_record(Rng& rng, const GeneratorOptions& opt, u64 addr) {
  TraceRecord r;
  r.instruction_gap = sample_gap(rng, opt.mean_instruction_gap);
  r.is_write = rng.next_bool(opt.write_ratio);
  r.addr = addr;
  r.data = pcm::DataClass::kMixed;
  return r;
}

}  // namespace

Trace make_uniform(const GeneratorOptions& opt) {
  Rng rng(opt.seed);
  Trace t("uniform");
  t.reserve(opt.accesses);
  for (u64 i = 0; i < opt.accesses; ++i) {
    t.add(make_record(rng, opt, rng.next_below(opt.lines)));
  }
  return t;
}

Trace make_sequential(const GeneratorOptions& opt) {
  Rng rng(opt.seed);
  Trace t("sequential");
  t.reserve(opt.accesses);
  for (u64 i = 0; i < opt.accesses; ++i) {
    t.add(make_record(rng, opt, i % opt.lines));
  }
  return t;
}

Trace make_zipf(const GeneratorOptions& opt, double alpha) {
  check(alpha > 0.0, "make_zipf: alpha must be positive");
  Rng rng(opt.seed);
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
  u64 mix_state = opt.seed ^ 0x9e3779b97f4a7c15ULL;
  const u64 scatter = splitmix64(mix_state) | 1;  // odd => bijective mod 2^k

  Trace t("zipf");
  t.reserve(opt.accesses);
  for (u64 i = 0; i < opt.accesses; ++i) {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const u64 rank = static_cast<u64>(it - cdf.begin());
    const u64 addr = (rank * scatter) % opt.lines;
    t.add(make_record(rng, opt, addr));
  }
  return t;
}

Trace make_hotspot(const GeneratorOptions& opt, double hot_fraction, double hot_traffic) {
  check(hot_fraction > 0.0 && hot_fraction < 1.0, "make_hotspot: bad hot fraction");
  check(hot_traffic > 0.0 && hot_traffic < 1.0, "make_hotspot: bad hot traffic");
  Rng rng(opt.seed);
  const u64 hot_lines = std::max<u64>(1, static_cast<u64>(hot_fraction *
                                                          static_cast<double>(opt.lines)));
  Trace t("hotspot");
  t.reserve(opt.accesses);
  for (u64 i = 0; i < opt.accesses; ++i) {
    u64 addr;
    if (rng.next_bool(hot_traffic)) {
      addr = rng.next_below(hot_lines);
    } else {
      addr = hot_lines + rng.next_below(opt.lines - hot_lines);
    }
    t.add(make_record(rng, opt, addr));
  }
  return t;
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
