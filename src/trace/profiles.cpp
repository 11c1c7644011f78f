#include "trace/profiles.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace srbsg::trace {
namespace {

// Intensities are memory-side (post DRAM-cache) misses per kilo-instruction.
const std::vector<WorkloadProfile> kParsec = {
    {"blackscholes", "parsec", 0.25, 0.08, 0.9, 0.05},
    {"bodytrack", "parsec", 0.90, 0.35, 0.8, 0.10},
    {"canneal", "parsec", 4.20, 1.10, 0.6, 0.60},
    {"dedup", "parsec", 2.10, 1.40, 0.7, 0.35},
    {"facesim", "parsec", 1.80, 0.90, 0.8, 0.30},
    {"ferret", "parsec", 1.50, 0.60, 0.7, 0.25},
    {"fluidanimate", "parsec", 1.20, 0.80, 0.8, 0.20},
    {"freqmine", "parsec", 1.00, 0.40, 0.8, 0.15},
    {"raytrace", "parsec", 0.70, 0.20, 0.9, 0.12},
    {"streamcluster", "parsec", 3.50, 1.20, 0.5, 0.45},
    {"swaptions", "parsec", 0.30, 0.10, 0.9, 0.04},
    {"vips", "parsec", 1.10, 0.70, 0.7, 0.18},
    {"x264", "parsec", 1.30, 0.90, 0.7, 0.22},
};

const std::vector<WorkloadProfile> kSpec = {
    {"perlbench", "spec2006", 0.30, 0.10, 0.9, 0.05},
    {"bzip2", "spec2006", 0.08, 0.02, 1.0, 0.02},
    {"gcc", "spec2006", 0.10, 0.03, 1.0, 0.03},
    {"bwaves", "spec2006", 1.90, 0.50, 0.6, 0.40},
    {"gamess", "spec2006", 0.12, 0.03, 1.0, 0.02},
    {"mcf", "spec2006", 3.80, 0.70, 0.5, 0.70},
    {"milc", "spec2006", 2.30, 0.60, 0.6, 0.45},
    {"zeusmp", "spec2006", 1.00, 0.30, 0.7, 0.25},
    {"gromacs", "spec2006", 0.25, 0.08, 0.9, 0.06},
    {"cactusADM", "spec2006", 1.20, 0.40, 0.7, 0.30},
    {"leslie3d", "spec2006", 1.60, 0.45, 0.6, 0.35},
    {"namd", "spec2006", 0.15, 0.04, 0.9, 0.04},
    {"gobmk", "spec2006", 0.20, 0.06, 0.9, 0.04},
    {"dealII", "spec2006", 0.40, 0.12, 0.8, 0.08},
    {"soplex", "spec2006", 1.40, 0.35, 0.7, 0.28},
    {"povray", "spec2006", 0.10, 0.03, 1.0, 0.02},
    {"calculix", "spec2006", 0.30, 0.09, 0.8, 0.06},
    {"hmmer", "spec2006", 0.18, 0.05, 0.9, 0.03},
    {"sjeng", "spec2006", 0.22, 0.06, 0.9, 0.04},
    {"GemsFDTD", "spec2006", 2.00, 0.55, 0.6, 0.40},
    {"libquantum", "spec2006", 2.60, 0.40, 0.5, 0.30},
    {"h264ref", "spec2006", 0.35, 0.12, 0.8, 0.07},
    {"tonto", "spec2006", 0.28, 0.08, 0.8, 0.05},
    {"lbm", "spec2006", 3.10, 1.00, 0.5, 0.50},
    {"omnetpp", "spec2006", 1.70, 0.45, 0.6, 0.35},
    {"astar", "spec2006", 0.90, 0.25, 0.7, 0.18},
    {"xalancbmk", "spec2006", 1.10, 0.30, 0.7, 0.20},
};

}  // namespace

std::span<const WorkloadProfile> parsec_profiles() { return kParsec; }

std::span<const WorkloadProfile> spec2006_profiles() { return kSpec; }

Trace make_profile_trace(const WorkloadProfile& profile, u64 lines, u64 instructions,
                         u64 seed) {
  check(lines > 0 && instructions > 0, "make_profile_trace: bad sizes");
  Rng rng(seed);
  const double total_mpki = profile.read_mpki + profile.write_mpki;
  const auto accesses =
      static_cast<u64>(total_mpki * static_cast<double>(instructions) / 1000.0);
  const double write_prob = total_mpki > 0.0 ? profile.write_mpki / total_mpki : 0.0;
  const u32 mean_gap =
      accesses > 0 ? static_cast<u32>(instructions / std::max<u64>(accesses, 1)) : 1000;

  const u64 footprint_lines =
      std::max<u64>(16, static_cast<u64>(profile.footprint * static_cast<double>(lines)));

  // Zipf CDF over a capped rank universe scattered across the footprint.
  const u64 ranks = std::min<u64>(footprint_lines, 1u << 14);
  std::vector<double> cdf(ranks);
  double sum = 0.0;
  for (u64 r = 0; r < ranks; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), profile.zipf_alpha);
    cdf[r] = sum;
  }
  for (auto& v : cdf) v /= sum;
  // Each rank's line: rank * scatter mod footprint, for an odd multiplier
  // stepped until it is coprime to the footprint, maps the ranks onto
  // distinct lines (as make_zipf does); the product is taken in 128 bits
  // so it does not wrap before the reduction.
  u64 mix_state = seed ^ 0xc0ffee;
  u64 scatter = splitmix64(mix_state) | 1;
  while (std::gcd(scatter % footprint_lines, footprint_lines) != 1) scatter += 2;
  std::vector<u64> line_of(ranks);
  for (u64 r = 0; r < ranks; ++r) {
    line_of[r] = static_cast<u64>(static_cast<__uint128_t>(r) * scatter % footprint_lines);
  }

  Trace t(profile.suite + "." + profile.name);
  t.reserve(accesses);
  for (u64 i = 0; i < accesses; ++i) {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const u64 rank = static_cast<u64>(it - cdf.begin());
    TraceRecord rec;
    rec.instruction_gap = mean_gap;
    rec.is_write = rng.next_bool(write_prob);
    rec.addr = line_of[rank];
    rec.data = pcm::DataClass::kMixed;
    t.add(rec);
  }
  return t;
}

}  // namespace srbsg::trace
