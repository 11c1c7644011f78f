// Fig. 15 — average lifetime of Security RBSG under RAA over the Table-I
// grid. Paper observations: lifetime grows with the inner interval and
// the number of sub-regions, and (unlike SR2) grows with the outer
// interval too, because the inner level is Start-Gap; the recommended
// configuration exceeds 108 months.
//
// Same scaling recipe as fig13: lines, region size and intervals divided
// by a common factor to preserve the regime ratios (see that file).

#include <algorithm>
#include <vector>

#include "analytic/lifetime_models.hpp"
#include "bench_util.hpp"
#include "common/bitops.hpp"

int main(int argc, char** argv) {
  using namespace srbsg;
  using namespace srbsg::bench;

  const BenchOptions opts =
      parse_bench_options(argc, argv, kFlagThreads | kFlagScale | kFlagEngine);

  print_header("Fig. 15: Security RBSG under RAA",
               ">108 months at the recommended configuration");

  const auto paper = pcm::PcmConfig::paper_bank();
  const double paper_ideal = analytic::ideal_lifetime_ns(paper);

  const u64 scaled_lines = opts.lines_or(full_mode() ? (1u << 12) : (1u << 11));
  const u64 interval_shift = 3;  // ψ/8
  const u64 region_shift = 4;    // R/16
  const u64 scaled_endurance = full_mode() ? (1u << 17) : (1u << 16);
  const auto scaled = pcm::PcmConfig::scaled(scaled_lines, scaled_endurance);
  const double scaled_ideal = analytic::ideal_lifetime_ns(scaled);

  Table t({"sub-regions", "psi_in", "psi_out", "sim RAA (scaled)", "fraction of ideal",
           "extrapolated (paper scale)"});

  const std::vector<u64> inners =
      full_mode() ? std::vector<u64>{16, 32, 64, 128} : std::vector<u64>{32, 64, 128};
  const std::vector<u64> outers = full_mode() ? std::vector<u64>{16, 32, 64, 128, 256}
                                              : std::vector<u64>{16, 64, 256};
  std::vector<sim::LifetimeConfig> configs;
  for (u64 sub_regions : {256u, 512u, 1024u}) {
    for (u64 inner : inners) {
      for (u64 outer : outers) {
        sim::LifetimeConfig c;
        c.pcm = scaled;
        c.scheme.kind = wl::SchemeKind::kSecurityRbsg;
        c.scheme.lines = scaled_lines;
        c.scheme.regions = sub_regions >> region_shift;
        c.scheme.inner_interval = std::max<u64>(2, inner >> interval_shift);
        c.scheme.outer_interval = std::max<u64>(2, outer >> interval_shift);
        c.scheme.stages = 7;
        c.scheme.seed = 9;
        c.attack = sim::AttackKind::kRaa;
        c.write_budget = u64{1} << 40;
        c.engine = opts.engine;
        configs.push_back(c);
      }
    }
  }
  ThreadPool pool(opts.threads);
  const auto entries = sim::run_sweep(configs, pool);

  std::size_t idx = 0;
  for (u64 sub_regions : {256u, 512u, 1024u}) {
    for (u64 inner : inners) {
      for (u64 outer : outers) {
        const auto& out = entries[idx++].outcome;
        const double measured =
            out.result.succeeded ? static_cast<double>(out.result.lifetime.value()) : 0.0;
        const double fraction = measured / scaled_ideal;
        t.add_row({std::to_string(sub_regions), std::to_string(inner),
                   std::to_string(outer), measured > 0 ? dur(measured) : "budget",
                   fmt_double(fraction, 3),
                   measured > 0 ? dur(fraction * paper_ideal) : "-"});
      }
    }
  }
  t.print(std::cout);

  std::cout << "\npaper: >108 months = " << dur(108.0 * 30.44 * 86400e9)
            << " at (512, 64, 128); trends to check: lifetime rises with psi_in,\n"
               "with sub-regions, and with psi_out (the Start-Gap inner level makes\n"
               "RAA writes walk forward within an outer round).\n";
  return 0;
}
