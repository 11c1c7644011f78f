// Wear visualizer: replay a synthetic workload against a chosen scheme
// and dump the per-line wear plus the Fig.16-style cumulative curve as
// CSV (pipe into your plotting tool of choice).
//
//   ./wear_visualize [scheme] [pattern] [writes]
//     scheme:  none | start-gap | rbsg | sr1 | sr2 | mwsr | security-rbsg
//     pattern: raa | uniform | zipf | hotspot | sequential

#include <iostream>
#include <string>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "controller/memory_controller.hpp"
#include "trace/generators.hpp"
#include "wl/factory.hpp"

int main(int argc, char** argv) try {
  using namespace srbsg;

  const std::string scheme_name = argc > 1 ? argv[1] : "security-rbsg";
  const std::string pattern = argc > 2 ? argv[2] : "raa";
  const u64 writes = argc > 3 ? parse_u64(argv[3], "writes") : 4'000'000;
  const u64 lines = 1u << 14;

  wl::SchemeSpec spec;
  spec.kind = wl::parse_scheme(scheme_name);
  spec.lines = lines;
  spec.regions = 64;
  spec.inner_interval = 64;
  spec.outer_interval = 128;
  spec.stages = 7;

  ctl::MemoryController mc(pcm::PcmConfig::scaled(lines, u64{1} << 40),
                           wl::make_scheme(spec));

  if (pattern == "raa") {
    mc.write_repeated(La{0}, pcm::LineData::mixed(), writes);
  } else {
    trace::GeneratorOptions opt;
    opt.lines = lines;
    opt.accesses = writes;
    opt.write_ratio = 1.0;
    opt.seed = 13;
    trace::Trace trc;
    if (pattern == "uniform") {
      trc = trace::make_uniform(opt);
    } else if (pattern == "zipf") {
      trc = trace::make_zipf(opt, 1.1);
    } else if (pattern == "hotspot") {
      trc = trace::make_hotspot(opt, 0.05, 0.9);
    } else if (pattern == "sequential") {
      trc = trace::make_sequential(opt);
    } else {
      std::cerr << "unknown pattern: " << pattern << "\n";
      return 1;
    }
    for (const auto& rec : trc) {
      mc.write(La{rec.addr}, pcm::LineData::mixed(rec.addr));
    }
  }

  const auto wear = mc.bank().wear_counts();
  const auto curve = normalized_cumulative(wear, 64);
  const auto metrics = compute_wear_metrics(wear);

  std::cerr << "# scheme=" << scheme_name << " pattern=" << pattern << " writes=" << writes
            << " max/mean=" << metrics.max_over_mean << " gini=" << metrics.gini << "\n";

  std::cout << "section,index,value\n";
  // Down-sample the wear landscape to 256 buckets for plotting.
  const std::size_t buckets = 256;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t lo = b * wear.size() / buckets;
    const std::size_t hi = (b + 1) * wear.size() / buckets;
    u64 sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += wear[i];
    std::cout << "wear," << b << "," << sum << "\n";
  }
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::cout << "cumulative," << i << "," << curve[i] << "\n";
  }
  return 0;
} catch (const srbsg::CheckFailure& e) {
  std::cerr << "wear_visualize: " << e.what() << "\n";
  return 2;
}
