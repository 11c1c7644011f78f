// Batch sweep tool: run a (scheme × attack × seed) grid from the command
// line and emit one CSV row per run — the glue for plotting your own
// figures or extending the paper's grids.
//
//   ./sweep_csv [lines] [endurance] [seeds]
//
// Columns: scheme,attack,regions,inner,outer,stages,seed,succeeded,
//          lifetime_ns,writes,max_wear,max_over_mean

#include <iostream>

#include "common/check.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  using namespace srbsg;
  using sim::AttackKind;

  const u64 lines = argc > 1 ? parse_u64(argv[1], "lines") : 2048;
  const u64 endurance = argc > 2 ? parse_u64(argv[2], "endurance") : 16384;
  const u64 seeds = argc > 3 ? parse_u64(argv[3], "seeds") : 2;

  std::vector<sim::LifetimeConfig> configs;
  for (auto scheme : {wl::SchemeKind::kRbsg, wl::SchemeKind::kSr2,
                      wl::SchemeKind::kSecurityRbsg}) {
    for (auto attack : {AttackKind::kRaa, AttackKind::kBpa, AttackKind::kRta}) {
      for (u64 seed = 1; seed <= seeds; ++seed) {
        sim::LifetimeConfig c;
        c.pcm = pcm::PcmConfig::scaled(lines, endurance);
        c.scheme.kind = scheme;
        c.scheme.lines = lines;
        c.scheme.regions = lines / 64;
        c.scheme.inner_interval = 8;
        c.scheme.outer_interval = 16;
        c.scheme.stages = 7;
        c.scheme.seed = seed;
        c.seed = seed;
        c.attack = attack;
        c.write_budget = 64 * lines * endurance / 8;
        configs.push_back(c);
      }
    }
  }

  ThreadPool pool;
  const auto entries = sim::run_sweep(configs, pool);

  std::cout << "scheme,attack,regions,inner,outer,stages,seed,succeeded,lifetime_ns,"
               "writes,max_wear,max_over_mean\n";
  for (const auto& e : entries) {
    const auto& s = e.config.scheme;
    const auto& r = e.outcome.result;
    std::cout << wl::to_string(s.kind) << ',' << sim::to_string(e.config.attack) << ','
              << s.regions << ',' << s.inner_interval << ',' << s.outer_interval << ','
              << s.stages << ',' << e.config.seed << ',' << (r.succeeded ? 1 : 0) << ','
              << r.lifetime.value() << ',' << r.writes << ',' << e.outcome.wear.max << ','
              << fmt_double(e.outcome.wear.max_over_mean, 5) << '\n';
  }
  return 0;
} catch (const srbsg::CheckFailure& e) {
  std::cerr << "sweep_csv: " << e.what() << "\n";
  return 2;
}
