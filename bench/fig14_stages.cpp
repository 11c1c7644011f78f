// Fig. 14 — average lifetime of Security RBSG as a function of the
// number of DFN stages (3..20), under RAA and BPA, compared with
// two-level SR under RAA and the ideal lifetime. Paper headline: 7 stages
// reach 67.2% (RAA) / 66.4% (BPA) of ideal; BPA is insensitive to the
// stage count; 3 stages only manage ~20% under RAA.

#include "analytic/lifetime_models.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace srbsg;
  using namespace srbsg::bench;

  const BenchOptions opts =
      parse_bench_options(argc, argv, kFlagThreads | kFlagSeeds | kFlagScale | kFlagEngine);

  print_header("Fig. 14: Security RBSG lifetime vs DFN stages",
               "7 stages: 67.2% ideal (RAA), 66.4% (BPA); 3 stages ~20% (RAA)");

  const u64 lines = opts.lines_or(full_mode() ? (1u << 12) : (1u << 11));
  // Regime: the fraction-of-ideal is governed by E / visit wear, where a
  // visit deposits (M+1)·ψ_in = 520 writes on one slot. The paper's ratio
  // is E/visit ≈ 190; E = 65536 gives ≈ 126 here, close enough for the
  // asymptotic fractions to be comparable (see EXPERIMENTS.md).
  const u64 endurance = 65536;
  const auto scaled = pcm::PcmConfig::scaled(lines, endurance);
  const double ideal = analytic::ideal_lifetime_ns(scaled);
  const double paper_ideal = analytic::ideal_lifetime_ns(pcm::PcmConfig::paper_bank());

  auto base = [&](u32 stages) {
    sim::LifetimeConfig c;
    c.pcm = scaled;
    c.scheme.kind = wl::SchemeKind::kSecurityRbsg;
    c.scheme.lines = lines;
    c.scheme.regions = lines / 64;  // suggested-shape sub-regions (M = 64)
    c.scheme.inner_interval = 8;    // keeps (M+1)·ψ_in << E at this scale
    c.scheme.outer_interval = 16;
    c.scheme.stages = stages;
    c.scheme.seed = 9;
    c.write_budget = u64{1} << 38;
    c.engine = opts.engine;
    return c;
  };

  // Reference: two-level SR under RAA at the same shape.
  sim::LifetimeConfig sr2 = base(7);
  sr2.scheme.kind = wl::SchemeKind::kSr2;
  sr2.attack = sim::AttackKind::kRaa;
  const auto sr2_out = run_lifetime(sr2);
  const double sr2_frac =
      sr2_out.result.succeeded
          ? static_cast<double>(sr2_out.result.lifetime.value()) / ideal
          : 0.0;

  // Average over seeds: at small scale a single run's fraction is noisy
  // (the failure is an extreme-value event). Non-converged replicas count
  // as zero lifetime here so a too-small budget depresses the fraction
  // visibly instead of silently shrinking the sample.
  ThreadPool pool(opts.threads);
  sim::WorkerArena arena;
  const u64 seeds = opts.seeds_or(full_mode() ? 5 : 3);
  auto avg_fraction = [&](u32 stages, sim::AttackKind attack) {
    auto cfg = base(stages);
    cfg.attack = attack;
    const sim::AverageLifetime avg = sim::average_lifetime(cfg, seeds, pool, arena);
    const double counted_sum = avg.mean_ns * static_cast<double>(avg.counted);
    return counted_sum / static_cast<double>(avg.seeds) / ideal;
  };

  Table t({"stages", "RAA fraction of ideal", "BPA fraction of ideal",
           "RAA extrapolated (paper)", "security margin (>=1 secure)"});
  for (u32 stages : {3u, 5u, 7u, 10u, 14u, 20u}) {
    const double raa_frac = avg_fraction(stages, sim::AttackKind::kRaa);
    const double bpa_frac = avg_fraction(stages, sim::AttackKind::kBpa);
    const auto margin = analytic::dfn_security_margin(
        pcm::PcmConfig::paper_bank(), analytic::SecurityRbsgShape{512, 64, 128, stages});

    t.add_row({std::to_string(stages), fmt_double(raa_frac, 3), fmt_double(bpa_frac, 3),
               dur(raa_frac * paper_ideal), fmt_double(margin, 3)});
  }
  t.print(std::cout);

  std::cout << "\ntwo-level SR under RAA at the same shape: "
            << fmt_double(sr2_frac, 3) << " of ideal (paper: ~0.66)\n"
            << "paper picks 7 stages: enough margin (>=1) and ~2/3 of ideal under RAA.\n";
  return 0;
}
