// Fig. 11 — lifetime of RBSG under RTA vs RAA, over regions {32,64,128}
// and remapping intervals {16,32,64,100}. Paper headline: with the
// recommended configuration (32 regions, ψ=100) RTA fails the bank in
// 478 s, 27435x faster than RAA. --engine picks the engine tier; every
// tier prints the same table (the bench_engine_identity ctest).

#include "analytic/lifetime_models.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace srbsg;
  using namespace srbsg::bench;

  const BenchOptions opts =
      parse_bench_options(argc, argv, kFlagThreads | kFlagScale | kFlagEngine);

  print_header("Fig. 11: RBSG under RTA and RAA",
               "RTA 478 s @ (R=32, psi=100); RAA 27435x slower");

  const auto paper = pcm::PcmConfig::paper_bank();
  const u64 scaled_lines = opts.lines_or(full_mode() ? (1u << 15) : (1u << 13));
  const u64 scaled_endurance = 51'200;  // >= 2 rotations for every config

  Table t({"R", "psi", "model RTA (paper scale)", "model RAA (paper scale)", "RTA/RAA",
           "sim RTA (scaled)", "sim RAA (scaled)"});

  // The grid runs as one sweep (RTA and RAA interleaved per shape) so the
  // pool keeps every core busy and the arena recycles one bank per worker.
  std::vector<sim::LifetimeConfig> configs;
  for (u64 regions : {32u, 64u, 128u}) {
    for (u64 interval : {16u, 32u, 64u, 100u}) {
      sim::LifetimeConfig c;
      c.pcm = pcm::PcmConfig::scaled(scaled_lines, scaled_endurance);
      c.scheme.kind = wl::SchemeKind::kRbsg;
      c.scheme.lines = scaled_lines;
      c.scheme.regions = regions;
      c.scheme.inner_interval = interval;
      c.scheme.seed = 5;
      c.attack = sim::AttackKind::kRta;
      c.write_budget = u64{1} << 36;
      c.engine = opts.engine;
      configs.push_back(c);
      c.attack = sim::AttackKind::kRaa;
      configs.push_back(c);
    }
  }
  ThreadPool pool(opts.threads);
  const auto entries = sim::run_sweep(configs, pool);

  auto cell = [](const sim::SweepEntry& e) {
    return e.outcome.result.succeeded
               ? fmt_duration_ns(static_cast<double>(e.outcome.result.lifetime.value()))
               : std::string("budget");
  };
  std::size_t idx = 0;
  for (u64 regions : {32u, 64u, 128u}) {
    for (u64 interval : {16u, 32u, 64u, 100u}) {
      const analytic::RbsgShape shape{regions, interval};
      const double model_rta = analytic::rta_rbsg_ns(paper, shape).total_ns;
      const double model_raa = analytic::raa_rbsg_ns(paper, shape);
      const auto& rta = entries[idx++];
      const auto& raa = entries[idx++];
      t.add_row({std::to_string(regions), std::to_string(interval), dur(model_rta),
                 dur(model_raa), fmt_double(model_raa / model_rta, 4), cell(rta), cell(raa)});
    }
  }
  t.print(std::cout);

  const auto headline = analytic::rta_rbsg_ns(paper, analytic::RbsgShape{32, 100});
  std::cout << "\nheadline: model RTA at the recommended config = "
            << dur(headline.total_ns) << " (paper: 478 s); speedup over RAA = "
            << fmt_double(analytic::raa_rbsg_ns(paper, analytic::RbsgShape{32, 100}) /
                              headline.total_ns,
                          5)
            << "x (paper: 27435x)\n"
            << "note: our wear phase floods ALL-0 (125 ns writes), a strictly\n"
            << "stronger attacker than the paper's, hence the shorter lifetime.\n";
  return 0;
}
