// Lifetime calculator: evaluate the paper-scale closed-form models for
// any configuration without simulating — how long does a 1 GB PCM bank
// survive under each attack?
//
//   ./lifetime_calculator [regions] [inner-interval] [outer-interval] [stages]

#include <iostream>

#include "analytic/lifetime_models.hpp"
#include "analytic/overhead.hpp"
#include "common/check.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) try {
  using namespace srbsg;
  using namespace srbsg::analytic;

  const u64 regions = argc > 1 ? parse_u64(argv[1], "regions") : 512;
  const u64 inner = argc > 2 ? parse_u64(argv[2], "inner-interval") : 64;
  const u64 outer = argc > 3 ? parse_u64(argv[3], "outer-interval") : 128;
  const u32 stages = argc > 4 ? checked_narrow<u32>(parse_u64(argv[4], "stages")) : 7u;

  const auto cfg = pcm::PcmConfig::paper_bank();
  std::cout << "1 GB PCM bank, 256 B lines, endurance 1e8, SET 1000 ns / RESET 125 ns\n\n";

  Table t({"scheme", "attack", "model lifetime", "notes"});
  t.add_row({"(none)", "RAA", fmt_duration_ns(raa_baseline_ns(cfg)), "one line, E writes"});
  t.add_row({"(ideal)", "-", fmt_duration_ns(ideal_lifetime_ns(cfg)), "perfectly uniform"});

  const RbsgShape rbsg{32, 100};
  t.add_row({"rbsg R=32 psi=100", "RAA", fmt_duration_ns(raa_rbsg_ns(cfg, rbsg)),
             "E*(M+1) writes"});
  const auto rta = rta_rbsg_ns(cfg, rbsg);
  t.add_row({"rbsg R=32 psi=100", "RTA", fmt_duration_ns(rta.total_ns),
             "paper: 478 s"});

  const Sr2Shape sr2{regions, inner, outer};
  const auto sr2_rta = rta_sr2_ns(cfg, sr2);
  t.add_row({"sr2 R=" + std::to_string(regions), "RTA", fmt_duration_ns(sr2_rta.total_ns),
             std::to_string(static_cast<u64>(sr2_rta.rounds)) + " outer rounds"});
  t.add_row({"sr2 R=" + std::to_string(regions), "RAA",
             fmt_duration_ns(raa_sr2_ns(cfg, 0.66)), "paper: ~105 months"});

  t.add_row({"security-rbsg S=" + std::to_string(stages), "RAA",
             fmt_duration_ns(security_rbsg_fraction_ns(cfg, 0.672)),
             "67.2% of ideal (paper Fig. 14)"});
  t.print(std::cout);

  const SecurityRbsgShape shape{regions, inner, outer, stages};
  const auto margin = dfn_security_margin(cfg, shape);
  const auto overhead = security_rbsg_overhead(cfg, OverheadShape{regions, inner, outer,
                                                                  stages});
  std::cout << "\nDFN security margin (key-detection writes / round writes): "
            << fmt_double(margin, 3) << (margin >= 1.0 ? "  [secure]" : "  [LEAKY]")
            << "\nminimum secure stages at this config: "
            << min_secure_stages(cfg, shape) << "\n\nhardware overhead: "
            << fmt_double(static_cast<double>(overhead.register_bits) / 8.0 / 1024.0, 3)
            << " KB registers, "
            << fmt_double(static_cast<double>(overhead.isremap_sram_bits) / 8.0 / 1024.0 /
                              1024.0,
                          3)
            << " MB isRemap SRAM, " << overhead.spare_lines << " spare lines, "
            << overhead.cubing_gates << " cubing gates\n";
  return 0;
} catch (const srbsg::CheckFailure& e) {
  std::cerr << "lifetime_calculator: " << e.what() << "\n";
  return 2;
}
