// Quickstart: put a Security RBSG wear-leveler in front of a PCM bank,
// run a hot-spotted workload, and watch the wear stay flat.
//
//   ./quickstart [lines] [writes] [--audit]
//
// With --audit the scheme runs inside the invariant auditor, which
// re-verifies translation injectivity, wear conservation and the DFN
// state machine every 4096 writes; a violation ends the run with its
// message and exit status 2, as a malformed argument does.

#include <cstring>
#include <iostream>
#include <memory>

#include "audit/auditing_wear_leveler.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "controller/memory_controller.hpp"
#include "trace/generators.hpp"
#include "wl/factory.hpp"

int main(int argc, char** argv) try {
  using namespace srbsg;

  bool audit_enabled = false;
  u64 positional[2] = {1u << 14, 2'000'000};
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--audit") == 0) {
      audit_enabled = true;
    } else if (npos < 2) {
      positional[npos] = parse_u64(argv[i], npos == 0 ? "lines" : "writes");
      ++npos;
    }
  }
  const u64 lines = positional[0];
  const u64 writes = positional[1];

  // 1. Describe the PCM device (defaults follow the paper: SET 1000 ns,
  //    RESET/READ 125 ns). The endurance is irrelevant for this demo.
  const auto pcm_cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);

  // 2. Pick a wear-leveling scheme. Security RBSG with 7 Feistel stages
  //    is the paper's recommended configuration.
  wl::SchemeSpec spec;
  spec.kind = wl::SchemeKind::kSecurityRbsg;
  spec.lines = lines;
  spec.regions = 64;
  spec.inner_interval = 64;
  spec.outer_interval = 128;
  spec.stages = 7;

  // 3. The controller glues the scheme to a bank and keeps simulated time.
  //    Optionally wrapped in the invariant auditor (see src/audit/).
  std::unique_ptr<wl::WearLeveler> scheme = wl::make_scheme(spec);
  if (audit_enabled) {
    audit::AuditConfig acfg;
    acfg.cadence = 4096;
    scheme = audit::make_audited(std::move(scheme), acfg);
  }
  ctl::MemoryController mc(pcm_cfg, std::move(scheme));

  // Basic reads and writes go through the dynamic translation:
  mc.write(La{42}, pcm::LineData::mixed(/*token=*/0xC0FFEE));
  const auto [data, read_latency] = mc.read(La{42});
  std::cout << "read back token 0x" << std::hex << data.token << std::dec << " in "
            << read_latency.value() << " ns\n";

  // 4. Hammer a hotspot: 90% of traffic on 1% of the address space.
  trace::GeneratorOptions opt;
  opt.lines = lines;
  opt.accesses = writes;
  opt.write_ratio = 1.0;
  opt.seed = 7;
  const auto trc = trace::make_hotspot(opt, 0.01, 0.9);
  for (const auto& rec : trc) {
    mc.write(La{rec.addr}, pcm::LineData::mixed(rec.addr));
  }

  // 5. Inspect the wear landscape.
  const auto metrics = compute_wear_metrics(mc.bank().wear_counts());
  Table t({"metric", "value"});
  t.add_row({"scheme", std::string(mc.scheme().name())});
  t.add_row({"logical lines", std::to_string(lines)});
  t.add_row({"writes issued", std::to_string(mc.total_writes())});
  t.add_row({"simulated time", fmt_duration_ns(static_cast<double>(mc.now().value()))});
  t.add_row({"mean wear", fmt_double(metrics.mean)});
  t.add_row({"max wear", std::to_string(metrics.max)});
  t.add_row({"max/mean (1.0 = perfectly even)", fmt_double(metrics.max_over_mean)});
  t.add_row({"gini coefficient", fmt_double(metrics.gini)});
  t.print(std::cout);

  std::cout << "\nA 90/1 hotspot would wear one line " << lines / 100
            << "x faster than average without wear leveling; Security RBSG keeps\n"
               "max/mean close to 1.\n";
  return 0;
} catch (const srbsg::CheckFailure& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 2;
}
