// Attack-forensics trace: RTA probe vs Security RBSG with the online
// detector enabled, telemetry on, reduced scale.
//
// This bench exists for the telemetry pipeline rather than a paper
// figure: it produces the JSONL trace that `tools/srbsg-trace` validates
// and renders. Every GapMoved / KeyRerandomized in the trace must be
// attributable to a RemapTriggered at the same sim instant (the schemes
// emit them from a single movement helper), and the ProbeClassified
// stream lets the forensics view line the attacker's harvested bits up
// against the defender's remap/re-key cadence — the paper's §IV.B story
// told from both sides of the timing channel.
//
// Scale is deliberately small (default 2^10 lines, endurance 2^12) so a
// CI smoke run finishes in seconds while still exercising detector
// trips, DFN re-keys, wear snapshots and the BPA fallback phase.

#include <iostream>
#include <memory>

#include "attack/harness.hpp"
#include "attack/rta_probe.hpp"
#include "bench_util.hpp"
#include "telemetry/collector.hpp"
#include "wl/factory.hpp"

int main(int argc, char** argv) {
  using namespace srbsg;
  using namespace srbsg::bench;

  const BenchOptions opts =
      parse_bench_options(argc, argv, kFlagSeeds | kFlagScale | kFlagTelemetry);

  print_header("rta_forensics: RTA probe vs Security RBSG, telemetry trace",
               "observability harness for §IV.B; see DESIGN.md §12");

  const u64 lines = opts.lines_or(u64{1} << 10);
  const u64 endurance = u64{1} << 12;
  const u64 seeds = opts.seeds_or(2);
  const auto pcm_cfg = pcm::PcmConfig::scaled(lines, endurance);

  wl::SchemeSpec spec;
  spec.kind = wl::SchemeKind::kSecurityRbsg;
  spec.lines = lines;
  spec.regions = 16;
  spec.inner_interval = 32;
  spec.outer_interval = 64;
  spec.stages = 7;

  telemetry::TelemetryConfig tcfg;
  // Sized to hold a whole reduced-scale run (~200k events at the default
  // scale): the forensics view wants the early detector trips and the
  // probe phase, which drop-oldest would evict first. 32 B/event → 8 MB.
  tcfg.ring_capacity = std::size_t{1} << 18;
  // A handful of wear snapshots across the run, not one per remap. The
  // RTA probe concentrates wear, so failure lands far below the uniform
  // lines*endurance budget — cadence is sized to the attacked lifetime.
  tcfg.snapshot_interval = (lines * endurance) / 128;
  telemetry::Collector collector(tcfg);

  const auto& core = telemetry::CoreCounters::get();
  Table t({"seed", "outcome", "writes", "remap triggers", "rekeys", "detector trips",
           "probes"});
  for (u64 s = 0; s < seeds; ++s) {
    spec.seed = s + 1;
    ctl::MemoryController mc(pcm_cfg, wl::make_scheme(spec));
    wl::AttackDetectorConfig dcfg;
    dcfg.window = 4096;
    dcfg.threshold = 8.0;
    dcfg.max_boost = 4;
    mc.enable_detector(dcfg);

    attack::RtaProbeParams p;
    p.lines = lines;
    p.outer_interval = spec.outer_interval;
    p.probe_bit = 0;
    p.probe_movements = 512;
    p.seed = spec.seed;
    p.hammer_cap = 2 * (lines / spec.regions + 1) * spec.inner_interval;
    attack::RtaProbeAttacker attacker(p);

    auto rec = collector.acquire();
    attack::HarnessOptions hopts;
    hopts.recorder = rec.get();
    const auto res = attack::run_attack(mc, attacker, u64{1} << 30, hopts);

    t.add_row({std::to_string(spec.seed),
               res.succeeded ? dur(static_cast<double>(res.lifetime.value())) : "survived",
               std::to_string(res.writes), std::to_string(rec->counter(core.remap_triggers)),
               std::to_string(rec->counter(core.rekeys)),
               std::to_string(rec->counter(core.detector_trips)),
               std::to_string(rec->counter(core.probes))});

    telemetry::RunMeta meta;
    meta.entry = s;
    meta.scheme = std::string(mc.scheme().name());
    meta.attack = std::string(attacker.name());
    meta.seed = spec.seed;
    collector.absorb(meta, std::move(rec));
  }
  t.print(std::cout);

  if (!opts.telemetry.empty()) {
    if (!collector.write_file(opts.telemetry)) {
      std::cerr << "rta_forensics: cannot open " << opts.telemetry << " for writing\n";
      return 3;
    }
    std::cout << "\nwrote " << opts.telemetry << " (" << collector.runs() << " runs, "
              << collector.total_events() << " events; validate with tools/srbsg-trace)\n";
  } else {
    std::cout << "\n(no --trace-out PATH given; trace discarded after the summary above)\n";
  }
  return 0;
}
