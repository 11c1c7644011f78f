// Trace replay: run a trace file (or a named synthetic profile) through
// the performance model and report the IPC cost of a wear-leveling
// scheme, gem5-style (§V.C.4).
//
//   ./trace_replay [profile-name|path.trace] [scheme]
//
// Profile names: any PARSEC/SPEC workload (e.g. "canneal", "mcf"), or a
// path to a text trace saved by Trace::save_text. A malformed trace line
// or an unknown scheme ends the run with its message and exit status 2.

#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/table.hpp"
#include "perf/ipc_experiment.hpp"

int main(int argc, char** argv) try {
  using namespace srbsg;

  const std::string source = argc > 1 ? argv[1] : "canneal";
  const std::string scheme_name = argc > 2 ? argv[2] : "security-rbsg";
  const u64 lines = 1u << 14;
  const u64 instructions = 4'000'000;

  std::optional<trace::Trace> trc;
  for (auto span : {trace::parsec_profiles(), trace::spec2006_profiles()}) {
    for (const auto& p : span) {
      if (p.name == source) {
        trc = trace::make_profile_trace(p, lines, instructions, 3);
      }
    }
  }
  if (!trc) {
    std::ifstream in(source);
    if (!in) {
      std::cerr << "unknown profile and unreadable file: " << source << "\n";
      return 1;
    }
    trc = trace::Trace::load_text(in, source);
  }

  wl::SchemeSpec spec;
  spec.kind = wl::parse_scheme(scheme_name);
  spec.lines = lines;
  spec.regions = 64;
  spec.inner_interval = 64;
  spec.outer_interval = 128;
  spec.stages = 7;

  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  const auto stats = trc->stats();
  const auto cmp = perf::compare_ipc(*trc, spec, cfg, perf::CoreParams{}, Ns{10});

  Table t({"metric", "value"});
  t.add_row({"workload", trc->name()});
  t.add_row({"accesses", std::to_string(stats.records)});
  t.add_row({"write MPKI", fmt_double(stats.write_mpki, 3)});
  t.add_row({"read MPKI", fmt_double(stats.read_mpki, 3)});
  t.add_row({"IPC baseline (no WL)", fmt_double(cmp.ipc_baseline, 4)});
  t.add_row({"IPC with " + scheme_name, fmt_double(cmp.ipc_scheme, 4)});
  t.add_row({"degradation %", fmt_double(cmp.degradation_pct, 3)});
  t.print(std::cout);
  return 0;
} catch (const srbsg::CheckFailure& e) {
  std::cerr << "trace_replay: " << e.what() << "\n";
  return 2;
}
