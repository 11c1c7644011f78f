// repobench: the repository benchmark's measuring program.
//
//   repobench --workload raa_sweep|rta_probe|trace_replay --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//   repobench --workload W --seed N --setup-probe
//
// The untraced pass repeats the workload's plan until S seconds have
// passed and reports end-to-end metrics from the median pass. With
// --trace 1 a traced pass (timing decorator + telemetry collector), a
// collector-only pass and calibrated layer timings follow, and the
// per-layer metrics are reported instead. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any output check fails, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analytic/latency_model.hpp"
#include "common/rng.hpp"
#include "mapping/feistel.hpp"
#include "stats.hpp"
#include "telemetry/collector.hpp"
#include "wl/dfn.hpp"
#include "workloads.hpp"

namespace {

using namespace repobench;
using srbsg::u64;

struct Args {
  std::string workload_name;
  std::optional<Workload> workload;
  u64 seed{1};
  double seconds{10.0};
  bool trace{false};
  bool setup_probe{false};
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "repobench: " << why << "\n"
            << "usage: repobench --workload raa_sweep|rta_probe|trace_replay --seed N"
               " --seconds S --trace 0|1 [--spans PATH] [--setup-probe]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-probe") {
      a.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload_name = v;
      a.workload = parse_workload(v);
      if (!a.workload) usage("unknown workload '" + v + "'");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed '" + v + "'");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds >= 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!a.workload) usage("--workload is required");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
  void add(const std::string& name, const Calibrated& c, const std::string& unit) {
    add(name, c.median_ns, unit);
    add(name + ".mad", c.mad_ns, unit);
    add(name + ".reps", static_cast<double>(c.reps), "count");
  }
  [[nodiscard]] const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double secs(u64 ns) { return static_cast<double>(ns) / 1e9; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Mean simulated lifetime over ideal: Security RBSG runs where the plan
/// has them, every run otherwise (rta_probe).
double lifetime_frac_ideal(const Plan& plan, const std::vector<Outcome>& outs) {
  bool any_srbsg = false;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    any_srbsg |= plan.scheme(i).kind == srbsg::wl::SchemeKind::kSecurityRbsg;
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (any_srbsg && plan.scheme(i).kind != srbsg::wl::SchemeKind::kSecurityRbsg) continue;
    sum += static_cast<double>(outs[i].lifetime_ns) /
           srbsg::analytic::ideal_lifetime_ns(plan.pcm(i));
    ++n;
  }
  return ratio(sum, static_cast<double>(n));
}

/// Replays a seed-chosen sample of runs under a second engine tier; each
/// must reproduce its untraced outcome and conserve wear.
std::size_t check_second_tier(const Plan& plan, std::span<const Outcome> ref, u64 seed,
                              srbsg::ThreadPool& pool, FailureLog& log) {
  constexpr std::size_t kSample = 3;
  std::set<std::size_t> picks;
  u64 s = seed ^ 0x71E5A3B1u;
  while (picks.size() < std::min(kSample, plan.size())) {
    picks.insert(srbsg::splitmix64(s) % plan.size());
  }
  const std::vector<std::size_t> idx(picks.begin(), picks.end());
  const bool prefer_reference = (seed & 1) != 0;
  srbsg::sim::WorkerArena arena;
  std::vector<char> ok(idx.size(), 0);  // one byte per runner-written flag
  srbsg::parallel_for(pool, idx.size(), [&](std::size_t k) {
    const std::size_t i = idx[k];
    // The per-write reference loop is affordable only for short runs.
    const bool reference = prefer_reference && ref[i].writes <= (u64{1} << 24);
    const auto tier = reference ? srbsg::wl::EngineTier::kReference
                                : srbsg::wl::EngineTier::kEpoch;
    const RunTrace r = run_traced(plan, i, arena, tier);
    ok[k] = same_outcome(r.outcome, ref[i]) && r.conserved() ? 1 : 0;
  });
  for (std::size_t k = 0; k < idx.size(); ++k) log.check(idx[k], ok[k] != 0);
  return idx.size();
}

/// Calibrated single-call costs of the layers below the schemes.
void add_calibrated(Metrics& m, const Plan& plan, u64 seed) {
  constexpr double kMinSeconds = 0.1;
  const auto width = static_cast<srbsg::u32>(std::countr_zero(plan.lines));
  const u64 mask = plan.lines - 1;
  srbsg::Rng rng(seed);
  const srbsg::mapping::FeistelNetwork net(
      width, srbsg::mapping::FeistelNetwork::random_keys(width, 7, rng));
  m.add("mapping.feistel_map_ns",
        calibrate([&](u64 i) { return net.map(i & mask); }, kMinSeconds), "ns");
  srbsg::wl::DynamicFeistelOuter dfn(width, 7, srbsg::Rng(seed));
  m.add("mapping.dfn_advance_ns", calibrate([&](u64) {
          const auto mv = dfn.advance();
          return mv.from ^ mv.to;
        }, kMinSeconds),
        "ns");
  srbsg::pcm::PcmBank bank(srbsg::pcm::PcmConfig::scaled(plan.lines, u64{1} << 40),
                           plan.lines);
  const auto data = srbsg::pcm::LineData::mixed(1);
  m.add("pcm.write_ns", calibrate([&](u64 i) {
          return bank.write(srbsg::Pa{(i * 0x9E3779B1u) & mask}, data).value();
        }, kMinSeconds),
        "ns");
  m.add("pcm.bulk_write_ns", calibrate([&](u64 i) {
          return bank.bulk_write(srbsg::Pa{(i * 0x9E3779B1u) & mask}, data, 64).value();
        }, kMinSeconds),
        "ns");
  Calibrated headroom =
      calibrate([&](u64) { return bank.min_headroom(srbsg::Pa{0}, plan.lines); }, kMinSeconds);
  const double klines = static_cast<double>(plan.lines) / 1000.0;
  headroom.median_ns /= klines;
  headroom.mad_ns /= klines;
  m.add("pcm.min_headroom_ns_per_kline", headroom, "ns/kline");
}

/// Per-layer metrics over the traced passes. `untraced_wall` and
/// `collector_wall` are the summed walls of the same plans untraced and
/// with a collector on every run.
void add_layers(Metrics& m, const Plan& plan, std::span<const TracedPass> passes,
                const srbsg::telemetry::Collector& col, std::size_t runners, double untraced_wall,
                double collector_wall, u64 seed) {
  SchemeTimes t;
  u64 run_host = 0, setup = 0, body = 0, wear_ns = 0, gen = 0, records = 0, bank_writes = 0;
  u64 traced_ns = 0, tail_ns = 0, builds = 0, reuses = 0;
  double max_over_mean = 0.0, gini = 0.0;
  std::vector<double> run_ms;
  for (const TracedPass& pass : passes) {
    std::vector<u64> last_end(runners, pass.start_ns);
    for (const RunTrace& r : pass.runs) {
      run_host += r.end_ns - r.start_ns;
      run_ms.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      setup += r.setup_end_ns - r.start_ns;
      body += r.body_end_ns - r.setup_end_ns;
      wear_ns += r.wear_end_ns - r.body_end_ns;
      gen += r.gen_ns;
      records += r.gen_records;
      bank_writes += r.bank_writes;
      max_over_mean += r.outcome.wear.max_over_mean;
      gini += r.outcome.wear.gini;
      t.write.add(r.times.write);
      t.write_repeated.add(r.times.write_repeated);
      t.write_batch.add(r.times.write_batch);
      t.write_cycle.add(r.times.write_cycle);
      t.translate.add(r.times.translate);
      t.movements += r.times.movements;
      if (r.runner < runners) last_end[r.runner] = std::max(last_end[r.runner], r.end_ns);
    }
    traced_ns += pass.end_ns - pass.start_ns;
    tail_ns += pass.end_ns - *std::min_element(last_end.begin(), last_end.end());
    builds += pass.arena.bank_builds;
    reuses += pass.arena.bank_reuses;
  }
  const double n = static_cast<double>(run_ms.size());
  const double wall = secs(traced_ns);
  const double wl_busy = t.write.busy_ns() + t.write_repeated.busy_ns() +
                         t.write_batch.busy_ns() + t.write_cycle.busy_ns() +
                         t.translate.busy_ns();
  const double host = secs(run_host);

  m.add("sim.runners", static_cast<double>(runners), "count");
  m.add("sim.runs", n, "count");
  m.add("sim.run_host_s", host, "s");
  m.add("sim.parallel_eff", ratio(host, static_cast<double>(runners) * wall), "ratio");
  m.add("sim.run_p50_ms", median(run_ms), "ms");
  const auto tail = tail_percentile(run_ms);
  m.add("sim.run_tail_ms", tail ? tail->value : 0.0, "ms");
  m.add("sim.run_tail_pct", tail ? tail->pct : 0.0, "pct");
  m.add("sim.tail_s", secs(tail_ns) / static_cast<double>(passes.size()), "s");
  m.add("sim.setup_ms_per_run", ratio(static_cast<double>(setup) / 1e6, n), "ms");
  m.add("sim.arena_builds", static_cast<double>(builds), "count");
  m.add("sim.arena_reuses", static_cast<double>(reuses), "count");

  const double attack_self = static_cast<double>(body - gen) / 1e9 - wl_busy / 1e9;
  m.add("attack.self_s", attack_self, "s");
  m.add("attack.self_share", ratio(attack_self, host), "ratio");

  auto bulk = [&](const std::string& name, const EntryTimes& e) {
    m.add(name + ".calls", static_cast<double>(e.calls), "count");
    m.add(name + ".busy_s", e.busy_ns() / 1e9, "s");
    m.add(name + ".ns_per_write", ratio(e.busy_ns(), static_cast<double>(e.writes)), "ns/write");
    m.add(name + ".share", ratio(e.busy_ns() / 1e9, host), "ratio");
  };
  bulk("wl.write_cycle", t.write_cycle);
  bulk("wl.write_batch", t.write_batch);
  m.add("wl.write.calls", static_cast<double>(t.write.calls), "count");
  m.add("wl.write.ns_per_call", ratio(t.write.busy_ns(), static_cast<double>(t.write.calls)),
        "ns/call");
  const double writes = static_cast<double>(t.writes_applied());
  m.add("wl.moves_per_kwrite", 1000.0 * ratio(static_cast<double>(t.movements), writes),
        "moves/kwrite");
  const double chunks = static_cast<double>(col.merged("wl.batch_chunks"));
  const double bulk_writes =
      static_cast<double>(t.write_repeated.writes + t.write_batch.writes + t.write_cycle.writes);
  m.add("wl.batch_chunks", chunks, "count");
  m.add("wl.writes_per_chunk", ratio(bulk_writes, chunks), "writes/chunk");
  const double jumps = static_cast<double>(col.merged("wl.epoch_jumps"));
  const double fallbacks = static_cast<double>(col.merged("wl.epoch_fallbacks"));
  m.add("wl.epoch_jumps", jumps, "count");
  m.add("wl.epoch_fallbacks", fallbacks, "count");
  m.add("wl.epoch_fallback_ratio", ratio(fallbacks, jumps + fallbacks), "ratio");

  m.add("mapping.translate_ns",
        ratio(t.translate.busy_ns(), static_cast<double>(t.translate.calls)), "ns/call");
  add_calibrated(m, plan, seed);
  m.add("pcm.write_amp", ratio(static_cast<double>(bank_writes), writes), "ratio");
  m.add("pcm.wear_max_over_mean", ratio(max_over_mean, n), "ratio");
  m.add("pcm.wear_gini", ratio(gini, n), "ratio");

  m.add("trace.gen_s", secs(gen), "s");
  m.add("trace.ns_per_record", ratio(static_cast<double>(gen), static_cast<double>(records)),
        "ns/record");
  m.add("trace.gen_share", ratio(secs(gen), host), "ratio");
  m.add("common.wear_metrics_ms", ratio(static_cast<double>(wear_ns) / 1e6, n), "ms");
  m.add("telemetry.overhead_pct", 100.0 * ratio(collector_wall - untraced_wall, untraced_wall),
        "%");
  m.add("telemetry.events", static_cast<double>(col.total_events()), "count");
  m.add("bench.trace_overhead_pct", 100.0 * ratio(wall - untraced_wall, untraced_wall), "%");
}

void print_result(const Metrics& m, std::size_t attempted, std::size_t failed) {
  for (const Metric& x : m.list()) {
    std::printf("  %-34s %18.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf(R"({"correct": %s, "attempted": %zu, "failed": %zu, "metrics": {)",
              failed == 0 ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& x : m.list()) {
    std::printf(R"(%s"%s": {"value": %.17g, "unit": "%s"})", sep, x.name.c_str(), x.value,
                x.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const u64 t_start = host_ns();
  const Args a = parse_args(argc, argv);
  if (a.setup_probe) {
    std::printf("{\"setup_ns\": %llu}\n",
                static_cast<unsigned long long>(setup_probe(*a.workload, a.seed, t_start)));
    return 0;
  }

  srbsg::ThreadPool pool(pool_threads());
  const std::size_t runners = pool.size() + 1;
  const Plan plan = make_plan(*a.workload, a.seed, 0);
  FailureLog log;

  // Untraced passes until --seconds have been measured. Pass k runs its
  // own plan, seeded from --seed and k, so one run's medians span several
  // inputs. The outcomes of the first kFixed passes are the reference the
  // traced and collector executions must reproduce (pass 0's also the
  // second-tier sample's), and give the seed's digest and lifetime
  // fraction.
  constexpr std::size_t kFixed = 3;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<Outcome> fixed;
  double frac_sum = 0.0;
  const u64 measure_start = host_ns();
  do {
    const std::size_t k = walls.size();
    const Plan pass_plan = k == 0 ? plan : make_plan(*a.workload, a.seed, k);
    const u64 t0 = host_ns();
    const std::vector<Outcome> outs = run_untraced(pass_plan, pool);
    walls.push_back(secs(host_ns() - t0));
    const std::size_t base = log.extend(pass_plan.size());
    u64 writes = 0;
    for (std::size_t i = 0; i < pass_plan.size(); ++i) {
      log.check(base + i, outcome_valid(pass_plan, i, outs[i]));
      writes += outs[i].writes;
    }
    rates.push_back(static_cast<double>(writes) / walls.back());
    if (k < kFixed) {
      fixed.insert(fixed.end(), outs.begin(), outs.end());
      frac_sum += lifetime_frac_ideal(pass_plan, outs);
    }
  } while (walls.size() < kFixed || secs(host_ns() - measure_start) < a.seconds);
  const double wall = median(walls);
  const double rss = peak_rss_mib();
  const std::size_t sampled =
      check_second_tier(plan, std::span(fixed).first(plan.size()), a.seed, pool, log);

  Metrics m;
  if (!a.trace) {
    m.add("wall_s", wall, "s");
    m.add("sim_writes_per_s", median(rates), "writes/s");
    m.add("peak_rss_mb", rss, "MiB");
    m.add("lifetime_frac_ideal", frac_sum / static_cast<double>(kFixed), "ratio");
  } else {
    // Traced and collector passes over the fixed plans, each checked run
    // by run against its untraced outcome.
    std::vector<Plan> fixed_plans;
    std::vector<TracedPass> traced;
    // The --trace-out path: every run records into a collector. Its ring
    // is small because only the counters are read back.
    srbsg::telemetry::TelemetryConfig tcfg;
    tcfg.ring_capacity = 1024;
    srbsg::telemetry::Collector col(tcfg);
    double untraced_wall = 0.0;
    double collector_wall = 0.0;
    std::size_t offset = 0;
    for (std::size_t k = 0; k < kFixed; ++k) {
      fixed_plans.push_back(k == 0 ? plan : make_plan(*a.workload, a.seed, k));
      const Plan& p = fixed_plans.back();
      traced.push_back(run_traced_pass(p, pool));
      const u64 c0 = host_ns();
      const std::vector<Outcome> col_outs = run_untraced(p, pool, &col);
      collector_wall += secs(host_ns() - c0);
      untraced_wall += walls[k];
      for (std::size_t i = 0; i < p.size(); ++i) {
        log.check_same(offset + i, traced.back().runs[i].outcome, fixed[offset + i]);
        log.check(offset + i, traced.back().runs[i].conserved());
        log.check_same(offset + i, col_outs[i], fixed[offset + i]);
      }
      offset += p.size();
    }
    add_layers(m, plan, traced, col, runners, untraced_wall, collector_wall, a.seed);
    if (!a.spans.empty()) {
      std::ofstream os(a.spans);
      write_spans(os, fixed_plans, traced);
      if (!os) {
        std::cerr << "repobench: cannot write " << a.spans << "\n";
        return 1;
      }
    }
  }

  std::printf("workload %s seed %llu passes %zu runs/pass %zu tier-sampled %zu runners %zu\n",
              a.workload_name.c_str(), static_cast<unsigned long long>(a.seed), walls.size(),
              plan.size(), sampled, runners);
  std::printf("digest of passes 0-%zu %016llx\n", kFixed - 1,
              static_cast<unsigned long long>(digest(fixed)));
  std::printf("pass walls (s):");
  for (const double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  print_result(m, log.attempted(), log.failed());
  return log.failed() == 0 ? 0 : 1;
}
