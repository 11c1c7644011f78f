#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "attack/harness.hpp"
#include "common/rng.hpp"
#include "controller/memory_controller.hpp"
#include "sim/sweep.hpp"
#include "telemetry/collector.hpp"
#include "trace/generators.hpp"
#include "wl/factory.hpp"

namespace repobench {

using namespace srbsg;

namespace {

// Sizes. Shapes (sub-regions, intervals, stages) are the paper figures';
// endurance is scaled so one pass of a plan is a few seconds on 4 cores.
constexpr u64 kRaaLines = u64{1} << 11;
constexpr u64 kRaaEndurance = u64{1} << 13;
constexpr u64 kRtaLines = u64{1} << 13;
constexpr u64 kRtaRbsgEndurance = 51'200;  // fig11: >= 2 rotations per config
constexpr u64 kRtaSrEndurance = 2048;      // fig12
// Fig. 11 runs last ~30 ms against ~3 ms for Fig. 12; the replica counts
// keep per-write RTA traffic, not RBSG's long runs, the bulk of the pass.
constexpr u64 kRtaRbsgReplicas = 2;
constexpr u64 kRtaSrReplicas = 32;
constexpr u64 kTraceLines = u64{1} << 11;
constexpr u64 kTraceEndurance = u64{1} << 11;
constexpr u64 kTraceReplicas = 8;
constexpr u64 kTraceRecords = u64{1} << 16;  // per generated trace

/// Seed for item `salt` of the workload seeded by `seed`.
u64 derive(u64 seed, u64 salt) {
  u64 s = seed ^ (salt * 0xD1B54A32D192ED03ULL);
  return splitmix64(s);
}

sim::LifetimeConfig lifetime_config(wl::SchemeKind kind, u64 lines, u64 endurance,
                                    sim::AttackKind attack) {
  sim::LifetimeConfig c;
  c.pcm = pcm::PcmConfig::scaled(lines, endurance);
  c.scheme.kind = kind;
  c.scheme.lines = lines;
  c.scheme.stages = 7;
  c.attack = attack;
  c.write_budget = u64{1} << 40;
  return c;
}

/// Fig. 13 / Fig. 15 Table-I grid, scaled like those benches (R/16, ψ/8).
void add_table_one(std::vector<sim::LifetimeConfig>& out, wl::SchemeKind kind) {
  for (const u64 sub_regions : {256u, 512u, 1024u}) {
    for (const u64 inner : {32u, 64u, 128u}) {
      for (const u64 outer : {16u, 64u, 256u}) {
        auto c = lifetime_config(kind, kRaaLines, kRaaEndurance, sim::AttackKind::kRaa);
        c.scheme.regions = sub_regions >> 4;
        c.scheme.inner_interval = std::max<u64>(2, inner >> 3);
        c.scheme.outer_interval = std::max<u64>(2, outer >> 3);
        out.push_back(c);
      }
    }
  }
}

/// Fig. 14: Security RBSG stage sweep under RAA and BPA.
void add_stage_sweep(std::vector<sim::LifetimeConfig>& out) {
  for (const u32 stages : {3u, 5u, 7u, 10u, 14u, 20u}) {
    for (const auto attack : {sim::AttackKind::kRaa, sim::AttackKind::kBpa}) {
      auto c = lifetime_config(wl::SchemeKind::kSecurityRbsg, kRaaLines, kRaaEndurance, attack);
      c.scheme.regions = kRaaLines / 64;
      c.scheme.inner_interval = 8;
      c.scheme.outer_interval = 16;
      c.scheme.stages = stages;
      out.push_back(c);
    }
  }
}

/// §III RTA on RBSG over the Fig. 11 shapes.
void add_rta_rbsg(std::vector<sim::LifetimeConfig>& out) {
  for (const u64 regions : {32u, 64u, 128u}) {
    for (const u64 interval : {16u, 32u, 64u, 100u}) {
      auto c = lifetime_config(wl::SchemeKind::kRbsg, kRtaLines, kRtaRbsgEndurance,
                               sim::AttackKind::kRta);
      c.scheme.regions = regions;
      c.scheme.inner_interval = interval;
      out.push_back(c);
    }
  }
}

/// §III RTAs on two-level SR over the Fig. 12 shapes and on one-level SR
/// over its interval range.
void add_rta_sr(std::vector<sim::LifetimeConfig>& out) {
  const pcm::PcmConfig paper = pcm::PcmConfig::paper_bank();
  const u64 shift = paper.address_bits() - static_cast<u64>(std::countr_zero(kRtaLines));
  for (const u64 sub_regions : {256u, 512u, 1024u}) {
    for (const u64 inner : {16u, 32u, 64u, 128u}) {
      for (const u64 outer : {16u, 32u, 64u, 128u, 256u}) {
        auto c = lifetime_config(wl::SchemeKind::kSr2, kRtaLines, kRtaSrEndurance,
                                 sim::AttackKind::kRta);
        c.scheme.regions = kRtaLines / std::max<u64>(4, (paper.line_count / sub_regions) >> shift);
        c.scheme.inner_interval = inner;
        c.scheme.outer_interval = outer;
        out.push_back(c);
      }
    }
  }
  for (const u64 interval : {16u, 32u, 64u, 128u}) {
    auto c = lifetime_config(wl::SchemeKind::kSr1, kRtaLines, kRtaSrEndurance,
                             sim::AttackKind::kRta);
    c.scheme.inner_interval = interval;
    out.push_back(c);
  }
}

Outcome to_outcome(const attack::AttackResult& r, const WearMetrics& wear) {
  return Outcome{r.succeeded, r.lifetime.value(), r.writes, r.elapsed.value(), wear};
}

trace::Trace make_trace(const TraceCell& cell, u64 k) {
  trace::GeneratorOptions opt;
  opt.lines = cell.scheme.lines;
  opt.accesses = kTraceRecords;
  opt.write_ratio = 1.0;
  opt.seed = derive(cell.seed, k);
  switch (cell.pattern) {
    case Pattern::kHotspot:
      return trace::make_hotspot(opt, 0.02, 0.9);
    case Pattern::kZipf:
      return trace::make_zipf(opt, 1.1);
    case Pattern::kUniform:
      break;
  }
  return trace::make_uniform(opt);
}

std::string_view to_string(Pattern p) {
  switch (p) {
    case Pattern::kHotspot:
      return "hotspot";
    case Pattern::kZipf:
      return "zipf";
    case Pattern::kUniform:
      break;
  }
  return "uniform";
}

/// Replays one trace cell to first failure. With `trace`, the scheme is
/// wrapped in the timing decorator and the phases are timed into it.
Outcome replay_cell(const TraceCell& cell, u64 entry, sim::WorkerArena& arena,
                    telemetry::Collector* collector, RunTrace* trace,
                    std::optional<wl::EngineTier> tier) {
  std::unique_ptr<wl::WearLeveler> scheme = wl::make_scheme(cell.scheme);
  TimedScheme* timed = nullptr;
  if (trace != nullptr) {
    auto owner = std::make_unique<TimedScheme>(std::move(scheme));
    timed = owner.get();
    scheme = std::move(owner);
    trace->writes_per_movement = timed->writes_per_movement();
  }
  const u64 physical = scheme->physical_lines();
  ctl::MemoryController mc(arena.acquire(cell.pcm, physical), std::move(scheme));
  if (tier) mc.set_engine_tier(*tier);
  std::unique_ptr<telemetry::Recorder> rec;
  if (collector != nullptr) {
    rec = collector->acquire();
    mc.set_telemetry(rec.get());
  }
  if (trace != nullptr) trace->setup_end_ns = host_ns();

  // A bank that outlives twice its ideal write count is a failed run.
  const u64 cap = 2 * physical * cell.pcm.endurance;
  std::vector<La> block;
  block.reserve(kTraceRecords);
  for (u64 k = 0; !mc.failed() && mc.total_writes() < cap; ++k) {
    const u64 g0 = trace != nullptr ? host_ns() : 0;
    const trace::Trace tr = make_trace(cell, k);
    if (trace != nullptr) {
      trace->gen_ns += host_ns() - g0;
      trace->gen_records += tr.size();
      ++trace->gen_calls;
    }
    block.clear();
    for (const auto& r : tr) {
      if (r.is_write) block.push_back(La{r.addr});
    }
    (void)mc.write_batch(block, pcm::LineData::mixed(0x3A7E));
  }
  if (collector != nullptr) {
    mc.set_telemetry(nullptr);
    telemetry::RunMeta meta;
    meta.entry = entry;
    meta.scheme = std::string(mc.scheme().name());
    meta.attack = std::string(to_string(cell.pattern));
    meta.seed = cell.seed;
    collector->absorb(meta, std::move(rec));
  }
  if (trace != nullptr) trace->body_end_ns = host_ns();

  const WearMetrics wear = compute_wear_metrics(mc.bank().wear_counts());
  if (trace != nullptr) {
    trace->wear_end_ns = host_ns();
    trace->bank_writes = mc.bank().total_writes();
    trace->times = timed->times();
  }
  Outcome o;
  o.succeeded = mc.failed();
  o.elapsed_ns = mc.now().value();
  o.writes = mc.total_writes();
  if (o.succeeded) {
    o.lifetime_ns = mc.failure().time.value();
    o.elapsed_ns = o.lifetime_ns;
    o.writes = mc.failure().total_writes;
  }
  o.wear = wear;
  arena.release(mc.release_bank());
  return o;
}

/// Small stable runner ids for the threads of one pass.
class RunnerIds {
 public:
  std::size_t get() {
    const std::lock_guard lock(mu_);
    return ids_.emplace(std::this_thread::get_id(), ids_.size()).first->second;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::size_t> ids_;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "raa_sweep") return Workload::kRaaSweep;
  if (name == "rta_probe") return Workload::kRtaProbe;
  if (name == "trace_replay") return Workload::kTraceReplay;
  return std::nullopt;
}

const pcm::PcmConfig& Plan::pcm(std::size_t i) const {
  return cells.empty() ? runs[i].pcm : cells[i].pcm;
}

const wl::SchemeSpec& Plan::scheme(std::size_t i) const {
  return cells.empty() ? runs[i].scheme : cells[i].scheme;
}

Plan make_plan(Workload workload, u64 seed, u64 pass) {
  Plan plan;
  switch (workload) {
    case Workload::kRaaSweep:
      plan.lines = kRaaLines;
      add_stage_sweep(plan.runs);
      add_table_one(plan.runs, wl::SchemeKind::kSecurityRbsg);
      add_table_one(plan.runs, wl::SchemeKind::kSr2);
      break;
    case Workload::kRtaProbe:
      plan.lines = kRtaLines;
      for (u64 r = 0; r < kRtaRbsgReplicas; ++r) add_rta_rbsg(plan.runs);
      for (u64 r = 0; r < kRtaSrReplicas; ++r) add_rta_sr(plan.runs);
      break;
    case Workload::kTraceReplay:
      plan.lines = kTraceLines;
      for (u64 r = 0; r < kTraceReplicas; ++r) {
        for (const auto pattern : {Pattern::kUniform, Pattern::kHotspot, Pattern::kZipf}) {
          for (const auto kind : {wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kRbsg,
                                  wl::SchemeKind::kSr2, wl::SchemeKind::kNone}) {
            TraceCell c;
            c.pcm = pcm::PcmConfig::scaled(kTraceLines, kTraceEndurance);
            c.scheme.kind = kind;
            c.scheme.lines = kTraceLines;
            c.scheme.regions = kTraceLines / 64;
            c.scheme.inner_interval = 16;
            c.scheme.outer_interval = 32;
            c.scheme.stages = 7;
            c.pattern = pattern;
            plan.cells.push_back(c);
          }
        }
      }
      break;
  }
  // Scheme keys, attacker seeds and trace seeds all derive from `seed`.
  seed = derive(seed, ~pass);
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    plan.runs[i].scheme.seed = derive(seed, 2 * i + 1);
    plan.runs[i].seed = derive(seed, 2 * i + 2);
  }
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    plan.cells[i].scheme.seed = derive(seed, 2 * i + 1);
    plan.cells[i].seed = derive(seed, 2 * i + 2);
  }
  return plan;
}

std::size_t pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    nproc = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  // ThreadPool(0) means hardware_concurrency, so a 1-CPU box still gets
  // one worker (two runners).
  return std::max<std::size_t>(1, nproc - 1);
}

namespace {

/// Every field of an outcome, doubles by bit pattern.
std::array<u64, 10> fields(const Outcome& o) {
  return {o.succeeded ? u64{1} : u64{0},
          o.lifetime_ns,
          o.writes,
          o.elapsed_ns,
          std::bit_cast<u64>(o.wear.mean),
          std::bit_cast<u64>(o.wear.coefficient_of_variation),
          std::bit_cast<u64>(o.wear.gini),
          std::bit_cast<u64>(o.wear.max_over_mean),
          o.wear.max,
          o.wear.min};
}

}  // namespace

bool same_outcome(const Outcome& a, const Outcome& b) { return fields(a) == fields(b); }

u64 digest(std::span<const Outcome> outcomes) {
  u64 h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (const Outcome& o : outcomes) {
    const auto f = fields(o);
    const auto* b = reinterpret_cast<const unsigned char*>(f.data());
    for (std::size_t i = 0; i < sizeof(f); ++i) {
      h ^= b[i];
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

bool outcome_valid(const Plan& plan, std::size_t i, const Outcome& o) {
  const u64 endurance = plan.pcm(i).endurance;
  return o.succeeded && o.lifetime_ns > 0 && o.lifetime_ns == o.elapsed_ns && o.writes > 0 &&
         o.wear.max >= endurance && o.wear.min <= o.wear.max && o.wear.mean > 0.0 &&
         o.wear.max_over_mean >= 1.0 && o.wear.gini >= 0.0 && o.wear.gini <= 1.0;
}

std::vector<Outcome> run_untraced(const Plan& plan, ThreadPool& pool,
                                  telemetry::Collector* collector) {
  std::vector<Outcome> out(plan.size());
  if (plan.cells.empty()) {
    std::vector<sim::LifetimeConfig> configs = plan.runs;
    for (auto& c : configs) c.telemetry = collector;
    const auto entries = sim::run_sweep(configs, pool);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out[i] = to_outcome(entries[i].outcome.result, entries[i].outcome.wear);
    }
    return out;
  }
  sim::WorkerArena arena;
  parallel_for(pool, plan.cells.size(), [&](std::size_t i) {
    out[i] = replay_cell(plan.cells[i], i, arena, collector, nullptr, std::nullopt);
  });
  return out;
}

RunTrace run_traced(const Plan& plan, std::size_t i, sim::WorkerArena& arena,
                    std::optional<wl::EngineTier> tier) {
  RunTrace r;
  r.start_ns = host_ns();
  if (!plan.cells.empty()) {
    r.outcome = replay_cell(plan.cells[i], i, arena, nullptr, &r, tier);
    r.end_ns = host_ns();
    return r;
  }
  const sim::LifetimeConfig& cfg = plan.runs[i];
  auto owner = std::make_unique<TimedScheme>(wl::make_scheme(cfg.scheme));
  const TimedScheme& timed = *owner;
  r.writes_per_movement = timed.writes_per_movement();
  const u64 physical = timed.physical_lines();
  ctl::MemoryController mc(arena.acquire(cfg.pcm, physical), std::move(owner));
  mc.set_engine_tier(tier.value_or(cfg.engine));
  const auto attacker = sim::make_attacker(cfg);
  r.setup_end_ns = host_ns();
  const attack::AttackResult result = attack::run_attack(mc, *attacker, cfg.write_budget);
  r.body_end_ns = host_ns();

  const WearMetrics wear = compute_wear_metrics(mc.bank().wear_counts());
  r.wear_end_ns = host_ns();
  r.outcome = to_outcome(result, wear);
  r.bank_writes = mc.bank().total_writes();
  r.times = timed.times();
  arena.release(mc.release_bank());
  r.end_ns = host_ns();
  return r;
}

TracedPass run_traced_pass(const Plan& plan, ThreadPool& pool) {
  TracedPass pass;
  pass.runs.resize(plan.size());
  sim::WorkerArena arena;
  RunnerIds runners;
  pass.start_ns = host_ns();
  parallel_for(pool, plan.size(), [&](std::size_t i) {
    const std::size_t runner = runners.get();
    pass.runs[i] = run_traced(plan, i, arena);
    pass.runs[i].runner = runner;
  });
  pass.end_ns = host_ns();
  pass.arena = arena.stats();
  return pass;
}

namespace {

struct SpanWriter {
  std::ostream& os;
  u64 origin_ns;
  std::size_t pid{1};
  bool first{true};

  void span(std::string_view name, std::size_t run, std::size_t tid, u64 start_ns,
            u64 dur_ns, std::string_view parent, const std::string& extra = {}) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << R"({"name":")" << name << R"(","cat":"repobench","ph":"X","pid":)" << pid
       << R"(,"tid":)" << tid << R"(,"id":)" << run << R"(,"ts":)"
       << static_cast<double>(start_ns - origin_ns) / 1e3 << R"(,"dur":)"
       << static_cast<double>(dur_ns) / 1e3 << R"(,"args":{"run":)" << run
       << R"(,"parent":")" << parent << '"' << extra << "}}";
  }
};

}  // namespace

void write_spans(std::ostream& os, std::span<const Plan> plans,
                 std::span<const TracedPass> passes) {
  os << std::fixed << std::setprecision(3);  // µs with ns resolution
  os << R"({"displayTimeUnit":"ns","traceEvents":[)";
  SpanWriter w{os, passes.empty() ? 0 : passes.front().start_ns};
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Plan& plan = plans[k];
    w.pid = k + 1;
    for (std::size_t i = 0; i < passes[k].runs.size(); ++i) {
      const RunTrace& r = passes[k].runs[i];
      const std::string label = R"(,"scheme":")" +
                                std::string(wl::to_string(plan.scheme(i).kind)) + '"';
      const std::string_view body = plan.cells.empty() ? "attack" : "replay";
      w.span("run", i, r.runner, r.start_ns, r.end_ns - r.start_ns, "", label);
      w.span("setup", i, r.runner, r.start_ns, r.setup_end_ns - r.start_ns, "run");
      w.span(body, i, r.runner, r.setup_end_ns, r.body_end_ns - r.setup_end_ns, "run");
      u64 at = r.setup_end_ns;
      // A sampled estimate can exceed its parent on a run with few calls;
      // the span is clipped to the parent and carries the estimate.
      auto child = [&](std::string_view name, u64 calls, u64 busy_ns) {
        if (calls == 0) return;
        const u64 dur = std::min(busy_ns, r.body_end_ns - at);
        w.span(name, i, r.runner, at, dur, body,
               R"(,"calls":)" + std::to_string(calls) + R"(,"busy_ns":)" +
                   std::to_string(busy_ns) + R"(,"aggregated":true)");
        at += dur;
      };
      auto entry = [&](std::string_view name, const EntryTimes& e) {
        child(name, e.calls, static_cast<u64>(e.busy_ns()));
      };
      child("trace.gen", r.gen_calls, r.gen_ns);
      entry("wl.write", r.times.write);
      entry("wl.write_repeated", r.times.write_repeated);
      entry("wl.write_batch", r.times.write_batch);
      entry("wl.write_cycle", r.times.write_cycle);
      entry("mapping.translate", r.times.translate);
      w.span("wear", i, r.runner, r.body_end_ns, r.wear_end_ns - r.body_end_ns, "run");
    }
  }
  os << "\n]}\n";
}

u64 setup_probe(Workload workload, u64 seed, u64 t_start) {
  ThreadPool pool(pool_threads());
  const Plan plan = make_plan(workload, seed, 0);
  sim::WorkerArena arena;
  std::unique_ptr<wl::WearLeveler> scheme = wl::make_scheme(plan.scheme(0));
  const u64 physical = scheme->physical_lines();
  ctl::MemoryController mc(arena.acquire(plan.pcm(0), physical), std::move(scheme));
  std::unique_ptr<attack::Attacker> attacker;
  if (!plan.runs.empty()) attacker = sim::make_attacker(plan.runs[0]);
  (void)mc.write(La{0}, pcm::LineData::mixed(0));
  return host_ns() - t_start;
}

}  // namespace repobench
