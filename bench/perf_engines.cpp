// perf_engines: one repeated-measurement bench for the engines that make
// the paper's to-failure sweeps (Table I, Fig. 14) affordable. One case
// table, three families of cases:
//
//   write_path/<scheme>/<scenario> — the per-write reference loop against
//       write_cycle/write_batch on the windowed and the epoch tier, for
//       every scheme on the four stream shapes the attack and lifetime
//       simulations issue (DESIGN.md §11):
//         raa_loop   single-address hammer (RAA / BPA / RTA wear phases);
//         rta_loop   six-address probe cycle (RTA probe/hammer cycles);
//         fail_stop  the hammer at tiny endurance, driven to bank failure
//                    (the exact-stop contract);
//         blanket    a uniform random block through write_batch;
//   sweep/table1_subset — a Table-I subset with endurance variation swept
//       to failure by a replica of the v1 engine (a fresh bank and one
//       submitted future per entry) against run_sweep's arena and chunked
//       scheduling (DESIGN.md §10);
//   grid/table1_sr2_raa, grid/fig14_stages — the Fig. 13 Table-I grid and
//       the Fig. 14 stage sweep swept to failure, windowed against epoch
//       tier (DESIGN.md §15).
//
// Timing: every path repeats in-process, in rounds over the whole table
// (Measurer::measure), until it has kMinReps samples and kMinPathNs of
// timed work. A run shorter than kMinSampleNs is timed as a batch of
// fresh instances (the rule of repobench's calibrate), so no sample is a
// single sub-microsecond timing. Instances are built outside the timed
// region. A row reports the median and MAD of its per-run samples;
// tools/check_bench_json.py compares the baseline/path ratios against a
// committed reference within a band derived from those MADs.
//
// Identity: every rep of every path is compared with the case's first
// path — applied writes, movements, simulated time, per-line wear,
// translation and failure bookkeeping for a stream; every LifetimeOutcome
// field for a sweep. Untimed passes add telemetry-attached runs, which
// must change nothing, and the sweep under the epoch tier. Any divergence
// exits 1.
//
//   ./build/bench/perf_engines [--threads N] [--json BENCH_engines.json]

#include <algorithm>
#include <bit>
#include <cstddef>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "common/bitops.hpp"
#include "pcm/bank.hpp"
#include "repobench/stats.hpp"
#include "sim/arena.hpp"
#include "telemetry/collector.hpp"
#include "trace/generators.hpp"
#include "wl/factory.hpp"

namespace {

using namespace srbsg;
using namespace srbsg::bench;

constexpr std::size_t kMinReps = 5;
constexpr u64 kMinPathNs = 10'000'000;  ///< timed work per path
constexpr u64 kMinSampleNs = 20'000;    ///< shorter runs are batched
constexpr u64 kMaxBatch = 256;          ///< bounds the instances alive at once

/// What the bit-identity contract covers, compared exactly. `work` is the
/// simulated writes the run applied.
struct Digest {
  u64 work{0};
  std::vector<u64> words;
  std::string text;

  bool operator==(const Digest&) const = default;
};

/// One fresh instance of a path: run() is timed, digest() is not.
class Instance {
 public:
  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  virtual ~Instance() = default;
  virtual void run() = 0;
  [[nodiscard]] virtual Digest digest() const = 0;
};

struct Path {
  std::string name;
  std::function<std::unique_ptr<Instance>()> fresh;
};

struct Case {
  std::string bench;
  std::string name;
  std::vector<Path> timed;    ///< timed[0] is the baseline every ratio divides
  std::vector<Path> untimed;  ///< identity-only passes, run once
};

// --- write_path: one scheme instance driven by one access stream -------

/// A pattern written `count` times through write_cycle, or once through
/// write_batch when `count` is 0.
struct Stream {
  wl::SchemeKind kind{wl::SchemeKind::kNone};
  u64 lines{0};
  const std::vector<La>* addrs{nullptr};
  u64 count{0};
  u64 endurance{0};
};

class StreamRun final : public Instance {
 public:
  /// `tier` empty runs the per-write reference loop.
  StreamRun(const Stream& s, std::optional<wl::EngineTier> tier, bool traced)
      : s_(s), tier_(tier), scheme_(wl::make_scheme(spec_for(s))),
        bank_(pcm::PcmConfig::scaled(s.lines, s.endurance), scheme_->physical_lines()) {
    if (tier_) scheme_->set_engine_tier(*tier_);
    if (traced) {
      telemetry::TelemetryConfig tcfg;
      tcfg.ring_capacity = 2048;
      rec_ = std::make_unique<telemetry::Recorder>(tcfg);
      scheme_->attach_telemetry(rec_.get());
    }
  }

  void run() override {
    const std::span<const La> addrs = *s_.addrs;
    if (!tier_) {
      reference_loop(addrs, s_.count > 0 ? s_.count : addrs.size());
    } else if (s_.count > 0) {
      out_ = scheme_->write_cycle(addrs, data_, s_.count, bank_);
    } else {
      out_ = scheme_->write_batch(addrs, data_, bank_);
    }
  }

  [[nodiscard]] Digest digest() const override {
    Digest d;
    d.work = out_.writes_applied;
    const bool failed = bank_.has_failure();
    d.words = {out_.movements, out_.total.value(), bank_.total_writes(), u64{failed},
               failed ? bank_.first_failed_line().value() : 0, bank_.failure_overshoot()};
    const auto wear = bank_.wear_counts();
    d.words.insert(d.words.end(), wear.begin(), wear.end());
    for (u64 la = 0; la < scheme_->logical_lines(); ++la) {
      d.words.push_back(scheme_->translate(La{la}).value());
    }
    return d;
  }

 private:
  static wl::SchemeSpec spec_for(const Stream& s) {
    wl::SchemeSpec spec;
    spec.kind = s.kind;
    spec.lines = s.lines;
    spec.regions = 64;
    spec.inner_interval = 64;
    spec.outer_interval = 128;
    spec.stages = 7;
    spec.seed = 42;
    return spec;
  }

  /// The contract's reference stream: one write() per element, stopping
  /// at the first failure.
  void reference_loop(std::span<const La> pattern, u64 count) {
    for (u64 i = 0; i < count && !bank_.has_failure(); ++i) {
      const wl::WriteOutcome w = scheme_->write(pattern[i % pattern.size()], data_, bank_);
      out_.total += w.total;
      ++out_.writes_applied;
      out_.movements += w.movements;
    }
  }

  Stream s_;
  std::optional<wl::EngineTier> tier_;
  std::unique_ptr<wl::WearLeveler> scheme_;
  pcm::PcmBank bank_;
  std::unique_ptr<telemetry::Recorder> rec_;
  pcm::LineData data_{pcm::LineData::mixed(0xAA)};
  wl::BulkOutcome out_;
};

// --- sweep / grid: a list of lifetime runs swept to failure -------------

class SweepRun final : public Instance {
 public:
  enum class Engine { kFreshBanks, kArena };

  /// `tier` overrides every config's engine tier; `traced` attaches a
  /// collector to every run.
  SweepRun(std::vector<sim::LifetimeConfig> configs, ThreadPool& pool, Engine engine,
           std::optional<wl::EngineTier> tier = std::nullopt, bool traced = false)
      : configs_(std::move(configs)), pool_(pool), engine_(engine) {
    if (traced) {
      telemetry::TelemetryConfig tcfg;
      tcfg.ring_capacity = 4096;
      collector_ = std::make_unique<telemetry::Collector>(tcfg);
    }
    for (auto& c : configs_) {
      if (tier) c.engine = *tier;
      c.telemetry = collector_.get();
    }
  }

  void run() override {
    if (engine_ == Engine::kArena) {
      entries_ = sim::run_sweep(configs_, pool_, arena_);
      return;
    }
    // The v1 engine: one pool.submit per entry (a heap-allocated
    // packaged_task and future each) and a freshly constructed bank,
    // including a fresh endurance-table draw, per run.
    entries_.resize(configs_.size());
    std::vector<std::future<void>> futs;
    futs.reserve(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      futs.push_back(
          pool_.submit([this, i] { entries_[i].outcome = sim::run_lifetime(configs_[i]); }));
    }
    for (auto& f : futs) f.wait();  // no task may outlive `this`
    for (auto& f : futs) f.get();
  }

  [[nodiscard]] Digest digest() const override {
    Digest d;
    for (const auto& e : entries_) {
      const auto& r = e.outcome.result;
      const auto& w = e.outcome.wear;
      d.work += r.writes;
      d.words.insert(d.words.end(), {u64{r.succeeded}, r.lifetime.value(), r.writes,
                                     r.elapsed.value(), std::bit_cast<u64>(w.mean),
                                     std::bit_cast<u64>(w.coefficient_of_variation),
                                     std::bit_cast<u64>(w.gini),
                                     std::bit_cast<u64>(w.max_over_mean), w.max, w.min});
      d.text += r.attacker + "|" + r.scheme + "|" + r.detail + "\n";
    }
    return d;
  }

 private:
  std::vector<sim::LifetimeConfig> configs_;
  ThreadPool& pool_;
  Engine engine_;
  sim::WorkerArena arena_;
  std::unique_ptr<telemetry::Collector> collector_;
  std::vector<sim::SweepEntry> entries_;
};

// --- the case table ------------------------------------------------------

struct Config {
  // write_path
  u64 lines = u64{1} << 11;
  u64 writes = u64{1} << 21;
  u64 endurance_steady = 4 * writes;  ///< no line can reach it in `writes`
  u64 endurance_fail = writes / lines / 4;  ///< a leveled hammer still dies
  u64 blanket_block = u64{1} << 20;
  // sweep/table1_subset
  u64 sweep_lines = u64{1} << 13;
  u64 sweep_endurance = 2048;
  u64 sweep_seeds = 3;
  // grid/table1_sr2_raa and grid/fig14_stages
  u64 grid_lines = u64{1} << 11;
  u64 table1_endurance = u64{1} << 16;
  u64 fig14_endurance = u64{1} << 16;
};

constexpr wl::SchemeKind kKinds[] = {
    wl::SchemeKind::kNone,         wl::SchemeKind::kStartGap, wl::SchemeKind::kRbsg,
    wl::SchemeKind::kSr1,          wl::SchemeKind::kSr2,      wl::SchemeKind::kMultiWaySr,
    wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kTable,
};

/// Table-I subset: SR2 and Security RBSG at three sub-region counts and two
/// inner intervals under RAA, with endurance variation so every v1 run
/// pays the per-line truncated-Gaussian draw the arena amortizes. Regions
/// follow fig12's recipe: the paper's M = 2^22 / sub_regions, shrunk by
/// the bank's scale factor.
std::vector<sim::LifetimeConfig> table1_subset(const Config& k) {
  auto pcm_cfg = pcm::PcmConfig::scaled(k.sweep_lines, k.sweep_endurance);
  pcm_cfg.endurance_variation = 0.1;
  pcm_cfg.variation_seed = 0xbadcafe;
  const u64 scale_shift = 22 - log2_floor(k.sweep_lines);
  std::vector<sim::LifetimeConfig> out;
  for (const wl::SchemeKind kind : {wl::SchemeKind::kSr2, wl::SchemeKind::kSecurityRbsg}) {
    for (const u64 sub_regions : {256u, 512u, 1024u}) {
      for (const u64 inner : {32u, 64u}) {
        for (u64 seed = 1; seed <= k.sweep_seeds; ++seed) {
          sim::LifetimeConfig c;
          c.pcm = pcm_cfg;
          c.scheme.kind = kind;
          c.scheme.lines = k.sweep_lines;
          const u64 paper_m = (u64{1} << 22) / sub_regions;
          c.scheme.regions = k.sweep_lines / std::max<u64>(4, paper_m >> scale_shift);
          c.scheme.inner_interval = inner;
          c.scheme.outer_interval = 2 * inner;
          c.scheme.stages = 7;
          c.scheme.seed = seed;
          c.seed = seed;
          c.attack = sim::AttackKind::kRaa;
          c.write_budget = u64{1} << 32;
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

/// The Fig. 13 Table-I grid (two-level SR under RAA), scaled as
/// fig13_sr2_raa scales it: R/16, ψ/8.
std::vector<sim::LifetimeConfig> table1_grid(const Config& k) {
  std::vector<sim::LifetimeConfig> out;
  for (const u64 sub_regions : {256u, 512u, 1024u}) {
    for (const u64 inner : {32u, 64u, 128u}) {
      for (const u64 outer : {16u, 64u, 256u}) {
        sim::LifetimeConfig c;
        c.pcm = pcm::PcmConfig::scaled(k.grid_lines, k.table1_endurance);
        c.scheme.kind = wl::SchemeKind::kSr2;
        c.scheme.lines = k.grid_lines;
        c.scheme.regions = sub_regions >> 4;
        c.scheme.inner_interval = std::max<u64>(2, inner >> 3);
        c.scheme.outer_interval = std::max<u64>(2, outer >> 3);
        c.scheme.seed = 1;
        c.seed = 1;
        c.attack = sim::AttackKind::kRaa;
        c.write_budget = u64{1} << 40;
        out.push_back(c);
      }
    }
  }
  return out;
}

/// The Fig. 14 Security RBSG stage sweep, RAA and BPA arms, at the
/// suggested shape M = 64.
std::vector<sim::LifetimeConfig> fig14_grid(const Config& k) {
  std::vector<sim::LifetimeConfig> out;
  for (const u32 stages : {3u, 5u, 7u, 10u, 14u, 20u}) {
    for (const sim::AttackKind attack : {sim::AttackKind::kRaa, sim::AttackKind::kBpa}) {
      sim::LifetimeConfig c;
      c.pcm = pcm::PcmConfig::scaled(k.grid_lines, k.fig14_endurance);
      c.scheme.kind = wl::SchemeKind::kSecurityRbsg;
      c.scheme.lines = k.grid_lines;
      c.scheme.regions = k.grid_lines / 64;
      c.scheme.inner_interval = 8;
      c.scheme.outer_interval = 16;
      c.scheme.stages = stages;
      c.scheme.seed = 1;
      c.seed = 1;
      c.attack = attack;
      c.write_budget = u64{1} << 38;
      out.push_back(c);
    }
  }
  return out;
}

/// Patterns the write_path streams point at; they outlive every case.
struct Patterns {
  std::vector<La> raa;
  std::vector<La> rta;
  std::vector<La> blanket;
};

Patterns make_patterns(const Config& k) {
  Patterns p;
  const u64 n = k.lines;
  p.raa = {La{n / 2}};
  // A handful of spread addresses, far below write_cycle's fallback
  // guard at ψ = 64.
  p.rta = {La{0}, La{n / 7}, La{n / 3}, La{n / 2}, La{2 * n / 3}, La{n - 1}};
  std::vector<u64> raw(k.blanket_block);
  trace::uniform_address_block(n, 0xB10C, 0, raw);
  p.blanket.reserve(raw.size());
  for (const u64 a : raw) p.blanket.push_back(La{a});
  return p;
}

std::vector<Case> make_cases(const Config& k, const Patterns& pat, ThreadPool& pool) {
  using Tier = wl::EngineTier;
  std::vector<Case> cases;
  for (const wl::SchemeKind kind : kKinds) {
    const struct {
      const char* name;
      const std::vector<La>* addrs;
      u64 count;
      u64 endurance;
    } scenarios[] = {
        {"raa_loop", &pat.raa, k.writes, k.endurance_steady},
        {"rta_loop", &pat.rta, k.writes, k.endurance_steady},
        {"fail_stop", &pat.raa, k.writes, k.endurance_fail},
        {"blanket", &pat.blanket, 0, k.endurance_steady},
    };
    for (const auto& sc : scenarios) {
      const Stream s{kind, k.lines, sc.addrs, sc.count, sc.endurance};
      auto path = [s](std::optional<Tier> tier, bool traced) {
        return [s, tier, traced] { return std::make_unique<StreamRun>(s, tier, traced); };
      };
      cases.push_back(
          {"write_path", std::string(wl::to_string(kind)) + "/" + sc.name,
           {{"reference", path(std::nullopt, false)},
            {"windowed", path(Tier::kWindowed, false)},
            {"epoch", path(Tier::kEpoch, false)}},
           {{"windowed+trace", path(Tier::kWindowed, true)},
            {"epoch+trace", path(Tier::kEpoch, true)}}});
    }
  }

  using Engine = SweepRun::Engine;
  auto sweep = [&pool](std::vector<sim::LifetimeConfig> configs, Engine engine,
                       std::optional<Tier> tier = std::nullopt, bool traced = false) {
    return [&pool, configs = std::move(configs), engine, tier, traced] {
      return std::make_unique<SweepRun>(configs, pool, engine, tier, traced);
    };
  };
  const auto subset = table1_subset(k);
  cases.push_back({"sweep", "table1_subset",
                   {{"fresh_banks", sweep(subset, Engine::kFreshBanks)},
                    {"arena", sweep(subset, Engine::kArena)}},
                   {{"epoch", sweep(subset, Engine::kArena, Tier::kEpoch)},
                    {"arena+trace", sweep(subset, Engine::kArena, std::nullopt, true)}}});
  for (auto [name, configs] : {std::pair{"table1_sr2_raa", table1_grid(k)},
                               std::pair{"fig14_stages", fig14_grid(k)}}) {
    cases.push_back({"grid", name,
                     {{"windowed", sweep(configs, Engine::kArena, Tier::kWindowed)},
                      {"epoch", sweep(configs, Engine::kArena, Tier::kEpoch)}},
                     {}});
  }
  return cases;
}

// --- measurement -----------------------------------------------------------

struct Row {
  std::size_t ci{0};  ///< index of the row's case
  const Path* p{nullptr};
  u64 batch{1};
  std::vector<double> ns;  ///< per-run samples
  u64 total_ns{0};
  u64 work{0};
};

class Measurer {
 public:
  /// Times every timed path of every case, then runs the untimed passes;
  /// returns one row per timed path. Paths are visited in rounds over the
  /// whole table, so each path's samples spread over the run and a
  /// machine that slows down for a while slows every path a little
  /// rather than one path a lot. Within a round a case's paths run back
  /// to back, in rotating order. A visit takes samples until it adds
  /// kMinPathNs / kMinReps of timed work, and a path stops being visited
  /// once it has kMinReps samples and kMinPathNs in all.
  std::vector<Row> measure(const std::vector<Case>& cases) {
    cases_ = &cases;
    expected_.assign(cases.size(), std::nullopt);
    diverged_.assign(cases.size(), false);
    std::vector<Row> rows;
    std::vector<std::size_t> first;  ///< each case's first row
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      first.push_back(rows.size());
      for (const Path& p : cases[ci].timed) {
        Row r;
        r.ci = ci;
        r.p = &p;
        rows.push_back(std::move(r));
      }
    }
    for (std::size_t round = 0;; ++round) {
      bool visited = false;
      for (std::size_t ci = 0; ci < cases.size(); ++ci) {
        const std::size_t n = cases[ci].timed.size();
        for (std::size_t k = 0; k < n; ++k) {
          Row& r = rows[first[ci] + (k + round) % n];
          if (r.ns.size() >= kMinReps && r.total_ns >= kMinPathNs) continue;
          const u64 until = r.total_ns + kMinPathNs / kMinReps;
          do {
            take(r);
          } while (r.total_ns < until);
          visited = true;
        }
      }
      if (!visited) break;
    }
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      for (const Path& p : cases[ci].untimed) {
        auto x = p.fresh();
        x->run();
        check(ci, p, x->digest());
      }
    }
    for (Row& r : rows) r.work = expected_[r.ci]->work;
    return rows;
  }

  [[nodiscard]] bool identical() const {
    return std::none_of(diverged_.begin(), diverged_.end(), [](bool d) { return d; });
  }

 private:
  /// Adds one sample to `r`. A sample shorter than kMinSampleNs is
  /// dropped and the batch doubled, so a cold first run that happens to
  /// clear the bar cannot leave a fast path timed one run at a time.
  void take(Row& r) {
    for (;; r.batch *= 2) {
      const u64 dt = sample(r.ci, *r.p, r.batch);
      if (dt >= kMinSampleNs || r.batch >= kMaxBatch) {
        r.ns.push_back(static_cast<double>(dt) / static_cast<double>(r.batch));
        r.total_ns += dt;
        return;
      }
    }
  }

  /// Builds `n` fresh instances, times running them all, and checks each.
  /// A pseudo-random pad allocated first shifts the instances' heap
  /// addresses, so a layout that happens to alias (4K aliasing, cache-set
  /// conflicts) is one sample's luck rather than the whole process's.
  u64 sample(std::size_t ci, const Path& p, u64 n) {
    pad_seed_ = pad_seed_ * 6364136223846793005ULL + 1442695040888963407ULL;
    pad_ = std::make_unique<char[]>(16 * ((pad_seed_ >> 33) % 512 + 1));
    std::vector<std::unique_ptr<Instance>> xs;
    xs.reserve(n);
    for (u64 i = 0; i < n; ++i) xs.push_back(p.fresh());
    const u64 t0 = repobench::host_ns();
    for (auto& x : xs) x->run();
    const u64 dt = repobench::host_ns() - t0;
    for (const auto& x : xs) check(ci, p, x->digest());
    return dt;
  }

  /// A case's first digest is the one every later run must equal.
  void check(std::size_t ci, const Path& p, Digest d) {
    std::optional<Digest>& want = expected_[ci];
    if (!want) {
      want = std::move(d);
    } else if (d != *want) {
      if (!diverged_[ci]) {
        const Case& c = (*cases_)[ci];
        std::cerr << "perf_engines: " << c.bench << "/" << c.name << ": path '" << p.name
                  << "' diverged from '" << c.timed[0].name << "'\n";
      }
      diverged_[ci] = true;
    }
  }

  const std::vector<Case>* cases_{nullptr};
  std::vector<std::optional<Digest>> expected_;
  std::vector<bool> diverged_;
  u64 pad_seed_{1};
  std::unique_ptr<char[]> pad_;
};

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv, kFlagThreads | kFlagJson);

  const Config k;
  const Patterns pat = make_patterns(k);
  ThreadPool pool(opts.threads);
  const std::vector<Case> cases = make_cases(k, pat, pool);

  std::cout << "==== perf_engines: write path, sweep engine and epoch tier ====\n"
            << "engineering bench, no paper figure; see DESIGN.md §10\n"
            << cases.size() << " cases, " << pool.size() << " threads; each path >= "
            << kMinReps << " reps and " << kMinPathNs / 1'000'000 << " ms\n\n";

  Measurer m;
  const std::vector<Row> rows = m.measure(cases);

  Table t({"case", "path", "reps", "median ms", "MAD %", "baseline / path"});
  double base = 0.0;
  for (const Row& r : rows) {
    const Case& c = cases[r.ci];
    const double med = repobench::median(r.ns);
    if (r.p == &c.timed[0]) base = med;
    t.add_row({c.bench + "/" + c.name, r.p->name, std::to_string(r.ns.size()),
               fmt_double(med / 1e6, 4), fmt_double(100.0 * repobench::mad(r.ns) / med, 2),
               fmt_double(base / med, 2) + "x"});
  }
  t.print(std::cout);
  std::cout << "\nevery path bit-identical to its case's baseline, traced and untraced: "
            << (m.identical() ? "yes" : "NO") << "\n";

  if (!opts.json.empty()) {
    std::ofstream os(opts.json);
    if (!os) {
      std::cerr << "perf_engines: cannot open " << opts.json << " for writing\n";
      return 3;
    }
    os << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"perf_engines\",\n"
       << "  \"config\": {";
    const std::pair<const char*, u64> config[] = {
        {"lines", k.lines},
        {"writes", k.writes},
        {"endurance_steady", k.endurance_steady},
        {"endurance_fail", k.endurance_fail},
        {"blanket_block", k.blanket_block},
        {"sweep_lines", k.sweep_lines},
        {"sweep_endurance", k.sweep_endurance},
        {"sweep_seeds", k.sweep_seeds},
        {"grid_lines", k.grid_lines},
        {"table1_endurance", k.table1_endurance},
        {"fig14_endurance", k.fig14_endurance},
        {"min_reps", kMinReps},
        {"min_path_ns", kMinPathNs},
        {"min_sample_ns", kMinSampleNs},
    };
    const char* sep = "";
    for (const auto& [name, value] : config) {
      os << sep << "\"" << name << "\": " << value;
      sep = ", ";
    }
    os << "},\n"
       << "  \"threads\": " << pool.size() << ",\n"
       << "  \"identical\": " << (m.identical() ? "true" : "false") << ",\n"
       << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << "    {\"bench\": \"" << cases[r.ci].bench << "\", \"case\": \"" << cases[r.ci].name
         << "\", \"path\": \"" << r.p->name << "\", \"reps\": " << r.ns.size()
         << ", \"median_ns\": " << json_number(repobench::median(r.ns))
         << ", \"mad_ns\": " << json_number(repobench::mad(r.ns)) << ", \"work\": " << r.work
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << opts.json << "\n";
  }
  return m.identical() ? 0 : 1;
}
