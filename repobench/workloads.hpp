#pragma once
// The benchmark's workloads: plans generated from the seed, the untraced
// pass through the library's public entry points, the traced pass
// composed from the same public parts sim::run_lifetime uses, and the
// output checks.

#include <algorithm>
#include <iosfwd>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "sim/arena.hpp"
#include "sim/lifetime.hpp"
#include "timed_scheme.hpp"

namespace srbsg::telemetry {
class Collector;
}  // namespace srbsg::telemetry

namespace repobench {

enum class Workload : srbsg::u8 { kRaaSweep, kRtaProbe, kTraceReplay };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

enum class Pattern : srbsg::u8 { kHotspot, kZipf, kUniform };

/// One trace_replay cell: benign traffic replayed to first failure.
struct TraceCell {
  srbsg::pcm::PcmConfig pcm;
  srbsg::wl::SchemeSpec scheme;
  Pattern pattern{Pattern::kUniform};
  u64 seed{1};
};

/// Everything the library receives for one workload and seed.
struct Plan {
  std::vector<srbsg::sim::LifetimeConfig> runs;  ///< raa_sweep, rta_probe
  std::vector<TraceCell> cells;                  ///< trace_replay
  u64 lines{0};  ///< bank size of the calibrated layer metrics

  [[nodiscard]] std::size_t size() const { return cells.empty() ? runs.size() : cells.size(); }
  [[nodiscard]] const srbsg::pcm::PcmConfig& pcm(std::size_t i) const;
  [[nodiscard]] const srbsg::wl::SchemeSpec& scheme(std::size_t i) const;
};

/// The plan of measurement pass `pass` of the workload seeded by `seed`.
[[nodiscard]] Plan make_plan(Workload workload, u64 seed, u64 pass);

/// Pool workers for `nproc` runners: parallel_for runs the calling
/// thread beside every pool worker.
[[nodiscard]] std::size_t pool_threads();

/// The simulated result of one run; compared bit for bit.
struct Outcome {
  bool succeeded{false};
  u64 lifetime_ns{0};
  u64 writes{0};
  u64 elapsed_ns{0};
  srbsg::WearMetrics wear;
};

[[nodiscard]] bool same_outcome(const Outcome& a, const Outcome& b);
[[nodiscard]] u64 digest(std::span<const Outcome> outcomes);

/// Checks a run's outcome alone: it reached its first failure, and the
/// wear at failure is consistent with that.
[[nodiscard]] bool outcome_valid(const Plan& plan, std::size_t i, const Outcome& o);

/// Failed runs of a plan. A run fails when any check on any of its
/// executions fails; failed() is reported against attempted().
class FailureLog {
 public:
  explicit FailureLog(std::size_t runs = 0) : bad_(runs, false) {}

  /// Adds `runs` runs; returns the index of the first.
  std::size_t extend(std::size_t runs) {
    bad_.resize(bad_.size() + runs, false);
    return bad_.size() - runs;
  }
  void check(std::size_t run, bool ok) {
    if (!ok) bad_[run] = true;
  }
  void check_same(std::size_t run, const Outcome& got, const Outcome& want) {
    check(run, same_outcome(got, want));
  }
  [[nodiscard]] std::size_t attempted() const { return bad_.size(); }
  [[nodiscard]] std::size_t failed() const {
    return static_cast<std::size_t>(std::count(bad_.begin(), bad_.end(), true));
  }

 private:
  std::vector<bool> bad_;
};

/// The untraced pass: sim::run_sweep over the lifetime runs, or the
/// trace cells replayed through MemoryController::write_batch under
/// parallel_for. With a collector, every run records telemetry the way
/// --trace-out users record it.
[[nodiscard]] std::vector<Outcome> run_untraced(const Plan& plan, srbsg::ThreadPool& pool,
                                                srbsg::telemetry::Collector* collector = nullptr);

/// One traced run, timed from outside on the host steady clock.
struct RunTrace {
  Outcome outcome;
  SchemeTimes times;
  u64 start_ns{0};
  u64 setup_end_ns{0};  ///< scheme, bank, controller (and attacker) built
  u64 body_end_ns{0};   ///< attack or replay finished
  u64 wear_end_ns{0};   ///< compute_wear_metrics finished
  u64 end_ns{0};
  u64 gen_ns{0};  ///< trace::make_* time (cells only)
  u64 gen_records{0};
  u64 gen_calls{0};
  u64 bank_writes{0};  ///< PcmBank::total_writes() at the end
  srbsg::u32 writes_per_movement{1};
  std::size_t runner{0};

  /// Wear conservation: every bank write is a logical write or part of
  /// a remap movement.
  [[nodiscard]] bool conserved() const {
    return bank_writes == times.writes_applied() + times.movements * writes_per_movement;
  }
};

/// Run `i` composed from the public parts sim::run_lifetime uses, with
/// the timing decorator around its scheme; `tier` overrides the
/// configured engine tier. No telemetry recorder is attached, so the
/// layer times carry no recording cost; the engine-path counters come
/// from the collector pass, whose runs are bit-identical.
[[nodiscard]] RunTrace run_traced(const Plan& plan, std::size_t i,
                                  srbsg::sim::WorkerArena& arena,
                                  std::optional<srbsg::wl::EngineTier> tier = std::nullopt);

struct TracedPass {
  std::vector<RunTrace> runs;
  u64 start_ns{0};
  u64 end_ns{0};
  srbsg::sim::WorkerArena::Stats arena;
};

/// Every run of the plan traced, spread over the pool's runners.
[[nodiscard]] TracedPass run_traced_pass(const Plan& plan, srbsg::ThreadPool& pool);

/// Writes traced passes as Chrome trace-event JSON (Perfetto opens it),
/// pass k as process k + 1 with one track per runner: per run a span
/// tree run -> {setup, attack|replay -> {wl.*, mapping.translate,
/// trace.gen}, wear}, with the run index as span id. Per-call entry
/// points are aggregated per run and laid back to back from their
/// parent's start, clipped to the parent (args.busy_ns keeps the
/// unclipped time).
void write_spans(std::ostream& os, std::span<const Plan> plans,
                 std::span<const TracedPass> passes);

/// Host ns from `t_start` until the first simulated write of pass 0:
/// pool spawn, plan build, first bank acquisition and scheme (and
/// attacker) construction.
[[nodiscard]] u64 setup_probe(Workload workload, u64 seed, u64 t_start);

}  // namespace repobench
