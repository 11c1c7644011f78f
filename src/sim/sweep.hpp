#pragma once
// Parameter sweeps over (scheme config × attack × seed) — the engine
// behind the figure benches. Runs are independent, so they fan out over a
// thread pool; banks are recycled through a WorkerArena so a sweep
// performs O(concurrent workers) large allocations, not O(entries).

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/arena.hpp"
#include "sim/lifetime.hpp"

namespace srbsg::sim {

struct SweepEntry {
  LifetimeConfig config;
  LifetimeOutcome outcome;
};

/// Runs every config; results are in input order. Banks are recycled
/// through an internal arena that lives for the duration of the call.
[[nodiscard]] std::vector<SweepEntry> run_sweep(std::span<const LifetimeConfig> configs,
                                                ThreadPool& pool);

/// Same, recycling banks through a caller-owned arena — use this when
/// issuing several sweeps in a row (bench grids) so the bank pool
/// persists across calls.
[[nodiscard]] std::vector<SweepEntry> run_sweep(std::span<const LifetimeConfig> configs,
                                                ThreadPool& pool, WorkerArena& arena);

/// Lifetime averaged over seeded replicas of one config (paper Fig. 12
/// averages five random keys per configuration). `counted` < `seeds`
/// means some replicas exhausted their write budget before any line
/// failed; the mean is over the counted replicas only, so callers must
/// inspect complete() instead of trusting a silently biased average.
struct AverageLifetime {
  double mean_ns{0.0};  ///< over the replicas that reached failure
  u64 counted{0};       ///< replicas that reached failure within budget
  u64 seeds{0};         ///< replicas requested
  [[nodiscard]] bool complete() const { return counted == seeds; }
};

[[nodiscard]] AverageLifetime average_lifetime(const LifetimeConfig& base, u64 seeds,
                                               ThreadPool& pool);
[[nodiscard]] AverageLifetime average_lifetime(const LifetimeConfig& base, u64 seeds,
                                               ThreadPool& pool, WorkerArena& arena);

}  // namespace srbsg::sim
