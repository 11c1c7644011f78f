#include "sim/sweep.hpp"

#include "common/check.hpp"

namespace srbsg::sim {

std::vector<SweepEntry> run_sweep(std::span<const LifetimeConfig> configs, ThreadPool& pool) {
  WorkerArena arena;
  return run_sweep(configs, pool, arena);
}

std::vector<SweepEntry> run_sweep(std::span<const LifetimeConfig> configs, ThreadPool& pool,
                                  WorkerArena& arena) {
  std::vector<SweepEntry> entries(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    entries[i].config = configs[i];
    // Trace runs are keyed by sweep position so JSONL output is stable
    // across worker counts and completion order.
    entries[i].config.telemetry_entry = i;
  }
  parallel_for(pool, configs.size(), [&entries, &arena](std::size_t i) {
    entries[i].outcome = run_lifetime(entries[i].config, arena);
  });
  return entries;
}

namespace {

AverageLifetime average_over(const std::vector<SweepEntry>& entries) {
  AverageLifetime avg;
  avg.seeds = entries.size();
  double sum = 0.0;
  for (const auto& e : entries) {
    if (e.outcome.result.succeeded) {
      sum += static_cast<double>(e.outcome.result.lifetime.value());
      ++avg.counted;
    }
  }
  if (avg.counted > 0) avg.mean_ns = sum / static_cast<double>(avg.counted);
  return avg;
}

std::vector<LifetimeConfig> seeded_replicas(const LifetimeConfig& base, u64 seeds) {
  check(seeds >= 1, "average_lifetime: need at least one seed");
  std::vector<LifetimeConfig> configs(seeds, base);
  for (u64 s = 0; s < seeds; ++s) {
    configs[s].seed = base.seed + s;
    configs[s].scheme.seed = base.scheme.seed + s;
  }
  return configs;
}

}  // namespace

AverageLifetime average_lifetime(const LifetimeConfig& base, u64 seeds, ThreadPool& pool) {
  WorkerArena arena;
  return average_lifetime(base, seeds, pool, arena);
}

AverageLifetime average_lifetime(const LifetimeConfig& base, u64 seeds, ThreadPool& pool,
                                 WorkerArena& arena) {
  return average_over(run_sweep(seeded_replicas(base, seeds), pool, arena));
}

}  // namespace srbsg::sim
