#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include "sim/write_distribution.hpp"

namespace srbsg::sim {
namespace {

LifetimeConfig base_cfg() {
  LifetimeConfig c;
  c.pcm = pcm::PcmConfig::scaled(1024, 4096);
  c.scheme.kind = wl::SchemeKind::kRbsg;
  c.scheme.lines = 1024;
  c.scheme.regions = 8;
  c.scheme.inner_interval = 8;
  c.scheme.seed = 3;
  c.attack = AttackKind::kRaa;
  c.write_budget = u64{1} << 34;
  return c;
}

TEST(Lifetime, RaaRunCompletes) {
  const auto out = run_lifetime(base_cfg());
  EXPECT_TRUE(out.result.succeeded);
  EXPECT_GT(out.result.lifetime.value(), 0u);
  EXPECT_GT(out.wear.max, 0u);
}

TEST(Lifetime, RtaBeatsRaaOnRbsg) {
  auto rta = base_cfg();
  rta.attack = AttackKind::kRta;
  rta.pcm = pcm::PcmConfig::scaled(1024, 8192);
  rta.scheme.regions = 4;
  auto raa = rta;
  raa.attack = AttackKind::kRaa;
  const auto out_rta = run_lifetime(rta);
  const auto out_raa = run_lifetime(raa);
  ASSERT_TRUE(out_rta.result.succeeded) << out_rta.result.detail;
  ASSERT_TRUE(out_raa.result.succeeded);
  EXPECT_LT(out_rta.result.lifetime.value(), out_raa.result.lifetime.value());
}

TEST(Lifetime, AttackerDispatchCoversEverySchemeAndAttack) {
  for (auto kind : {wl::SchemeKind::kNone, wl::SchemeKind::kStartGap, wl::SchemeKind::kRbsg,
                    wl::SchemeKind::kSr1, wl::SchemeKind::kSr2, wl::SchemeKind::kMultiWaySr,
                    wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kTable}) {
    for (auto atk : {AttackKind::kRaa, AttackKind::kBpa, AttackKind::kRta}) {
      LifetimeConfig c = base_cfg();
      c.scheme.kind = kind;
      c.scheme.regions = 8;
      c.attack = atk;
      EXPECT_NE(make_attacker(c), nullptr);
    }
  }
}

TEST(Lifetime, NamesResolve) {
  EXPECT_EQ(to_string(AttackKind::kRaa), "RAA");
  EXPECT_EQ(to_string(AttackKind::kBpa), "BPA");
  EXPECT_EQ(to_string(AttackKind::kRta), "RTA");
}

TEST(Sweep, RunsAllConfigsInOrder) {
  ThreadPool pool(2);
  std::vector<LifetimeConfig> configs;
  for (u64 regions : {4u, 8u, 16u}) {
    auto c = base_cfg();
    c.scheme.regions = regions;
    configs.push_back(c);
  }
  const auto entries = run_sweep(configs, pool);
  ASSERT_EQ(entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(entries[i].config.scheme.regions, configs[i].scheme.regions);
    EXPECT_TRUE(entries[i].outcome.result.succeeded);
  }
}

TEST(Sweep, AverageLifetimeReportsFullConvergence) {
  ThreadPool pool(2);
  const AverageLifetime avg = average_lifetime(base_cfg(), 3, pool);
  EXPECT_EQ(avg.seeds, 3u);
  EXPECT_EQ(avg.counted, 3u);
  EXPECT_TRUE(avg.complete());
  EXPECT_GT(avg.mean_ns, 0.0);
}

TEST(Sweep, AverageLifetimeSurfacesNonConvergence) {
  // A write budget far below the endurance requirement: no seed can reach
  // failure, which must be visible in the return value instead of
  // silently biasing (or aborting) the average.
  ThreadPool pool(2);
  auto c = base_cfg();
  c.write_budget = 64;
  const AverageLifetime avg = average_lifetime(c, 3, pool);
  EXPECT_EQ(avg.seeds, 3u);
  EXPECT_EQ(avg.counted, 0u);
  EXPECT_FALSE(avg.complete());
  EXPECT_EQ(avg.mean_ns, 0.0);
}

TEST(Sweep, AverageLifetimeSharedArenaMatches) {
  ThreadPool pool(2);
  WorkerArena arena;
  const AverageLifetime with_arena = average_lifetime(base_cfg(), 3, pool, arena);
  const AverageLifetime fresh = average_lifetime(base_cfg(), 3, pool);
  EXPECT_EQ(with_arena.mean_ns, fresh.mean_ns);
  EXPECT_EQ(with_arena.counted, fresh.counted);
}

TEST(Sweep, EngineTiersAgreeToFailureUnderAttack) {
  // The Table-I and Fig. 14 sweeps run to failure on the epoch tier (the
  // default) or the windowed one; both must reproduce the per-write
  // reference on whole attack runs, not only on single writes. SR2 and
  // Security RBSG under RAA and BPA, with endurance variation so every
  // line has its own limit.
  const auto config = [](wl::SchemeKind kind, AttackKind attack, u64 seed, u64 lines,
                         u64 outer_interval) {
    LifetimeConfig c;
    c.pcm = pcm::PcmConfig::scaled(lines, 2048);
    c.pcm.endurance_variation = 0.1;
    c.pcm.variation_seed = 0xbadcafe;
    c.scheme.kind = kind;
    c.scheme.lines = lines;
    c.scheme.regions = lines / 32;
    c.scheme.inner_interval = 8;
    c.scheme.outer_interval = outer_interval;
    c.scheme.seed = seed;
    c.seed = seed;
    c.attack = attack;
    c.write_budget = u64{1} << 32;
    return c;
  };
  std::vector<LifetimeConfig> configs;
  for (const wl::SchemeKind kind : {wl::SchemeKind::kSr2, wl::SchemeKind::kSecurityRbsg}) {
    for (const AttackKind attack : {AttackKind::kRaa, AttackKind::kBpa}) {
      for (u64 seed = 1; seed <= 2; ++seed) {
        configs.push_back(config(kind, attack, seed, 512, 16));
      }
    }
  }
  // Security RBSG at ψ_out = 2, where the DFN walk is densest, at an odd
  // (2^9) and an even (2^10) width. Each run lives through at least two
  // DFN rounds (checked below), so the walk reads the DEC_Kc table that
  // every round after the first fills.
  const std::size_t dense_from = configs.size();
  for (const u64 lines : {512u, 1024u}) {
    for (const AttackKind attack : {AttackKind::kRaa, AttackKind::kBpa}) {
      configs.push_back(config(wl::SchemeKind::kSecurityRbsg, attack, 3, lines, 2));
    }
  }
  ThreadPool pool(2);
  std::vector<std::vector<SweepEntry>> runs;
  for (const wl::EngineTier tier :
       {wl::EngineTier::kReference, wl::EngineTier::kWindowed, wl::EngineTier::kEpoch}) {
    for (auto& c : configs) c.engine = tier;
    runs.push_back(run_sweep(configs, pool));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const LifetimeOutcome& ref = runs[0][i].outcome;
      const LifetimeOutcome& got = runs[t][i].outcome;
      SCOPED_TRACE("tier " + std::to_string(t) + ", entry " + std::to_string(i));
      EXPECT_TRUE(ref.result.succeeded);
      EXPECT_EQ(got.result.succeeded, ref.result.succeeded);
      EXPECT_EQ(got.result.lifetime, ref.result.lifetime);
      EXPECT_EQ(got.result.writes, ref.result.writes);
      EXPECT_EQ(got.result.elapsed, ref.result.elapsed);
      EXPECT_EQ(got.result.attacker, ref.result.attacker);
      EXPECT_EQ(got.result.scheme, ref.result.scheme);
      EXPECT_EQ(got.result.detail, ref.result.detail);
      EXPECT_EQ(got.wear.mean, ref.wear.mean);
      EXPECT_EQ(got.wear.coefficient_of_variation, ref.wear.coefficient_of_variation);
      EXPECT_EQ(got.wear.gini, ref.wear.gini);
      EXPECT_EQ(got.wear.max_over_mean, ref.wear.max_over_mean);
      EXPECT_EQ(got.wear.max, ref.wear.max);
      EXPECT_EQ(got.wear.min, ref.wear.min);
    }
  }
  for (std::size_t i = dense_from; i < configs.size(); ++i) {
    // A DFN round is N + C <= 2N movements, one per ψ_out writes.
    const u64 round_writes = 2 * configs[i].scheme.lines * configs[i].scheme.outer_interval;
    EXPECT_GE(runs[0][i].outcome.result.writes, 2 * round_writes) << "entry " << i;
  }
}

TEST(Distribution, SecurityRbsgSpreadsRaaWrites) {
  wl::SchemeSpec spec;
  spec.kind = wl::SchemeKind::kSecurityRbsg;
  spec.lines = 1024;
  spec.regions = 16;
  spec.inner_interval = 8;
  spec.outer_interval = 16;
  spec.stages = 7;
  const auto cfg = pcm::PcmConfig::scaled(1024, u64{1} << 40);
  const auto few = raa_write_distribution(cfg, spec, 100'000, 32);
  const auto many = raa_write_distribution(cfg, spec, 10'000'000, 32);
  // Fig. 16: more writes -> closer to the diagonal.
  EXPECT_LT(many.linearity_deviation, few.linearity_deviation);
  EXPECT_LT(many.linearity_deviation, 0.2);
  EXPECT_EQ(many.cumulative.size(), 32u);
  EXPECT_DOUBLE_EQ(many.cumulative.back(), 1.0);
}

TEST(Distribution, NoWlIsAStepFunction) {
  wl::SchemeSpec spec;
  spec.kind = wl::SchemeKind::kNone;
  spec.lines = 1024;
  const auto cfg = pcm::PcmConfig::scaled(1024, u64{1} << 40);
  const auto res = raa_write_distribution(cfg, spec, 100'000, 32);
  EXPECT_GT(res.linearity_deviation, 0.9);
}

}  // namespace
}  // namespace srbsg::sim
