// End-to-end scenarios crossing every layer: scheme + controller +
// attacker + analytic model, checking the paper's qualitative claims on
// a scaled bank.

#include <gtest/gtest.h>

#include "analytic/lifetime_models.hpp"
#include "sim/lifetime.hpp"

namespace srbsg {
namespace {

using sim::AttackKind;
using sim::LifetimeConfig;
using sim::run_lifetime;

LifetimeConfig cfg_for(wl::SchemeKind kind, AttackKind attack, u64 lines, u64 endurance) {
  LifetimeConfig c;
  c.pcm = pcm::PcmConfig::scaled(lines, endurance);
  c.scheme.kind = kind;
  c.scheme.lines = lines;
  c.scheme.regions = 8;
  c.scheme.inner_interval = 8;
  c.scheme.outer_interval = 16;
  c.scheme.stages = 7;
  c.scheme.seed = 11;
  c.attack = attack;
  c.write_budget = u64{1} << 36;
  return c;
}

TEST(Integration, SchemeOrderingUnderRaa) {
  // NoWL dies fastest; Start-Gap helps; Security RBSG approaches ideal.
  const u64 lines = 1024, endurance = 2048;
  const auto none = run_lifetime(cfg_for(wl::SchemeKind::kNone, AttackKind::kRaa, lines,
                                         endurance));
  const auto rbsg = run_lifetime(cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRaa, lines,
                                         endurance));
  const auto srbsg = run_lifetime(cfg_for(wl::SchemeKind::kSecurityRbsg, AttackKind::kRaa,
                                          lines, endurance));
  ASSERT_TRUE(none.result.succeeded);
  ASSERT_TRUE(rbsg.result.succeeded);
  ASSERT_TRUE(srbsg.result.succeeded);
  EXPECT_LT(none.result.lifetime.value() * 10, rbsg.result.lifetime.value());
  EXPECT_LT(none.result.lifetime.value() * 10, srbsg.result.lifetime.value());
}

TEST(Integration, SecurityRbsgNearIdealUnderRaa) {
  // Fig. 14/15: Security RBSG reaches a large fraction of the ideal
  // lifetime under RAA (67.2% at paper scale with 7 stages). The scaled
  // run must keep the paper's regime: per-visit wear (M+1)·ψ_in well
  // below the endurance, or the result degenerates to birthday luck.
  const u64 lines = 512, endurance = 16384;
  auto c = cfg_for(wl::SchemeKind::kSecurityRbsg, AttackKind::kRaa, lines, endurance);
  c.scheme.regions = 8;        // M = 64, visit = 65*8 = 520 << E
  const auto out = run_lifetime(c);
  ASSERT_TRUE(out.result.succeeded);
  const double ideal = analytic::ideal_lifetime_ns(c.pcm);
  const double frac = static_cast<double>(out.result.lifetime.value()) / ideal;
  // Small banks sit deep in the extreme-value statistics (few visits per
  // slot at failure), so the achievable fraction is scale-depressed:
  // ~0.1-0.3 here vs 0.672 at paper scale. Unprotected RAA would be 1/N
  // = 0.2%; anything above 8% demonstrates effective leveling.
  EXPECT_GT(frac, 0.08);
  EXPECT_LE(frac, 1.02);
}

TEST(Integration, RtaHeadline) {
  // §III: RTA defeats RBSG and two-level SR; Security RBSG resists it.
  const u64 lines = 1024;
  const auto rbsg =
      run_lifetime(cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRta, lines, 4096));
  ASSERT_TRUE(rbsg.result.succeeded) << rbsg.result.detail;

  auto sr2_cfg = cfg_for(wl::SchemeKind::kSr2, AttackKind::kRta, lines, 2048);
  sr2_cfg.scheme.regions = 16;
  sr2_cfg.scheme.inner_interval = 4;
  sr2_cfg.scheme.outer_interval = 8;
  const auto sr2 = run_lifetime(sr2_cfg);
  ASSERT_TRUE(sr2.result.succeeded) << sr2.result.detail;

  auto srbsg_cfg = cfg_for(wl::SchemeKind::kSecurityRbsg, AttackKind::kRta, lines, 4096);
  srbsg_cfg.write_budget = rbsg.result.writes * 2;  // same order of effort
  const auto srbsg = run_lifetime(srbsg_cfg);
  EXPECT_FALSE(srbsg.result.succeeded)
      << "Security RBSG fell to an RTA-sized budget: " << srbsg.result.detail;
}

TEST(Integration, WearConcentrationTellsTheStory) {
  // Under RTA the RBSG wear histogram is a spike; under RAA it is flat.
  const u64 lines = 1024;
  const auto rta = run_lifetime(cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRta, lines, 4096));
  const auto raa = run_lifetime(cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRaa, lines, 4096));
  ASSERT_TRUE(rta.result.succeeded);
  ASSERT_TRUE(raa.result.succeeded);
  EXPECT_GT(rta.wear.max_over_mean, raa.wear.max_over_mean);
}

TEST(Integration, AnalyticModelTracksSimulatedRaaAcrossScales) {
  // The extrapolation path: the discrete RAA/RBSG closed form must track
  // the simulator at multiple scales so paper-scale evaluation is
  // justified. The endurance scales with the per-visit wear (M+1)·ψ so
  // every scale sits in the paper's many-visits regime.
  for (u64 lines : {512u, 1024u, 2048u}) {
    const u64 m = lines / 8;
    const u64 endurance = 16 * (m + 1) * 8;
    auto c = cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRaa, lines, endurance);
    const auto out = run_lifetime(c);
    ASSERT_TRUE(out.result.succeeded);
    const double model = analytic::raa_rbsg_exact_ns(
        c.pcm, analytic::RbsgShape{c.scheme.regions, c.scheme.inner_interval});
    const double ratio = static_cast<double>(out.result.lifetime.value()) / model;
    EXPECT_NEAR(ratio, 1.0, 0.15) << "lines=" << lines;
  }

  // The epoch tier, which the dense Table-I protocol runs on, at 2^12
  // lines: its lifetime must land within 10% of the same closed form.
  auto c = cfg_for(wl::SchemeKind::kRbsg, AttackKind::kRaa, u64{1} << 12, u64{1} << 14);
  c.scheme.regions = 16;
  c.scheme.inner_interval = 32;
  c.scheme.seed = 3;
  c.seed = 3;
  c.engine = wl::EngineTier::kEpoch;
  const auto out = run_lifetime(c);
  ASSERT_TRUE(out.result.succeeded);
  const double model = analytic::raa_rbsg_exact_ns(
      c.pcm, analytic::RbsgShape{c.scheme.regions, c.scheme.inner_interval});
  EXPECT_NEAR(static_cast<double>(out.result.lifetime.value()) / model, 1.0, 0.10);
}

}  // namespace
}  // namespace srbsg
