#include "wl/security_rbsg.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "wl_test_util.hpp"

namespace srbsg::wl {
namespace {

SecurityRbsgConfig small_cfg() {
  SecurityRbsgConfig cfg;
  cfg.lines = 256;
  cfg.sub_regions = 8;
  cfg.inner_interval = 4;
  cfg.outer_interval = 8;
  cfg.stages = 7;
  cfg.seed = 31;
  return cfg;
}

pcm::PcmConfig pcm_for(const SecurityRbsgConfig& cfg) {
  return pcm::PcmConfig::scaled(cfg.lines, u64{1} << 40);
}

TEST(SecurityRbsg, PhysicalLayout) {
  SecurityRbsg s(small_cfg());
  // 8 regions × (32+1) slots + 1 outer spare.
  EXPECT_EQ(s.physical_lines(), 8 * 33 + 1);
}

TEST(SecurityRbsg, InitiallyBijective) {
  SecurityRbsg s(small_cfg());
  testutil::expect_translation_bijective(s);
}

TEST(SecurityRbsg, IntegrityChurn) {
  const auto cfg = small_cfg();
  SecurityRbsg s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 40'000, 4'000);
}

TEST(SecurityRbsg, BulkMatchesPerWriteExactly) {
  const auto cfg = small_cfg();
  SecurityRbsg a(cfg), b(cfg);
  pcm::PcmBank bank_a(pcm_for(cfg), a.physical_lines());
  pcm::PcmBank bank_b(pcm_for(cfg), b.physical_lines());
  Ns t_loop{0};
  for (int i = 0; i < 10'000; ++i) {
    t_loop += a.write(La{5}, pcm::LineData::all_one(), bank_a).total;
  }
  const auto bulk = b.write_repeated(La{5}, pcm::LineData::all_one(), 10'000, bank_b);
  EXPECT_EQ(bulk.total, t_loop);
  for (u64 la = 0; la < cfg.lines; ++la) {
    EXPECT_EQ(a.translate(La{la}), b.translate(La{la})) << la;
  }
  for (std::size_t i = 0; i < bank_a.wear_counts().size(); ++i) {
    EXPECT_EQ(bank_a.wear_counts()[i], bank_b.wear_counts()[i]) << "pa " << i;
  }
}

TEST(SecurityRbsg, OuterRekeysUnderSustainedTraffic) {
  const auto cfg = small_cfg();
  SecurityRbsg s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  const u64 rounds_before = s.outer().rounds_completed();
  // Enough writes for several outer rounds: a round needs about
  // (N + cycles) movements, each every outer_interval writes.
  for (u64 i = 0; i < 4 * (cfg.lines + 20) * cfg.outer_interval; ++i) {
    s.write(La{i % cfg.lines}, pcm::LineData::all_zero(), bank);
  }
  EXPECT_GE(s.outer().rounds_completed(), rounds_before + 2);
}

TEST(SecurityRbsg, HammeredAddressKeepsMoving) {
  // The essential defense property: under single-address hammering the
  // physical target keeps changing (inner rotation + outer re-keying).
  const auto cfg = small_cfg();
  SecurityRbsg s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  std::unordered_set<u64> slots;
  for (int epoch = 0; epoch < 50; ++epoch) {
    slots.insert(s.translate(La{9}).value());
    s.write_repeated(La{9}, pcm::LineData::all_zero(),
                     (cfg.region_lines() + 1) * cfg.inner_interval, bank);
  }
  EXPECT_GT(slots.size(), 10u);
}

TEST(SecurityRbsg, WearSpreadUnderRaaBeatsNoWl) {
  const auto cfg = small_cfg();
  SecurityRbsg s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  s.write_repeated(La{0}, pcm::LineData::mixed(), 2'000'000, bank);
  const auto metrics = srbsg::compute_wear_metrics(bank.wear_counts());
  // Without wear leveling max/mean would be the line count (~265); with
  // Security RBSG the hot line should be within a small factor of mean.
  EXPECT_LT(metrics.max_over_mean, 10.0);
}

TEST(SecurityRbsg, ConfigValidation) {
  auto cfg = small_cfg();
  cfg.stages = 0;
  EXPECT_THROW(SecurityRbsg{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.sub_regions = 3;
  EXPECT_THROW(SecurityRbsg{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.sub_regions = 0;  // rejected before the region shift is derived
  EXPECT_THROW(SecurityRbsg{cfg}, CheckFailure);
}

class SecurityRbsgShapes
    : public ::testing::TestWithParam<std::tuple<u64, u64, u64, u32>> {};

TEST_P(SecurityRbsgShapes, IntegrityAcrossShapes) {
  SecurityRbsgConfig cfg;
  cfg.lines = 128;
  cfg.sub_regions = std::get<0>(GetParam());
  cfg.inner_interval = std::get<1>(GetParam());
  cfg.outer_interval = std::get<2>(GetParam());
  cfg.stages = std::get<3>(GetParam());
  cfg.seed = 37;
  SecurityRbsg s(cfg);
  pcm::PcmBank bank(pcm::PcmConfig::scaled(128, u64{1} << 40), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 15'000);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SecurityRbsgShapes,
                         ::testing::Values(std::make_tuple(2u, 2u, 4u, 3u),
                                           std::make_tuple(4u, 4u, 4u, 7u),
                                           std::make_tuple(16u, 8u, 2u, 6u),
                                           std::make_tuple(32u, 1u, 1u, 12u),
                                           std::make_tuple(8u, 16u, 64u, 20u)));

}  // namespace
}  // namespace srbsg::wl
