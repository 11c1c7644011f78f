#include "wl/two_level_sr.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "wl_test_util.hpp"

namespace srbsg::wl {
namespace {

TwoLevelSrConfig small_cfg() {
  TwoLevelSrConfig cfg;
  cfg.lines = 256;
  cfg.sub_regions = 8;
  cfg.inner_interval = 4;
  cfg.outer_interval = 8;
  cfg.seed = 11;
  return cfg;
}

pcm::PcmConfig pcm_for(const TwoLevelSrConfig& cfg) {
  return pcm::PcmConfig::scaled(cfg.lines, u64{1} << 40);
}

TEST(Sr2, NoSpareLines) {
  TwoLevelSecurityRefresh s(small_cfg());
  EXPECT_EQ(s.physical_lines(), 256u);
}

TEST(Sr2, InitiallyBijective) {
  TwoLevelSecurityRefresh s(small_cfg());
  testutil::expect_translation_bijective(s);
}

TEST(Sr2, IaStaysInsideItsSubRegion) {
  // The inner level never moves data across sub-region boundaries: the
  // physical address must always share the sub-region of the IA.
  const auto cfg = small_cfg();
  TwoLevelSecurityRefresh s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  for (int i = 0; i < 2000; ++i) {
    s.write(La{static_cast<u64>(i) % cfg.lines}, pcm::LineData::all_zero(), bank);
  }
  const u64 m = cfg.region_lines();
  for (u64 la = 0; la < cfg.lines; ++la) {
    EXPECT_EQ(s.to_ia(la) / m, s.translate(La{la}).value() / m) << "la " << la;
  }
}

TEST(Sr2, IntegrityChurn) {
  const auto cfg = small_cfg();
  TwoLevelSecurityRefresh s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 30'000, 3'000);
}

TEST(Sr2, BulkMatchesPerWriteExactly) {
  const auto cfg = small_cfg();
  TwoLevelSecurityRefresh a(cfg), b(cfg);
  pcm::PcmBank bank_a(pcm_for(cfg), a.physical_lines());
  pcm::PcmBank bank_b(pcm_for(cfg), b.physical_lines());
  Ns t_loop{0};
  for (int i = 0; i < 8000; ++i) {
    t_loop += a.write(La{42}, pcm::LineData::all_one(), bank_a).total;
  }
  const auto bulk = b.write_repeated(La{42}, pcm::LineData::all_one(), 8000, bank_b);
  EXPECT_EQ(bulk.total, t_loop);
  for (u64 la = 0; la < cfg.lines; ++la) {
    EXPECT_EQ(a.translate(La{la}), b.translate(La{la})) << la;
  }
  for (std::size_t i = 0; i < bank_a.wear_counts().size(); ++i) {
    EXPECT_EQ(bank_a.wear_counts()[i], bank_b.wear_counts()[i]) << "pa " << i;
  }
}

TEST(Sr2, BothLevelsEventuallyRemapEverything) {
  const auto cfg = small_cfg();
  TwoLevelSecurityRefresh s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  std::vector<u64> initial(cfg.lines);
  for (u64 la = 0; la < cfg.lines; ++la) initial[la] = s.translate(La{la}).value();
  // Spread writes so both inner and outer rounds complete several times.
  for (u64 i = 0; i < 200'000; ++i) {
    s.write(La{i % cfg.lines}, pcm::LineData::all_zero(), bank);
  }
  u64 moved = 0;
  for (u64 la = 0; la < cfg.lines; ++la) {
    if (s.translate(La{la}).value() != initial[la]) ++moved;
  }
  EXPECT_GT(moved, cfg.lines / 2);  // almost surely nearly all moved
}

TEST(Sr2, ConfigValidation) {
  auto cfg = small_cfg();
  cfg.sub_regions = 256;  // == lines
  EXPECT_THROW(TwoLevelSecurityRefresh{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.sub_regions = 3;
  EXPECT_THROW(TwoLevelSecurityRefresh{cfg}, CheckFailure);
  // Zero sub-regions must be rejected before lines / sub_regions is computed.
  cfg.sub_regions = 0;
  EXPECT_THROW(TwoLevelSecurityRefresh{cfg}, CheckFailure);
}

class Sr2Shapes : public ::testing::TestWithParam<std::tuple<u64, u64, u64>> {};

TEST_P(Sr2Shapes, IntegrityAcrossShapes) {
  TwoLevelSrConfig cfg;
  cfg.lines = 128;
  cfg.sub_regions = std::get<0>(GetParam());
  cfg.inner_interval = std::get<1>(GetParam());
  cfg.outer_interval = std::get<2>(GetParam());
  cfg.seed = 17;
  TwoLevelSecurityRefresh s(cfg);
  pcm::PcmBank bank(pcm::PcmConfig::scaled(128, u64{1} << 40), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 10'000);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Sr2Shapes,
                         ::testing::Values(std::make_tuple(2u, 2u, 4u),
                                           std::make_tuple(4u, 4u, 4u),
                                           std::make_tuple(16u, 8u, 2u),
                                           std::make_tuple(32u, 1u, 1u)));

}  // namespace
}  // namespace srbsg::wl
