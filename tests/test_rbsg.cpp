#include "wl/rbsg.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "wl_test_util.hpp"

namespace srbsg::wl {
namespace {

RbsgConfig small_cfg() {
  RbsgConfig cfg;
  cfg.lines = 256;
  cfg.regions = 4;
  cfg.interval = 8;
  cfg.seed = 5;
  return cfg;
}

pcm::PcmConfig pcm_for(const RbsgConfig& cfg) {
  return pcm::PcmConfig::scaled(cfg.lines, u64{1} << 40);
}

TEST(Rbsg, PhysicalLinesIncludeGapLines) {
  RegionStartGap s(small_cfg());
  EXPECT_EQ(s.physical_lines(), 4 * (64 + 1));
  EXPECT_EQ(s.logical_lines(), 256u);
}

TEST(Rbsg, TranslationBijectiveInitially) {
  RegionStartGap s(small_cfg());
  testutil::expect_translation_bijective(s);
}

TEST(Rbsg, RandomizerRoundTrips) {
  RegionStartGap s(small_cfg());
  for (u64 la = 0; la < 256; ++la) {
    EXPECT_EQ(s.derandomize(s.randomize(la)), la);
  }
}

TEST(Rbsg, RandomizerRejectsOutOfRangeAddress) {
  RegionStartGap s(small_cfg());
  EXPECT_THROW((void)s.randomize(small_cfg().lines), CheckFailure);
}

TEST(Rbsg, RandomizerMemoIndependentOfQueryOrder) {
  // randomize() memoizes on first use; the order in which LAs are first
  // used must not change any answer.
  for (const auto kind : {RbsgConfig::Randomizer::kFeistel, RbsgConfig::Randomizer::kMatrix}) {
    auto cfg = small_cfg();
    cfg.randomizer = kind;
    RegionStartGap up(cfg), down(cfg);
    // `up` fills its memo through translate() from LA 0, `down` through
    // randomize() from the last LA.
    std::vector<Pa> pa_up(cfg.lines);
    std::vector<u64> ia_down(cfg.lines);
    for (u64 la = 0; la < cfg.lines; ++la) pa_up[la] = up.translate(La{la});
    for (u64 la = cfg.lines; la-- > 0;) ia_down[la] = down.randomize(la);
    for (u64 la = 0; la < cfg.lines; ++la) {
      EXPECT_EQ(up.randomize(la), ia_down[la]) << la;
      EXPECT_EQ(down.translate(La{la}), pa_up[la]) << la;
    }
    EXPECT_NO_THROW(up.validate_state());
    EXPECT_NO_THROW(down.validate_state());
  }
}

TEST(Rbsg, RemapTriggersEveryInterval) {
  const auto cfg = small_cfg();
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  const u64 q = s.randomize(0) / cfg.region_lines();
  u32 movements = 0;
  for (u64 i = 0; i < cfg.interval; ++i) {
    const auto out = s.write(La{0}, pcm::LineData::all_zero(), bank);
    movements += out.movements;
  }
  EXPECT_EQ(movements, 1u);
  EXPECT_EQ(s.region_write_counter(q), 0u);
}

TEST(Rbsg, StallOnlyOnTriggeringWrite) {
  const auto cfg = small_cfg();
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  for (u64 i = 0; i < cfg.interval - 1; ++i) {
    EXPECT_EQ(s.write(La{0}, pcm::LineData::all_zero(), bank).stall, Ns{0});
  }
  const auto out = s.write(La{0}, pcm::LineData::all_zero(), bank);
  EXPECT_GT(out.stall.value(), 0u);
  EXPECT_EQ(out.total, Ns{125} + out.stall);
}

TEST(Rbsg, IntegrityChurn) {
  const auto cfg = small_cfg();
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 20'000, 2'500);
}

TEST(Rbsg, BulkMatchesPerWriteExactly) {
  const auto cfg = small_cfg();
  RegionStartGap a(cfg), b(cfg);
  pcm::PcmBank bank_a(pcm_for(cfg), a.physical_lines());
  pcm::PcmBank bank_b(pcm_for(cfg), b.physical_lines());

  Ns t_loop{0};
  for (int i = 0; i < 5000; ++i) {
    t_loop += a.write(La{3}, pcm::LineData::all_one(), bank_a).total;
  }
  const auto bulk = b.write_repeated(La{3}, pcm::LineData::all_one(), 5000, bank_b);
  EXPECT_EQ(bulk.total, t_loop);
  EXPECT_EQ(bulk.writes_applied, 5000u);
  for (u64 la = 0; la < cfg.lines; ++la) {
    EXPECT_EQ(a.translate(La{la}), b.translate(La{la})) << la;
  }
  EXPECT_EQ(bank_a.wear_counts().size(), bank_b.wear_counts().size());
  for (std::size_t i = 0; i < bank_a.wear_counts().size(); ++i) {
    EXPECT_EQ(bank_a.wear_counts()[i], bank_b.wear_counts()[i]) << "pa " << i;
  }
}

TEST(Rbsg, RegionsAreIndependent) {
  const auto cfg = small_cfg();
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  // Hammer one address; only its region's gap should move.
  const u64 q0 = s.randomize(0) / cfg.region_lines();
  const std::vector<u64> gaps_before = {s.region_gap(0), s.region_gap(1), s.region_gap(2),
                                        s.region_gap(3)};
  s.write_repeated(La{0}, pcm::LineData::all_zero(), 10 * cfg.interval, bank);
  for (u64 q = 0; q < 4; ++q) {
    if (q == q0) {
      EXPECT_NE(s.region_gap(q), gaps_before[q]);
    } else {
      EXPECT_EQ(s.region_gap(q), gaps_before[q]);
    }
  }
}

TEST(Rbsg, HammeredLineMovesOncePerRotation) {
  const auto cfg = small_cfg();
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  const Pa before = s.translate(La{9});
  const u64 m = cfg.region_lines();
  // One full rotation of region q: (M+1) movements — need the writes to
  // land in LA 9's own region, so hammer LA 9 itself.
  s.write_repeated(La{9}, pcm::LineData::all_zero(), (m + 1) * cfg.interval, bank);
  const Pa after = s.translate(La{9});
  EXPECT_NE(before, after);
}

TEST(Rbsg, MatrixRandomizerWorks) {
  auto cfg = small_cfg();
  cfg.randomizer = RbsgConfig::Randomizer::kMatrix;
  RegionStartGap s(cfg);
  pcm::PcmBank bank(pcm_for(cfg), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 5'000);
}

TEST(Rbsg, PlainStartGapFactory) {
  const auto cfg = RegionStartGap::plain_start_gap(128, 10);
  EXPECT_EQ(cfg.regions, 1u);
  EXPECT_EQ(cfg.randomizer, RbsgConfig::Randomizer::kNone);
  RegionStartGap s(cfg);
  EXPECT_EQ(s.randomize(77), 77u);  // identity randomizer
  pcm::PcmBank bank(pcm::PcmConfig::scaled(128, u64{1} << 40), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 5'000);
}

TEST(Rbsg, ConfigValidation) {
  RbsgConfig cfg = small_cfg();
  cfg.regions = 3;  // does not divide 256
  EXPECT_THROW(RegionStartGap{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.lines = 100;  // not a power of two
  EXPECT_THROW(RegionStartGap{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.interval = 0;
  EXPECT_THROW(RegionStartGap{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.regions = 0;  // rejected before the region shift is derived
  EXPECT_THROW(RegionStartGap{cfg}, CheckFailure);
  cfg = small_cfg();
  cfg.lines = u64{1} << 33;  // IAs no longer fit the randomizer memo
  EXPECT_THROW(cfg.validate(), CheckFailure);
  cfg.randomizer = RbsgConfig::Randomizer::kNone;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace srbsg::wl
