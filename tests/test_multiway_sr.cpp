#include "wl/multiway_sr.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "wl_test_util.hpp"

namespace srbsg::wl {
namespace {

MultiWaySrConfig small_cfg() {
  MultiWaySrConfig cfg;
  cfg.lines = 256;
  cfg.regions = 8;
  cfg.interval = 4;
  cfg.seed = 21;
  return cfg;
}

TEST(MultiWaySr, StaticPartitionByHighBits) {
  MultiWaySecurityRefresh s(small_cfg());
  // LA's sub-region is fixed by its high bits — the §III.E weakness.
  for (u64 la = 0; la < 256; ++la) {
    EXPECT_EQ(s.translate(La{la}).value() / 32, la / 32);
  }
}

TEST(MultiWaySr, InitiallyBijective) {
  MultiWaySecurityRefresh s(small_cfg());
  testutil::expect_translation_bijective(s);
}

TEST(MultiWaySr, IntegrityChurn) {
  MultiWaySecurityRefresh s(small_cfg());
  pcm::PcmBank bank(pcm::PcmConfig::scaled(256, u64{1} << 40), s.physical_lines());
  testutil::run_integrity_churn(s, bank, 20'000, 2'500);
}

TEST(MultiWaySr, BulkMatchesPerWriteExactly) {
  MultiWaySecurityRefresh a(small_cfg()), b(small_cfg());
  pcm::PcmBank bank_a(pcm::PcmConfig::scaled(256, u64{1} << 40), a.physical_lines());
  pcm::PcmBank bank_b(pcm::PcmConfig::scaled(256, u64{1} << 40), b.physical_lines());
  Ns t_loop{0};
  for (int i = 0; i < 4000; ++i) {
    t_loop += a.write(La{100}, pcm::LineData::mixed(), bank_a).total;
  }
  const auto bulk = b.write_repeated(La{100}, pcm::LineData::mixed(), 4000, bank_b);
  EXPECT_EQ(bulk.total, t_loop);
  for (u64 la = 0; la < 256; ++la) {
    EXPECT_EQ(a.translate(La{la}), b.translate(La{la}));
  }
}

TEST(MultiWaySr, RegionsIndependent) {
  MultiWaySecurityRefresh s(small_cfg());
  pcm::PcmBank bank(pcm::PcmConfig::scaled(256, u64{1} << 40), s.physical_lines());
  std::vector<u64> other_before;
  for (u64 la = 32; la < 256; ++la) other_before.push_back(s.translate(La{la}).value());
  // Hammer region 0 only.
  s.write_repeated(La{0}, pcm::LineData::all_zero(), 50'000, bank);
  std::size_t idx = 0;
  for (u64 la = 32; la < 256; ++la) {
    EXPECT_EQ(s.translate(La{la}).value(), other_before[idx++]) << "la " << la;
  }
}

TEST(MultiWaySr, ConfigValidation) {
  auto cfg = small_cfg();
  cfg.regions = 5;
  EXPECT_THROW(MultiWaySecurityRefresh{cfg}, CheckFailure);
  // Zero regions must be rejected before lines / regions is computed.
  cfg.regions = 0;
  EXPECT_THROW(MultiWaySecurityRefresh{cfg}, CheckFailure);
}

}  // namespace
}  // namespace srbsg::wl
