#include "attack/harness.hpp"

#include <gtest/gtest.h>

#include "attack/raa.hpp"
#include "wl/factory.hpp"
#include "wl/no_wl.hpp"

namespace srbsg::attack {
namespace {

// Minimal custom scheme exercising the WearLeveler base-class defaults
// (write_repeated through the generic write_cycle loop, and the read path).
class EchoScheme final : public wl::WearLeveler {
 public:
  explicit EchoScheme(u64 lines) : lines_(lines) {}
  [[nodiscard]] std::string_view name() const override { return "echo"; }
  [[nodiscard]] u64 logical_lines() const override { return lines_; }
  [[nodiscard]] u64 physical_lines() const override { return lines_; }
  [[nodiscard]] Pa translate(La la) const override { return Pa{la.value() ^ 1}; }
  wl::WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) override {
    const Ns lat = bank.write(translate(la), data);
    return wl::WriteOutcome{lat, Ns{0}, 0};
  }

 private:
  u64 lines_;
};

TEST(WearLevelerBase, DefaultBulkMatchesLoop) {
  EchoScheme a(16), b(16);
  pcm::PcmBank bank_a(pcm::PcmConfig::scaled(16, 1u << 20), 16);
  pcm::PcmBank bank_b(pcm::PcmConfig::scaled(16, 1u << 20), 16);
  Ns loop_total{0};
  for (int i = 0; i < 500; ++i) {
    loop_total += a.write(La{3}, pcm::LineData::all_one(), bank_a).total;
  }
  const auto bulk = b.write_repeated(La{3}, pcm::LineData::all_one(), 500, bank_b);
  EXPECT_EQ(bulk.total, loop_total);
  EXPECT_EQ(bulk.writes_applied, 500u);
  EXPECT_EQ(bank_a.wear(Pa{2}), bank_b.wear(Pa{2}));
}

TEST(WearLevelerBase, DefaultBulkStopsAtFailure) {
  EchoScheme s(16);
  pcm::PcmBank bank(pcm::PcmConfig::scaled(16, 100), 16);
  const auto bulk = s.write_repeated(La{0}, pcm::LineData::all_zero(), 10'000, bank);
  EXPECT_EQ(bulk.writes_applied, 100u);  // exactly at the endurance
  EXPECT_TRUE(bank.has_failure());
}

TEST(WearLevelerBase, ReadGoesThroughTranslation) {
  EchoScheme s(16);
  pcm::PcmBank bank(pcm::PcmConfig::scaled(16, 1u << 20), 16);
  s.write(La{4}, pcm::LineData::mixed(99), bank);
  EXPECT_EQ(s.read(La{4}, bank).first.token, 99u);
  EXPECT_EQ(bank.data(Pa{5}).token, 99u);  // 4 ^ 1
}

TEST(Harness, ResultFieldsPopulated) {
  const auto cfg = pcm::PcmConfig::scaled(64, 200);
  ctl::MemoryController mc(cfg, std::make_unique<wl::NoWearLeveling>(64));
  RepeatedAddressAttack atk(La{5});
  const auto res = run_attack(mc, atk, u64{1} << 30);
  EXPECT_TRUE(res.succeeded);
  EXPECT_EQ(res.attacker, "RAA");
  EXPECT_EQ(res.scheme, "none");
  EXPECT_EQ(res.writes, 200u);  // overshoot rewound
  EXPECT_EQ(res.lifetime, res.elapsed);
  EXPECT_EQ(res.lifetime, Ns{200 * 1000});
}

TEST(Harness, FailedRunReportsElapsedOnly) {
  const auto cfg = pcm::PcmConfig::scaled(64, u64{1} << 40);
  ctl::MemoryController mc(cfg, std::make_unique<wl::NoWearLeveling>(64));
  RepeatedAddressAttack atk(La{5});
  const auto res = run_attack(mc, atk, 1000);
  EXPECT_FALSE(res.succeeded);
  EXPECT_EQ(res.lifetime, Ns{0});
  EXPECT_GT(res.elapsed.value(), 0u);
}

}  // namespace
}  // namespace srbsg::attack
