#include "mapping/feistel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "mapping/quality.hpp"

namespace srbsg::mapping {
namespace {

TEST(Feistel, RoundTripEvenWidth) {
  Rng rng(1);
  const auto keys = FeistelNetwork::random_keys(16, 3, rng);
  FeistelNetwork net(16, keys);
  for (u64 x = 0; x < net.domain_size(); x += 37) {
    EXPECT_EQ(net.unmap(net.map(x)), x);
  }
}

TEST(Feistel, BijectionEvenWidthExhaustive) {
  Rng rng(2);
  const auto keys = FeistelNetwork::random_keys(12, 3, rng);
  FeistelNetwork net(12, keys);
  EXPECT_TRUE(verify_bijection(net));
}

TEST(Feistel, BijectionOddWidthExhaustive) {
  // Odd widths use cycle-walking; the restriction must stay bijective.
  Rng rng(3);
  const auto keys = FeistelNetwork::random_keys(13, 4, rng);
  FeistelNetwork net(13, keys);
  EXPECT_EQ(net.domain_size(), u64{1} << 13);
  EXPECT_TRUE(verify_bijection(net));
}

TEST(Feistel, SingleStageStillBijective) {
  Rng rng(4);
  const auto keys = FeistelNetwork::random_keys(10, 1, rng);
  FeistelNetwork net(10, keys);
  EXPECT_TRUE(verify_bijection(net));
}

TEST(Feistel, DifferentKeysDifferentPermutation) {
  Rng rng(5);
  const auto k1 = FeistelNetwork::random_keys(16, 3, rng);
  const auto k2 = FeistelNetwork::random_keys(16, 3, rng);
  FeistelNetwork a(16, k1), b(16, k2);
  int diff = 0;
  for (u64 x = 0; x < 1000; ++x) {
    if (a.map(x) != b.map(x)) ++diff;
  }
  EXPECT_GT(diff, 900);
}

TEST(Feistel, DeterministicForSameKeys) {
  Rng rng(6);
  const auto keys = FeistelNetwork::random_keys(20, 7, rng);
  FeistelNetwork a(20, keys), b(20, keys);
  for (u64 x = 0; x < 500; ++x) EXPECT_EQ(a.map(x), b.map(x));
}

TEST(Feistel, RejectsBadParameters) {
  Rng rng(7);
  const auto keys = FeistelNetwork::random_keys(16, 3, rng);
  EXPECT_THROW(FeistelNetwork(1, keys), CheckFailure);
  EXPECT_THROW(FeistelNetwork(16, std::span<const u64>{}), CheckFailure);
}

TEST(Feistel, MapRejectsOutOfDomain) {
  Rng rng(8);
  const auto keys = FeistelNetwork::random_keys(8, 3, rng);
  FeistelNetwork net(8, keys);
  EXPECT_THROW((void)net.map(256), CheckFailure);
  EXPECT_THROW((void)net.unmap(1000), CheckFailure);
}

TEST(CubingRound, MatchesDirectComputation) {
  // (v ^ k)^3 mod 2^b
  const u64 v = 0x2A, k = 0x13;
  const u64 t = (v ^ k) & 0xFF;
  EXPECT_EQ(cubing_round(v, k, 8), (t * t * t) & 0xFF);
}

TEST(CubingRound, WidthMasking) {
  EXPECT_LT(cubing_round(0xFFFF, 0x1234, 11), u64{1} << 11);
}

TEST(Feistel, BulkInverseEqualsUnmapEverywhere) {
  // unmap_all() is a batched re-implementation of unmap(): it must agree
  // at every input, at even widths and at the odd widths that cycle-walk.
  // The table starts as garbage, so every entry must be written.
  std::vector<u32> inv;
  for (u32 width = 2; width <= 16; ++width) {
    for (const u32 stages : {1u, 3u, 7u, 20u}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", stages " + std::to_string(stages));
      Rng rng(300 + 32 * width + stages);
      const FeistelNetwork net(width, FeistelNetwork::random_keys(width, stages, rng));
      inv.assign(net.domain_size(), ~u32{0});
      net.unmap_all(inv);
      for (u64 y = 0; y < net.domain_size(); ++y) {
        ASSERT_EQ(u64{inv[y]}, net.unmap(y)) << "at y = " << y;
      }
    }
  }
}

TEST(Feistel, BulkInverseRejectsAWrongTableSize) {
  Rng rng(9);
  const FeistelNetwork net(9, FeistelNetwork::random_keys(9, 3, rng));
  std::vector<u32> inv(net.domain_size() - 1);
  EXPECT_THROW(net.unmap_all(inv), CheckFailure);
  inv.resize(net.domain_size() + 1);
  EXPECT_THROW(net.unmap_all(inv), CheckFailure);
}

class FeistelWidthTest : public ::testing::TestWithParam<u32> {};

TEST_P(FeistelWidthTest, BijectiveAtWidth) {
  Rng rng(100 + GetParam());
  const auto keys = FeistelNetwork::random_keys(GetParam(), 3, rng);
  FeistelNetwork net(GetParam(), keys);
  EXPECT_TRUE(verify_bijection(net)) << "width " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, FeistelWidthTest,
                         ::testing::Values(2u, 3u, 4u, 7u, 8u, 9u, 14u, 15u, 16u));

class FeistelStagesTest : public ::testing::TestWithParam<u32> {};

TEST_P(FeistelStagesTest, MoreStagesStayBijective) {
  Rng rng(200 + GetParam());
  const auto keys = FeistelNetwork::random_keys(12, GetParam(), rng);
  FeistelNetwork net(12, keys);
  EXPECT_TRUE(verify_bijection(net)) << "stages " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Stages, FeistelStagesTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 12u, 20u));

}  // namespace
}  // namespace srbsg::mapping
