#include "mapping/quality.hpp"

#include <gtest/gtest.h>

#include "mapping/binary_matrix.hpp"
#include "mapping/feistel.hpp"

namespace srbsg::mapping {
namespace {

TEST(Quality, FeistelAvalancheImprovesWithStages) {
  Rng seeder(20);
  const auto k1 = FeistelNetwork::random_keys(16, 1, seeder);
  const auto k7 = FeistelNetwork::random_keys(16, 7, seeder);
  FeistelNetwork one(16, k1), seven(16, k7);
  Rng r1(21), r7(21);
  const auto q1 = measure_quality(one, 4000, 16, r1);
  const auto q7 = measure_quality(seven, 4000, 16, r7);
  // More stages diffuse better, but the paper's cubing round is a
  // T-function (bit i of x^3 mod 2^k depends only on bits <= i), so the
  // avalanche saturates well below the ideal 0.5 — this measurable
  // weakness is exactly why Fig. 14 tops out at ~67% of the ideal
  // lifetime instead of ~100%.
  EXPECT_LT(q1.avalanche, q7.avalanche);
  EXPECT_GT(q7.avalanche, 0.2);
  EXPECT_LT(q7.avalanche, 0.45);
}

TEST(Quality, BinaryMatrixAvalancheIsNearIdeal) {
  // Contrast: a random GF(2) matrix flips each output bit with
  // probability 1/2 per input-bit flip.
  Rng seeder(27);
  BinaryMatrixMapper m(16, seeder);
  Rng rng(28);
  const auto q = measure_quality(m, 4000, 16, rng);
  EXPECT_NEAR(q.avalanche, 0.5, 0.05);
}

TEST(Quality, FeistelScattersSequentialInput) {
  Rng seeder(23);
  const auto keys = FeistelNetwork::random_keys(14, 3, seeder);
  FeistelNetwork net(14, keys);
  Rng rng(24);
  const auto q = measure_quality(net, 1u << 14, 64, rng);
  // Chi-square should be in the vicinity of the bucket count for a
  // well-scrambled mapping (allow a generous band).
  EXPECT_LT(q.sequential_chi2, 64.0 * 4.0);
}

TEST(Quality, FixedPointRateIsTiny) {
  Rng seeder(25);
  const auto keys = FeistelNetwork::random_keys(16, 7, seeder);
  FeistelNetwork net(16, keys);
  Rng rng(26);
  const auto q = measure_quality(net, 8000, 16, rng);
  EXPECT_LT(q.fixed_point_rate, 0.01);
}

TEST(VerifyBijection, DetectsNonBijection) {
  // A mapper that collapses everything to zero must be rejected.
  class Broken final : public AddressMapper {
   public:
    [[nodiscard]] u32 width_bits() const override { return 4; }
    [[nodiscard]] u64 map(u64) const override { return 0; }
    [[nodiscard]] u64 unmap(u64) const override { return 0; }
  } broken;
  EXPECT_FALSE(verify_bijection(broken));
}

}  // namespace
}  // namespace srbsg::mapping
