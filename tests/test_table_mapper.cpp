#include "mapping/table_mapper.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "mapping/quality.hpp"

namespace srbsg::mapping {
namespace {

TEST(TableMapper, IsBijective) {
  Rng rng(3);
  TableMapper m(12, rng);
  EXPECT_TRUE(verify_bijection(m));
}

TEST(TableMapper, BulkInverseEqualsUnmapEverywhere) {
  std::vector<u32> inv;
  for (u32 width = 2; width <= 16; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    Rng rng(400 + width);
    const TableMapper m(width, rng);
    inv.assign(m.domain_size(), ~u32{0});
    m.unmap_all(inv);
    for (u64 y = 0; y < m.domain_size(); ++y) {
      ASSERT_EQ(u64{inv[y]}, m.unmap(y)) << "at y = " << y;
    }
  }
}

TEST(TableMapper, RoundTrips) {
  Rng rng(5);
  TableMapper m(14, rng);
  for (u64 x = 0; x < m.domain_size(); x += 11) {
    EXPECT_EQ(m.unmap(m.map(x)), x);
  }
}

TEST(TableMapper, DifferentSeedsDiffer) {
  Rng r1(7), r2(8);
  TableMapper a(10, r1), b(10, r2);
  int diff = 0;
  for (u64 x = 0; x < 1024; ++x) {
    if (a.map(x) != b.map(x)) ++diff;
  }
  EXPECT_GT(diff, 1000);
}

TEST(TableMapper, NearIdealAvalanche) {
  // A uniform random permutation has ~0.5 avalanche — the property the
  // cubing Feistel lacks (its T-function round saturates around 0.3).
  Rng seeder(9);
  TableMapper m(14, seeder);
  Rng rng(10);
  const auto q = measure_quality(m, 4000, 16, rng);
  EXPECT_NEAR(q.avalanche, 0.5, 0.05);
}

TEST(TableMapper, RejectsHugeWidth) {
  Rng rng(11);
  EXPECT_THROW(TableMapper(40, rng), CheckFailure);
}

}  // namespace
}  // namespace srbsg::mapping
