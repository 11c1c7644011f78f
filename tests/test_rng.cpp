#include "common/rng.hpp"

#include "common/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_set>
#include <vector>

namespace srbsg {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (u64 bound : {u64{1}, u64{2}, u64{7}, u64{1000}, u64{1} << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr u64 kBuckets = 16;
  constexpr int kSamples = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.next_below(kBuckets)];
  const double expect = static_cast<double>(kSamples) / kBuckets;
  for (u64 b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expect, expect * 0.1) << "bucket " << b;
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.next_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(Rng, KnownAnswerStream) {
  // The first 16 outputs of each hot-path draw from a fresh generator,
  // recorded from the out-of-line implementation: moving or rewriting
  // a draw must keep every value.
  struct Answers {
    u64 seed;
    std::array<u64, 16> next;
    std::array<double, 16> next_double;
    std::array<u64, 16> next_below_2048;
    u16 next_bool_03;  ///< bit i: the i-th next_bool(0.3)
  };
  const Answers answers[] = {
      {1,
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
        0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL, 0xddfdb48ab9ed4a21ULL,
        0x8d3cdb8c3aa5b1d0ULL, 0xeebd114bd87226d1ULL, 0xf50c3ff1e7d7e8a6ULL,
        0xeeca3115e23bc8f1ULL, 0xab49ed3db4c66435ULL, 0x99953c6c57808dd7ULL,
        0xe3fa941b05219325ULL},
       {0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1, 0x1.90b871ef099a8p-2,
        0x1.64f491c534466p-1, 0x1.260918937fedp-3, 0x1.23004ef8df51p-4, 0x1.865537311ec7ap-2,
        0x1.bbfb691573da9p-1, 0x1.1a79b718754b6p-1, 0x1.dd7a2297b0e44p-1, 0x1.ea187fe3cfafdp-1,
        0x1.dd94622bc4779p-1, 0x1.5693da7b698ccp-1, 0x1.332a78d8af011p-1, 0x1.c7f528360a432p-1},
       {1439, 1065, 1175, 801, 1427, 294, 145, 780, 1775, 1129, 1909, 1960, 1910, 1370, 1228,
        1823},
       0x0060},
      {0x5eed5eed5eed5eedULL,
       {0x5530c1deb89725efULL, 0xa9faa1c0e3770917ULL, 0xeba5395d5d10a6f0ULL,
        0x33a8dbb7a385d6cbULL, 0xef3b4c17646a9954ULL, 0x338137c3981f661dULL,
        0xbe5eb01e9c6a22b7ULL, 0xf4ce70d2a8000053ULL, 0x9eca2f6e4ece1929ULL,
        0xd618393742d16f04ULL, 0xb4e682f9f27624b0ULL, 0x88a43006ad5005f5ULL,
        0x3d21465b861ccb22ULL, 0x7755ac680fe74015ULL, 0x4e14f2ffc72c76fbULL,
        0x24823e1a70b0b517ULL},
       {0x1.54c3077ae25c8p-2, 0x1.53f54381c6ee1p-1, 0x1.d74a72baba214p-1, 0x1.9d46ddbd1c2e8p-3,
        0x1.de76982ec8d53p-1, 0x1.9c09be1cc0fbp-3, 0x1.7cbd603d38d44p-1, 0x1.e99ce1a55p-1,
        0x1.3d945edc9d9c3p-1, 0x1.ac30726e85a2dp-1, 0x1.69cd05f3e4ec4p-1, 0x1.1148600d5aap-1,
        0x1.e90a32dc30e64p-3, 0x1.dd56b1a03f9dp-2, 0x1.3853cbff1cb1cp-2, 0x1.2411f0d385858p-3},
       {681, 1359, 1885, 413, 1913, 412, 1522, 1958, 1270, 1712, 1447, 1093, 489, 954, 624,
        292},
       0x9028},
  };
  for (const Answers& a : answers) {
    Rng raw(a.seed), dbl(a.seed), below(a.seed), flag(a.seed);
    u16 bits = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << a.seed << ", draw " << i);
      EXPECT_EQ(raw.next(), a.next[i]);
      EXPECT_EQ(dbl.next_double(), a.next_double[i]);
      EXPECT_EQ(below.next_below(2048), a.next_below_2048[i]);
      if (flag.next_bool(0.3)) bits = static_cast<u16>(bits | (1u << i));
    }
    EXPECT_EQ(bits, a.next_bool_03) << "seed " << a.seed;
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<u64> v(100);
  for (u64 i = 0; i < 100; ++i) v[i] = i;
  auto w = v;
  rng.shuffle(std::span<u64>(w));
  EXPECT_NE(v, w);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SampleDistinct, ProducesDistinctValuesInRange) {
  Rng rng(23);
  const auto vals = sample_distinct(rng, 1000, 200);
  EXPECT_EQ(vals.size(), 200u);
  std::unordered_set<u64> set(vals.begin(), vals.end());
  EXPECT_EQ(set.size(), 200u);
  for (u64 v : vals) EXPECT_LT(v, 1000u);
}

TEST(SampleDistinct, DenseCaseCoversPopulation) {
  Rng rng(29);
  const auto vals = sample_distinct(rng, 16, 16);
  std::unordered_set<u64> set(vals.begin(), vals.end());
  EXPECT_EQ(set.size(), 16u);
}

TEST(SampleDistinct, RejectsOversizedRequest) {
  Rng rng(31);
  EXPECT_THROW((void)sample_distinct(rng, 4, 5), CheckFailure);
}

}  // namespace
}  // namespace srbsg
