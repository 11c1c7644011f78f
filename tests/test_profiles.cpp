#include "trace/profiles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace srbsg::trace {
namespace {

TEST(Profiles, SuiteSizesMatchPaper) {
  // §V.C.4: 13 PARSEC and 27 SPEC CPU2006 benchmarks.
  EXPECT_EQ(parsec_profiles().size(), 13u);
  EXPECT_EQ(spec2006_profiles().size(), 27u);
}

TEST(Profiles, NamesAreUnique) {
  std::unordered_set<std::string> names;
  for (const auto& p : parsec_profiles()) EXPECT_TRUE(names.insert(p.name).second);
  for (const auto& p : spec2006_profiles()) EXPECT_TRUE(names.insert(p.name).second);
}

TEST(Profiles, SaneIntensities) {
  for (auto span : {parsec_profiles(), spec2006_profiles()}) {
    for (const auto& p : span) {
      EXPECT_GT(p.read_mpki, 0.0) << p.name;
      EXPECT_GT(p.write_mpki, 0.0) << p.name;
      EXPECT_LT(p.write_mpki, 10.0) << p.name;
      EXPECT_GT(p.footprint, 0.0) << p.name;
      EXPECT_LE(p.footprint, 1.0) << p.name;
    }
  }
}

TEST(Profiles, TraceRealizesIntensity) {
  const auto& p = parsec_profiles()[2];  // canneal: memory-heavy
  const auto t = make_profile_trace(p, 1u << 14, 2'000'000, 5);
  const auto s = t.stats();
  EXPECT_NEAR(s.write_mpki, p.write_mpki, p.write_mpki * 0.3);
  EXPECT_NEAR(s.read_mpki + s.write_mpki, p.read_mpki + p.write_mpki,
              (p.read_mpki + p.write_mpki) * 0.3);
}

TEST(Profiles, FootprintRespected) {
  const auto& p = spec2006_profiles()[1];  // bzip2: tiny footprint
  const u64 lines = 1u << 14;
  const auto t = make_profile_trace(p, lines, 10'000'000, 7);
  u64 max_addr = 0;
  for (const auto& r : t) max_addr = std::max(max_addr, r.addr);
  EXPECT_LT(max_addr, static_cast<u64>(0.05 * static_cast<double>(lines)));
}

TEST(Profiles, BzipIsLighterThanCanneal) {
  // Relative intensity ordering drives the paper's "bzip2/gcc show no
  // degradation" observation.
  const auto& bzip = spec2006_profiles()[1];
  const auto& canneal = parsec_profiles()[2];
  EXPECT_LT(bzip.write_mpki * 10, canneal.write_mpki);
}

TEST(Profiles, RanksLandOnDistinctLines) {
  // Each profile scatters its Zipf ranks over its footprint; distinct
  // ranks must land on distinct lines, or a profile touches fewer lines
  // (and concentrates more writes on each) than its footprint says. Draw
  // enough accesses to hit nearly every rank at least once; the distinct
  // lines touched then come within a few percent of the rank count.
  const u64 lines = u64{1} << 16;
  for (auto suite : {parsec_profiles(), spec2006_profiles()}) {
    for (const auto& p : suite) {
      const u64 footprint = std::max<u64>(
          16, static_cast<u64>(p.footprint * static_cast<double>(lines)));
      const u64 ranks = std::min<u64>(footprint, 1u << 14);
      const double mpki = p.read_mpki + p.write_mpki;
      const auto instructions =
          static_cast<u64>(static_cast<double>(24 * ranks) * 1000.0 / mpki);
      const auto t = make_profile_trace(p, lines, instructions, 1);
      std::vector<bool> touched(footprint, false);
      u64 distinct = 0;
      for (const auto& r : t) {
        ASSERT_LT(r.addr, footprint) << p.name;
        if (!touched[r.addr]) {
          touched[r.addr] = true;
          ++distinct;
        }
      }
      EXPECT_GE(distinct, ranks * 9 / 10) << p.name << ": " << ranks << " ranks";
    }
  }
}

TEST(Profiles, DeterministicForSeed) {
  const auto& p = parsec_profiles()[0];
  const auto a = make_profile_trace(p, 1024, 100'000, 9);
  const auto b = make_profile_trace(p, 1024, 100'000, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 13) {
    EXPECT_EQ(a[i].addr, b[i].addr);
  }
}

}  // namespace
}  // namespace srbsg::trace
