#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace srbsg::trace {
namespace {

GeneratorOptions small_opt() {
  GeneratorOptions o;
  o.lines = 1024;
  o.accesses = 5000;
  o.write_ratio = 0.4;
  o.mean_instruction_gap = 20;
  o.seed = 3;
  return o;
}

TEST(Generators, UniformCoversSpace) {
  const auto t = make_uniform(small_opt());
  EXPECT_EQ(t.size(), 5000u);
  const auto s = t.stats();
  EXPECT_GT(s.distinct_lines, 900u);
  EXPECT_NEAR(static_cast<double>(s.writes) / static_cast<double>(s.records), 0.4, 0.05);
}

TEST(Generators, SequentialWraps) {
  auto opt = small_opt();
  opt.accesses = 2048;
  const auto t = make_sequential(opt);
  EXPECT_EQ(t[0].addr, 0u);
  EXPECT_EQ(t[1024].addr, 0u);
  EXPECT_EQ(t[1025].addr, 1u);
}

TEST(Generators, ZipfIsSkewed) {
  const auto t = make_zipf(small_opt(), 1.2);
  std::unordered_map<u64, u64> counts;
  for (const auto& r : t) ++counts[r.addr];
  u64 max_count = 0;
  for (const auto& [addr, c] : counts) max_count = std::max(max_count, c);
  // The hottest line should dominate a uniform share.
  EXPECT_GT(max_count, t.size() / 100);
}

TEST(Generators, HotspotConcentratesTraffic) {
  const auto t = make_hotspot(small_opt(), 0.1, 0.9);
  u64 hot = 0;
  for (const auto& r : t) {
    if (r.addr < 102) ++hot;  // 10% of 1024
  }
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(t.size()), 0.9, 0.05);
}

/// True when `fn` throws a CheckFailure whose message names both the
/// generator and the option it rejects.
template <class Fn>
bool rejects(Fn&& fn, std::string_view gen, std::string_view option) {
  try {
    fn();
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    return msg.find(gen) != std::string::npos && msg.find(option) != std::string::npos;
  }
  return false;
}

TEST(Generators, RejectsEmptyAddressSpace) {
  auto o = small_opt();
  o.lines = 0;
  EXPECT_TRUE(rejects([&] { (void)make_uniform(o); }, "make_uniform", "lines"));
  EXPECT_TRUE(rejects([&] { (void)make_sequential(o); }, "make_sequential", "lines"));
  EXPECT_TRUE(rejects([&] { (void)make_zipf(o, 1.1); }, "make_zipf", "lines"));
  EXPECT_TRUE(rejects([&] { (void)make_hotspot(o, 0.1, 0.9); }, "make_hotspot", "lines"));
}

TEST(Generators, HotspotNeedsTwoLines) {
  auto o = small_opt();
  o.lines = 1;
  EXPECT_TRUE(rejects([&] { (void)make_hotspot(o, 0.1, 0.9); }, "make_hotspot", "lines"));
  // One hot and one cold line is the smallest space the pattern fits.
  o.lines = 2;
  const auto t = make_hotspot(o, 0.1, 0.9);
  std::vector<u64> hits(2, 0);
  for (const auto& r : t) {
    ASSERT_LT(r.addr, 2u);
    ++hits[r.addr];
  }
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], 0u);
}

TEST(Generators, RejectsGapMeanThatOverflows) {
  // Gaps are capped at 32x the mean and stored in 32 bits.
  constexpr u32 kMaxMean = ~u32{0} / 32;
  auto o = small_opt();
  o.mean_instruction_gap = ~u32{0};
  const char* const kOption = "mean_instruction_gap";
  EXPECT_TRUE(rejects([&] { (void)make_uniform(o); }, "make_uniform", kOption));
  EXPECT_TRUE(rejects([&] { (void)make_sequential(o); }, "make_sequential", kOption));
  EXPECT_TRUE(rejects([&] { (void)make_zipf(o, 1.1); }, "make_zipf", kOption));
  EXPECT_TRUE(rejects([&] { (void)make_hotspot(o, 0.1, 0.9); }, "make_hotspot", kOption));
  o.mean_instruction_gap = kMaxMean + 1;
  EXPECT_TRUE(rejects([&] { (void)make_uniform(o); }, "make_uniform", kOption));
  o.mean_instruction_gap = kMaxMean;
  const auto t = make_uniform(o);
  u64 sum = 0;
  for (const auto& r : t) {
    EXPECT_LE(r.instruction_gap, u64{32} * kMaxMean);
    sum += r.instruction_gap;
  }
  EXPECT_NEAR(static_cast<double>(sum) / static_cast<double>(t.size()), kMaxMean,
              0.05 * kMaxMean);
}

TEST(Generators, ZipfScatterCoversNonPowerOfTwoWidths) {
  // At alpha 0.5 and 2^18 records every rank is drawn, so the scatter
  // must land the ranks on every line of the space.
  for (const u64 lines : {u64{1000}, u64{3000}, u64{6144}}) {
    for (const u64 seed : {u64{1}, u64{2}, u64{3}}) {
      GeneratorOptions o;
      o.lines = lines;
      o.accesses = u64{1} << 18;
      o.seed = seed;
      const auto t = make_zipf(o, 0.5);
      std::vector<bool> seen(lines, false);
      u64 distinct = 0;
      for (const auto& r : t) {
        ASSERT_LT(r.addr, lines);
        if (!seen[r.addr]) {
          seen[r.addr] = true;
          ++distinct;
        }
      }
      EXPECT_EQ(distinct, lines) << "lines " << lines << ", seed " << seed;
    }
  }
}

/// FNV-1a over every record's (gap, is_write, data, addr), little-endian,
/// continuing from `h`.
u64 fnv1a(u64 h, const Trace& t) {
  const auto mix = [&h](u64 v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : t) {
    mix(r.instruction_gap, 4);
    mix(r.is_write ? 1 : 0, 1);
    mix(static_cast<u64>(r.data), 1);
    mix(r.addr, 8);
  }
  return h;
}

Trace generate(std::string_view gen, const GeneratorOptions& o) {
  if (gen == "uniform") return make_uniform(o);
  if (gen == "sequential") return make_sequential(o);
  if (gen == "zipf") return make_zipf(o, 1.1);
  return make_hotspot(o, 0.02, 0.9);
}

TEST(Generators, StreamsMatchTheRecordedDigests) {
  // Recorded from the generators' first implementation (out-of-line
  // draws, a binary-search Zipf sampler): any change to a draw, its
  // order or its arithmetic changes a digest. 2^17 lines is past the
  // Zipf rank cap (2^16).
  struct Pin {
    const char* gen;
    u64 lines;
    u64 digest;
  };
  const Pin pins[] = {
      {"uniform", u64{1} << 11, 0x281390d52a9a0744ULL},
      {"uniform", u64{1} << 17, 0x70adadc59130f990ULL},
      {"sequential", u64{1} << 11, 0x9e6337a3f7adbbe8ULL},
      {"sequential", u64{1} << 17, 0x8481dfb6c5ca2468ULL},
      {"zipf", u64{1} << 11, 0xa75747760152a130ULL},
      {"zipf", u64{1} << 17, 0x94d96aeb8b85f834ULL},
      {"hotspot", u64{1} << 11, 0x39f2d36ddec95ee0ULL},
      {"hotspot", u64{1} << 17, 0xe6177f69e39d9304ULL},
  };
  for (const Pin& p : pins) {
    u64 h = 0xcbf29ce484222325ULL;
    for (const u64 seed : {u64{1}, u64{2}, u64{77}}) {
      for (const double ratio : {0.3, 1.0}) {
        for (const u32 gap : {u32{0}, u32{50}}) {
          GeneratorOptions o;
          o.lines = p.lines;
          o.accesses = 4096;
          o.write_ratio = ratio;
          o.mean_instruction_gap = gap;
          o.seed = seed;
          h = fnv1a(h, generate(p.gen, o));
        }
      }
    }
    EXPECT_EQ(h, p.digest) << p.gen << " at " << p.lines << " lines: 0x" << std::hex << h;
  }
}

TEST(Generators, ZipfMatchesLowerBoundReference) {
  for (const double alpha : {0.5, 0.9, 1.1, 1.2}) {
    for (const u64 lines : {u64{1}, u64{2}, u64{1} << 11, u64{1} << 17}) {
      GeneratorOptions o;
      o.lines = lines;
      o.accesses = 20000;
      o.write_ratio = 0.3;
      o.mean_instruction_gap = 50;
      o.seed = 5;
      const auto t = make_zipf(o, alpha);
      ASSERT_EQ(t.size(), o.accesses);
      // The sampler as first written: a binary search of the CDF, the
      // rank scattered by an odd multiplier (bijective at these
      // power-of-two widths), then the gap and write-flag draws.
      const u64 ranks = std::min<u64>(lines, 1u << 16);
      std::vector<double> cdf(ranks);
      double sum = 0.0;
      for (u64 r = 0; r < ranks; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf[r] = sum;
      }
      for (auto& v : cdf) v /= sum;
      u64 mix_state = o.seed ^ 0x9e3779b97f4a7c15ULL;
      const u64 scatter = splitmix64(mix_state) | 1;
      Rng rng(o.seed);
      for (u64 i = 0; i < o.accesses; ++i) {
        const double u = rng.next_double();
        const auto rank = static_cast<u64>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                           cdf.begin());
        const double g = -std::log(std::max(rng.next_double(), 1e-12)) * 50.0;
        const auto gap = static_cast<u32>(std::min(g, 32.0 * 50.0));
        const bool is_write = rng.next_bool(0.3);
        ASSERT_EQ(t[i].addr, (rank * scatter) % lines)
            << "alpha " << alpha << ", lines " << lines << ", record " << i;
        ASSERT_EQ(t[i].instruction_gap, gap) << "record " << i;
        ASSERT_EQ(t[i].is_write, is_write) << "record " << i;
      }
    }
  }
}

TEST(TraceIo, TextRoundTrip) {
  const auto t = make_uniform(small_opt());
  std::stringstream ss;
  t.save_text(ss);
  const auto t2 = Trace::load_text(ss, "reloaded");
  ASSERT_EQ(t2.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].addr, t2[i].addr);
    EXPECT_EQ(t[i].is_write, t2[i].is_write);
    EXPECT_EQ(t[i].instruction_gap, t2[i].instruction_gap);
    EXPECT_EQ(t[i].data, t2[i].data);
  }
}

/// Loads `text` and returns the CheckFailure message ("" when it loads).
std::string load_error(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)Trace::load_text(is);
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, MalformedMiddleRecordNamesItsLine) {
  EXPECT_NE(load_error("1 W 10 M\nxx W 11 0\n3 W 12 1\n").find("trace line 2"),
            std::string::npos);
}

TEST(TraceIo, TruncatedLastRecordRejected) {
  EXPECT_NE(load_error("1 W 10 M\n2 W\n").find("trace line 2"), std::string::npos);
}

TEST(TraceIo, SignedGapRejected) {
  EXPECT_NE(load_error("-5 W 10 M\n").find("trace line 1"), std::string::npos);
  EXPECT_NE(load_error("+5 W 10 M\n"), "");
}

TEST(TraceIo, GapBoundIs32Bits) {
  std::istringstream is("4294967295 R ff 0\n");
  const auto t = Trace::load_text(is);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].instruction_gap, 4294967295u);
  EXPECT_EQ(t[0].addr, 0xffu);
  EXPECT_NE(load_error("4294967296 W 10 M\n").find("32 bits"), std::string::npos);
}

TEST(TraceIo, NonHexAddressRejected) {
  EXPECT_NE(load_error("1 W zz M\n").find("bad hex address"), std::string::npos);
  EXPECT_NE(load_error("1 W -10 M\n"), "");
}

TEST(TraceIo, BadFlagsAndExtraFieldsRejected) {
  EXPECT_NE(load_error("1 X 10 M\n"), "");
  EXPECT_NE(load_error("1 W 10 Q\n"), "");
  EXPECT_NE(load_error("1 W 10 M 7\n"), "");
}

TEST(TraceStats, MpkiComputed) {
  GeneratorOptions o = small_opt();
  o.mean_instruction_gap = 100;
  const auto t = make_uniform(o);
  const auto s = t.stats();
  EXPECT_GT(s.instructions, 0u);
  EXPECT_NEAR(s.write_mpki + s.read_mpki,
              1000.0 * static_cast<double>(s.records) / static_cast<double>(s.instructions),
              1e-6);
}

}  // namespace
}  // namespace srbsg::trace
