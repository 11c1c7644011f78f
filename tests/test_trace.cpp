#include "trace/generators.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>

#include "common/check.hpp"

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
