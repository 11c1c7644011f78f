// Equivalence tests for the batched access-stream API (write_batch /
// write_cycle): every scheme must be *bit-identical* to the per-write
// reference loop
//
//   for (la : list) { if (bank.has_failure()) break; write(la, data, bank); }
//
// in wear counts, movement counts, total simulated time, translation
// state and failure bookkeeping — including a bank failure in the middle
// of a batch (the failing write completes, nothing after it runs). The
// engine under test is the windowed tier; test_epoch.cpp drives all
// three tiers side by side.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "controller/memory_controller.hpp"
#include "pcm/bank.hpp"
#include "wl/factory.hpp"

namespace srbsg::wl {
namespace {

constexpr SchemeKind kAllKinds[] = {
    SchemeKind::kNone,       SchemeKind::kStartGap, SchemeKind::kRbsg,
    SchemeKind::kSr1,        SchemeKind::kSr2,      SchemeKind::kMultiWaySr,
    SchemeKind::kSecurityRbsg, SchemeKind::kTable,
};

SchemeSpec spec_for(SchemeKind kind, u64 lines) {
  SchemeSpec s;
  s.kind = kind;
  s.lines = lines;
  s.regions = 8;
  s.inner_interval = 16;
  s.outer_interval = 32;
  s.stages = 3;
  s.seed = 42;
  return s;
}

/// The scheme under test, pinned to the windowed tier.
std::unique_ptr<WearLeveler> make_windowed(const SchemeSpec& spec) {
  auto s = make_scheme(spec);
  s->set_engine_tier(EngineTier::kWindowed);
  return s;
}

/// The contract's reference stream: per-write loop with early stop.
BulkOutcome reference_batch(WearLeveler& s, std::span<const La> las,
                            const pcm::LineData& data, pcm::PcmBank& bank) {
  BulkOutcome out;
  for (const La la : las) {
    if (bank.has_failure()) break;
    const WriteOutcome w = s.write(la, data, bank);
    out.total += w.total;
    ++out.writes_applied;
    out.movements += w.movements;
  }
  return out;
}

BulkOutcome reference_cycle(WearLeveler& s, std::span<const La> pattern, u64 count,
                            const pcm::LineData& data, pcm::PcmBank& bank) {
  BulkOutcome out;
  for (u64 i = 0; i < count; ++i) {
    if (bank.has_failure()) break;
    const WriteOutcome w = s.write(pattern[i % pattern.size()], data, bank);
    out.total += w.total;
    ++out.writes_applied;
    out.movements += w.movements;
  }
  return out;
}

void expect_identical(const WearLeveler& ref, const pcm::PcmBank& bref,
                      const BulkOutcome& oref, const WearLeveler& fast,
                      const pcm::PcmBank& bfast, const BulkOutcome& ofast) {
  EXPECT_EQ(oref.writes_applied, ofast.writes_applied);
  EXPECT_EQ(oref.movements, ofast.movements);
  EXPECT_EQ(oref.total, ofast.total);
  EXPECT_EQ(bref.total_writes(), bfast.total_writes());
  ASSERT_EQ(bref.has_failure(), bfast.has_failure());
  if (bref.has_failure()) {
    EXPECT_EQ(bref.first_failed_line(), bfast.first_failed_line());
    EXPECT_EQ(bref.failure_overshoot(), bfast.failure_overshoot());
  }
  const auto wref = bref.wear_counts();
  const auto wfast = bfast.wear_counts();
  ASSERT_EQ(wref.size(), wfast.size());
  for (u64 pa = 0; pa < wref.size(); ++pa) {
    ASSERT_EQ(wref[pa], wfast[pa]) << "wear diverged at pa=" << pa;
  }
  for (u64 la = 0; la < ref.logical_lines(); ++la) {
    ASSERT_EQ(ref.translate(La{la}), fast.translate(La{la}))
        << "translation diverged at la=" << la;
  }
}

class BatchEquivalence : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(BatchEquivalence, CycleSingleAddressHammer) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0xAA);
  const std::vector<La> pattern = {La{5}};
  const u64 count = 10'000;
  const auto oref = reference_cycle(*ref, pattern, count, data, bref);
  const auto ofast = fast->write_cycle(pattern, data, count, bfast);
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

TEST_P(BatchEquivalence, CycleMultiAddressPattern) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0x51);
  // Spread across regions; includes a duplicate inside the period.
  const std::vector<La> pattern = {La{0}, La{17}, La{63}, La{200}, La{511}, La{17}};
  const u64 count = 25'000;
  const auto oref = reference_cycle(*ref, pattern, count, data, bref);
  const auto ofast = fast->write_cycle(pattern, data, count, bfast);
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

TEST_P(BatchEquivalence, CycleStopsExactlyAtFailure) {
  const u64 lines = 256;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, 2'000);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0xF0);
  const std::vector<La> pattern = {La{3}, La{7}};
  const u64 count = 50'000'000;  // far past first failure
  const auto oref = reference_cycle(*ref, pattern, count, data, bref);
  const auto ofast = fast->write_cycle(pattern, data, count, bfast);
  ASSERT_TRUE(bref.has_failure());
  EXPECT_LT(ofast.writes_applied, count);
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

TEST_P(BatchEquivalence, CycleLongPatternFallback) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0x1234);
  // Period far beyond kPatternFallbackFactor * interval: exercises the
  // generic per-write fallback, which must obey the same contract.
  std::vector<La> pattern;
  for (u64 i = 0; i < 300; ++i) pattern.push_back(La{(i * 37) % lines});
  const u64 count = 5'000;
  const auto oref = reference_cycle(*ref, pattern, count, data, bref);
  const auto ofast = fast->write_cycle(pattern, data, count, bfast);
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

std::vector<La> random_stream_with_runs(u64 lines, u64 seed, u64 target) {
  Rng rng(seed);
  std::vector<La> las;
  las.reserve(target + 256);
  while (las.size() < target) {
    const u64 la = rng.next_below(lines);
    if (rng.next_below(8) == 0) {  // occasional long hammer run
      const u64 run = 20 + rng.next_below(200);
      for (u64 k = 0; k < run; ++k) las.push_back(La{la});
    } else {
      las.push_back(La{la});
    }
  }
  return las;
}

TEST_P(BatchEquivalence, BatchMixedStreamWithRuns) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0xBEEF);
  const auto las = random_stream_with_runs(lines, 99, 40'000);
  const auto oref = reference_batch(*ref, las, data, bref);
  const auto ofast = fast->write_batch(las, data, bfast);
  EXPECT_EQ(ofast.writes_applied, las.size());
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

TEST_P(BatchEquivalence, BatchStopsExactlyAtFailure) {
  const u64 lines = 256;
  const auto spec = spec_for(GetParam(), lines);
  auto ref = make_scheme(spec);
  auto fast = make_windowed(spec);
  const auto cfg = pcm::PcmConfig::scaled(lines, 800);
  pcm::PcmBank bref(cfg, ref->physical_lines());
  pcm::PcmBank bfast(cfg, fast->physical_lines());
  const auto data = pcm::LineData::mixed(0xC0DE);
  const auto las = random_stream_with_runs(lines, 7, 400'000);
  const auto oref = reference_batch(*ref, las, data, bref);
  const auto ofast = fast->write_batch(las, data, bfast);
  ASSERT_TRUE(bref.has_failure());
  EXPECT_LT(ofast.writes_applied, las.size());
  expect_identical(*ref, bref, oref, *fast, bfast, ofast);
}

TEST_P(BatchEquivalence, RepeatedMatchesLoopAtFailure) {
  // write_repeated is write_cycle over a one-address pattern, so it must
  // stop exactly where the per-write loop does: after the write that
  // records the failure, with that write's due movement fired.
  const u64 lines = 64;
  auto spec = spec_for(GetParam(), lines);
  spec.regions = 4;
  spec.inner_interval = 8;
  spec.outer_interval = 16;
  const auto data = pcm::LineData::mixed(0x5EED);
  for (const u64 endurance : {7u, 64u, 100u, 257u, 1000u, 1024u}) {
    for (const u64 la : {0u, 13u, 63u}) {
      SCOPED_TRACE("endurance=" + std::to_string(endurance) + " la=" + std::to_string(la));
      auto ref = make_scheme(spec);
      auto fast = make_windowed(spec);
      const auto cfg = pcm::PcmConfig::scaled(lines, endurance);
      pcm::PcmBank bref(cfg, ref->physical_lines());
      pcm::PcmBank bfast(cfg, fast->physical_lines());
      const std::vector<La> pattern = {La{la}};
      const u64 count = u64{1} << 20;  // far past first failure
      const auto oref = reference_cycle(*ref, pattern, count, data, bref);
      const auto ofast = fast->write_repeated(La{la}, data, count, bfast);
      ASSERT_TRUE(bref.has_failure());
      expect_identical(*ref, bref, oref, *fast, bfast, ofast);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BatchEquivalence, ::testing::ValuesIn(kAllKinds),
                         [](const auto& param_info) {
                           std::string n{to_string(param_info.param)};
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace srbsg::wl
