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

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "controller/memory_controller.hpp"
#include "pcm/bank.hpp"
#include "wl/batch.hpp"
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

/// `filler` addresses that never repeat back to back, with a run of `len`
/// copies of one LA spliced in at offset `at`; no neighbour of the run
/// repeats its LA, so the run is exactly `len` long.
std::vector<La> stream_with_run(u64 lines, u64 filler, u64 len, u64 at) {
  const La run_la{lines / 2 + 1};
  std::vector<La> las;
  for (u64 i = 0; i < filler; ++i) {
    if (i == at) las.insert(las.end(), len, run_la);
    las.push_back(La{(i * 37 + 5) % (lines / 2)});
  }
  if (at >= filler) las.insert(las.end(), len, run_la);
  return las;
}

TEST_P(BatchEquivalence, BatchRunsAroundTheThreshold) {
  // Runs just below, at and just above kRunThreshold (and the trivial
  // ones) at a batch's start, middle and end: a run is measured only
  // where the next address repeats, and only long ones go to write_cycle.
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto data = pcm::LineData::mixed(0x2B);
  for (const u64 len : {1u, 2u, 15u, 16u, 17u}) {
    for (const u64 at : {0u, 20u, 40u}) {
      SCOPED_TRACE("run=" + std::to_string(len) + " at=" + std::to_string(at));
      auto ref = make_scheme(spec);
      auto fast = make_windowed(spec);
      const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
      pcm::PcmBank bref(cfg, ref->physical_lines());
      pcm::PcmBank bfast(cfg, fast->physical_lines());
      const auto las = stream_with_run(lines, 40, len, at);
      // Repeat the batch so its writes cross several remap triggers.
      BulkOutcome oref;
      BulkOutcome ofast;
      for (int rep = 0; rep < 50; ++rep) {
        const auto r = reference_batch(*ref, las, data, bref);
        const auto f = fast->write_batch(las, data, bfast);
        oref.total += r.total;
        oref.writes_applied += r.writes_applied;
        oref.movements += r.movements;
        ofast.total += f.total;
        ofast.writes_applied += f.writes_applied;
        ofast.movements += f.movements;
      }
      EXPECT_EQ(ofast.writes_applied, 50 * las.size());
      expect_identical(*ref, bref, oref, *fast, bfast, ofast);
    }
  }
}

TEST_P(BatchEquivalence, BatchFailsInsideShortAndLongRuns) {
  // A stream of short runs (3), single writes and long runs (20). Scan the
  // endurance until the reference loop's failing write lands (a) inside a
  // short run, past its first write, and (b) on a long run's first write;
  // the engine must stop on exactly that write in both cases.
  const u64 lines = 64;
  auto spec = spec_for(GetParam(), lines);
  spec.regions = 4;
  spec.inner_interval = 8;
  spec.outer_interval = 16;
  const auto data = pcm::LineData::mixed(0xFA11);
  std::vector<La> las;
  std::vector<u64> run_pos;  // position of each write inside its run
  std::vector<u64> run_len;
  Rng rng(3);
  while (las.size() < 60'000) {
    const u64 kind = rng.next_below(3);
    const u64 len = kind == 0 ? 20 : (kind == 1 ? 3 : 1);
    u64 la = rng.next_below(lines);
    while (!las.empty() && las.back().value() == la) la = rng.next_below(lines);
    for (u64 k = 0; k < len; ++k) {
      las.push_back(La{la});
      run_pos.push_back(k);
      run_len.push_back(len);
    }
  }
  bool inside_short = false;
  bool first_of_long = false;
  for (u64 endurance = 16; endurance < 4096 && !(inside_short && first_of_long); ++endurance) {
    auto ref = make_scheme(spec);
    const auto cfg = pcm::PcmConfig::scaled(lines, endurance);
    pcm::PcmBank bref(cfg, ref->physical_lines());
    const auto oref = reference_batch(*ref, las, data, bref);
    if (!bref.has_failure()) continue;
    const u64 failing = oref.writes_applied - 1;
    const bool is_short = run_len[failing] == 3 && run_pos[failing] > 0;
    const bool is_long = run_len[failing] == 20 && run_pos[failing] == 0;
    if (!(is_short && !inside_short) && !(is_long && !first_of_long)) continue;
    SCOPED_TRACE("endurance=" + std::to_string(endurance));
    inside_short = inside_short || is_short;
    first_of_long = first_of_long || is_long;
    auto fast = make_windowed(spec);
    pcm::PcmBank bfast(cfg, fast->physical_lines());
    const auto ofast = fast->write_batch(las, data, bfast);
    expect_identical(*ref, bref, oref, *fast, bfast, ofast);
  }
  EXPECT_TRUE(inside_short) << "no endurance failed a write inside a short run";
  EXPECT_TRUE(first_of_long) << "no endurance failed a long run's first write";
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

TEST(HitSchedules, InPlaceRebuildsMatchFreshOnes) {
  // One Window rebuilt through periods 6, 1, 40, 1, 6 reuses its
  // schedules' storage; every rebuild must equal schedules built in a
  // fresh Window: offsets, periods, PAs/keys and remaining writes.
  const u64 lines = 64;
  const auto cfg = pcm::PcmConfig::scaled(lines, 1000);
  pcm::PcmBank bank(cfg, lines);
  for (u64 pa = 0; pa < lines; ++pa) {
    bank.bulk_write(Pa{pa}, pcm::LineData::all_zero(), (pa * 7) % 50);
  }
  batch::Window reused;
  u64 step = 0;
  for (const u64 period : {6u, 1u, 40u, 1u, 6u}) {
    SCOPED_TRACE("period=" + std::to_string(period) + " step=" + std::to_string(step));
    std::vector<Pa> pas(period);
    std::vector<u64> keys(period);
    for (u64 i = 0; i < period; ++i) {
      // Repeated lines and domains, offset by the step so that even the
      // lowest PA and key change between rebuilds; every fifth position
      // (and the second period-1 pattern) advances no domain.
      pas[i] = Pa{step * 3 + (i * 11) % (period / 2 + 1)};
      keys[i] = (i % 5 == 4 || (period == 1 && step == 3)) ? batch::kNoDomain
                                                           : step + (i * 5) % 7;
    }
    ++step;
    batch::Window fresh;
    for (batch::Window* w : {&reused, &fresh}) {
      w->pas = pas;
      w->keys = keys;
      batch::build_line_scheds(*w, bank);
      batch::build_domain_scheds(*w);
    }
    ASSERT_EQ(reused.lines.size(), fresh.lines.size());
    for (std::size_t g = 0; g < fresh.lines.size(); ++g) {
      const auto& a = reused.lines[g];
      const auto& b = fresh.lines[g];
      EXPECT_EQ(a.pa, b.pa);
      EXPECT_EQ(a.remaining, b.remaining);
      EXPECT_EQ(a.hits.period(), period);
      EXPECT_TRUE(std::ranges::equal(a.hits.offsets(), b.hits.offsets())) << "line " << g;
    }
    ASSERT_EQ(reused.doms.size(), fresh.doms.size());
    for (std::size_t g = 0; g < fresh.doms.size(); ++g) {
      const auto& a = reused.doms[g];
      const auto& b = fresh.doms[g];
      EXPECT_EQ(a.key, b.key);
      EXPECT_EQ(a.hits.period(), period);
      EXPECT_TRUE(std::ranges::equal(a.hits.offsets(), b.hits.offsets())) << "domain " << g;
    }
    // Each schedule holds exactly the positions of its PA or key.
    u64 line_hits = 0;
    for (const auto& ls : reused.lines) {
      for (const u64 o : ls.hits.offsets()) EXPECT_EQ(pas[o], ls.pa) << "offset " << o;
      line_hits += ls.hits.per_period();
    }
    EXPECT_EQ(line_hits, period);
    for (const auto& d : reused.doms) {
      for (const u64 o : d.hits.offsets()) EXPECT_EQ(keys[o], d.key) << "offset " << o;
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
