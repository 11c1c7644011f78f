// Three-way engine-tier equivalence: for every scheme, the epoch
// fast-forward engine and the PR-4 windowed engine must be bit-identical
// to the per-write reference loop — wear counts, line contents, movement
// counts, total simulated time, translation state and failure bookkeeping
// (DESIGN.md §15). Covers mid-epoch endurance failure, a detector
// ψ-change between projections, non-periodic-pattern bailout, and
// non-uniform bank content (which must force the windowed fallback
// without breaking identity).

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pcm/bank.hpp"
#include "telemetry/telemetry.hpp"
#include "wl/epoch.hpp"
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

/// One scheme + bank driven under a pinned engine tier.
struct Arm {
  std::unique_ptr<WearLeveler> scheme;
  std::unique_ptr<pcm::PcmBank> bank;
  BulkOutcome out;

  Arm(const SchemeSpec& spec, const pcm::PcmConfig& cfg, EngineTier tier)
      : scheme(make_scheme(spec)),
        bank(std::make_unique<pcm::PcmBank>(cfg, scheme->physical_lines())) {
    scheme->set_engine_tier(tier);
  }

  void cycle(std::span<const La> pattern, const pcm::LineData& data, u64 count) {
    const BulkOutcome o = scheme->write_cycle(pattern, data, count, *bank);
    out.total += o.total;
    out.writes_applied += o.writes_applied;
    out.movements += o.movements;
  }
};

void expect_identical(const Arm& ref, const Arm& alt, const char* tag) {
  SCOPED_TRACE(tag);
  EXPECT_EQ(ref.out.writes_applied, alt.out.writes_applied);
  EXPECT_EQ(ref.out.movements, alt.out.movements);
  EXPECT_EQ(ref.out.total, alt.out.total);
  EXPECT_EQ(ref.bank->total_writes(), alt.bank->total_writes());
  ASSERT_EQ(ref.bank->has_failure(), alt.bank->has_failure());
  if (ref.bank->has_failure()) {
    EXPECT_EQ(ref.bank->first_failed_line(), alt.bank->first_failed_line());
    EXPECT_EQ(ref.bank->failure_overshoot(), alt.bank->failure_overshoot());
  }
  const auto wr = ref.bank->wear_counts();
  const auto wa = alt.bank->wear_counts();
  ASSERT_EQ(wr.size(), wa.size());
  for (u64 pa = 0; pa < wr.size(); ++pa) {
    ASSERT_EQ(wr[pa], wa[pa]) << "wear diverged at pa=" << pa;
  }
  for (u64 pa = 0; pa < wr.size(); ++pa) {
    ASSERT_EQ(ref.bank->data(Pa{pa}), alt.bank->data(Pa{pa}))
        << "content diverged at pa=" << pa;
  }
  for (u64 la = 0; la < ref.scheme->logical_lines(); ++la) {
    ASSERT_EQ(ref.scheme->translate(La{la}), alt.scheme->translate(La{la}))
        << "translation diverged at la=" << la;
  }
}

/// Drives the same write_cycle calls through all three tiers and asserts
/// bit-identity; `mutate` runs between calls on every arm (detector
/// boosts, extra single writes, ...).
template <typename Mutate>
void run_three_way(const SchemeSpec& spec, const pcm::PcmConfig& cfg,
                   std::span<const La> pattern, const pcm::LineData& data,
                   std::span<const u64> chunks, Mutate&& mutate) {
  Arm ref(spec, cfg, EngineTier::kReference);
  Arm win(spec, cfg, EngineTier::kWindowed);
  Arm epo(spec, cfg, EngineTier::kEpoch);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ref.cycle(pattern, data, chunks[i]);
    win.cycle(pattern, data, chunks[i]);
    epo.cycle(pattern, data, chunks[i]);
    mutate(i, ref);
    mutate(i, win);
    mutate(i, epo);
  }
  expect_identical(ref, win, "windowed-vs-reference");
  expect_identical(ref, epo, "epoch-vs-reference");
}

void run_three_way(const SchemeSpec& spec, const pcm::PcmConfig& cfg,
                   std::span<const La> pattern, const pcm::LineData& data,
                   std::span<const u64> chunks) {
  run_three_way(spec, cfg, pattern, data, chunks, [](std::size_t, Arm&) {});
}

class EpochEquivalence : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(EpochEquivalence, SingleAddressHammer) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  const std::vector<La> pattern = {La{5}};
  const std::vector<u64> chunks = {10'000, 1, 37, 25'000};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0xAA), chunks);
}

TEST_P(EpochEquivalence, MultiAddressPattern) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  const std::vector<La> pattern = {La{0}, La{17}, La{63}, La{200}, La{511}, La{17}};
  const std::vector<u64> chunks = {25'000, 13'337};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0x51), chunks);
}

TEST_P(EpochEquivalence, MidEpochEnduranceFailure) {
  const u64 lines = 256;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, 2'000);
  const std::vector<La> pattern = {La{3}, La{7}};
  const std::vector<u64> chunks = {50'000'000};  // far past first failure
  Arm probe(spec, cfg, EngineTier::kReference);
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0xF0), chunks);
  probe.cycle(pattern, pcm::LineData::mixed(0xF0), chunks[0]);
  ASSERT_TRUE(probe.bank->has_failure());
}

TEST_P(EpochEquivalence, EnduranceVariationFailure) {
  const u64 lines = 256;
  const auto spec = spec_for(GetParam(), lines);
  auto cfg = pcm::PcmConfig::scaled(lines, 4'000);
  cfg.endurance_variation = 0.15;  // per-line limits; failure off-pattern too
  const std::vector<La> pattern = {La{11}};
  const std::vector<u64> chunks = {80'000'000};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0x0B), chunks);
}

TEST_P(EpochEquivalence, DetectorBoostMidProjection) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  const std::vector<La> pattern = {La{42}, La{99}};
  const std::vector<u64> chunks = {9'000, 9'000, 9'000, 9'000};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0xD7), chunks,
                [](std::size_t i, Arm& arm) {
                  // ψ shrinks then recovers between projections — the
                  // carried counter must stay exact across the change.
                  arm.scheme->set_rate_boost(i == 0 ? 3 : (i == 1 ? 0 : 2));
                });
}

TEST_P(EpochEquivalence, NonPeriodicPatternBailout) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  // Period far beyond kPatternFallbackFactor * interval: every tier must
  // route through the generic per-write loop and still agree.
  std::vector<La> pattern;
  for (u64 i = 0; i < 300; ++i) pattern.push_back(La{(i * 37) % lines});
  const std::vector<u64> chunks = {5'000};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0x1234), chunks);
}

TEST_P(EpochEquivalence, NonUniformContentFallsBack) {
  const u64 lines = 256;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  const std::vector<La> pattern = {La{9}};
  const std::vector<u64> chunks = {2'000, 20'000};
  run_three_way(spec, cfg, pattern, pcm::LineData::mixed(0xC0), chunks,
                [lines](std::size_t i, Arm& arm) {
                  if (i != 0) return;
                  // Tag a few lines with distinct tokens: the movement
                  // slots are no longer uniform, so the epoch engine must
                  // take its windowed fallback — identically.
                  for (u64 la = 0; la < lines; la += 61) {
                    arm.scheme->write(La{la}, pcm::LineData::mixed(0xBEEF00 + la), *arm.bank);
                  }
                });
}

TEST_P(EpochEquivalence, CachedProofAcrossPatternChange) {
  // The first call leaves its hammered line one write short of failure.
  // A rate boost writes nothing to the bank, so a proof cached by that
  // call stays valid for the next one, whose pattern's gap sweeps pass
  // over the worn line. Folded movements must not push it past its
  // limit unrecorded: the failure lands where the per-write loop puts it.
  const u64 lines = 64;
  auto spec = spec_for(GetParam(), lines);
  spec.regions = 16;
  spec.inner_interval = 600;
  spec.outer_interval = u64{1} << 30;
  spec.seed = 2;
  const auto cfg = pcm::PcmConfig::scaled(lines, 601);
  const auto data = pcm::LineData::mixed(0x11);
  const std::vector<La> first = {La{2}};
  for (u64 y = 0; y < lines; ++y) {
    if (y == 2) continue;
    SCOPED_TRACE("second address " + std::to_string(y));
    const std::vector<La> second = {La{y}};
    Arm ref(spec, cfg, EngineTier::kReference);
    Arm win(spec, cfg, EngineTier::kWindowed);
    Arm epo(spec, cfg, EngineTier::kEpoch);
    for (Arm* arm : {&ref, &win, &epo}) {
      arm->cycle(first, data, 600);
      arm->scheme->set_rate_boost(8);
      arm->cycle(second, data, 3000);
    }
    expect_identical(ref, win, "windowed-vs-reference");
    expect_identical(ref, epo, "epoch-vs-reference");
  }
}

TEST_P(EpochEquivalence, NearFailureCallSkipsTheProofScan) {
  // The hammered line fails within physical_lines() writes, too soon to
  // amortize the O(lines) proof scan: the call must go to the windowed
  // tail before any scan (no EpochProjection span) and still stop where
  // the per-write loop does.
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, 300);
  const std::vector<La> pattern = {La{21}};
  const auto data = pcm::LineData::mixed(0x3C);
  const u64 count = 10'000'000;  // far past first failure
  Arm ref(spec, cfg, EngineTier::kReference);
  Arm epo(spec, cfg, EngineTier::kEpoch);
  telemetry::TelemetryConfig tcfg;
  telemetry::Recorder rec(tcfg);
  epo.scheme->attach_telemetry(&rec);
  ref.cycle(pattern, data, count);
  epo.cycle(pattern, data, count);
  ASSERT_TRUE(ref.bank->has_failure());
  expect_identical(ref, epo, "epoch-vs-reference");
  u64 projections = 0;
  u64 near_failure_tails = 0;
  const auto& ring = rec.events();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& e = ring.at(i);
    if (e.type != telemetry::EventType::kSpanBegin) continue;
    if (e.a == static_cast<u64>(telemetry::SpanKind::kEpochProjection)) ++projections;
    if (e.a == static_cast<u64>(telemetry::SpanKind::kExactReplayFallback) &&
        e.b == static_cast<u64>(telemetry::FallbackReason::kNearFailure)) {
      ++near_failure_tails;
    }
  }
  EXPECT_EQ(projections, 0u);
  // Schemes with an epoch fold (all but none and table) reach the
  // hand-off; the others run the windowed loop from the start.
  const bool folds = GetParam() != SchemeKind::kNone && GetParam() != SchemeKind::kTable;
  EXPECT_EQ(near_failure_tails, folds ? 1u : 0u);
}

TEST_P(EpochEquivalence, EpochTelemetryAttributesJumps) {
  const u64 lines = 512;
  const auto spec = spec_for(GetParam(), lines);
  const auto cfg = pcm::PcmConfig::scaled(lines, u64{1} << 40);
  Arm epo(spec, cfg, EngineTier::kEpoch);
  telemetry::TelemetryConfig tcfg;
  telemetry::Recorder rec(tcfg);
  epo.scheme->attach_telemetry(&rec);
  const std::vector<La> pattern = {La{5}};
  epo.cycle(pattern, pcm::LineData::mixed(0xAA), 50'000);
  u64 jump_writes = 0;
  u64 jumps = 0;
  const auto& ring = rec.events();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto& e = ring.at(i);
    if (e.type != telemetry::EventType::kEpochApplied) continue;
    ++jumps;
    jump_writes += e.a;
  }
  // Schemes with an epoch fast path must attribute the bulk of the run to
  // analytic jumps; schemes without one legitimately emit none.
  if (jumps > 0) {
    EXPECT_GT(jump_writes, 25'000u) << "jumps cover too little of the run";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EpochEquivalence, ::testing::ValuesIn(kAllKinds),
                         [](const auto& param_info) {
                           std::string n{to_string(param_info.param)};
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace srbsg::wl
