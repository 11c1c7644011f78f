// Self-test of the benchmark's own parts; building the benchmark runs it.
//
//   1. The timing decorator leaves every scheme bit-identical: all eight
//      SchemeKinds, through the four write entry points, under every
//      engine tier, with telemetry attached and a rate boost mid-stream.
//   2. The failure log trips on a deliberately corrupted outcome and on
//      a broken wear ledger, and stays at zero on an honest rerun.
//   3. The tail-percentile helper picks the highest ladder percentile
//      with at least ten samples beyond it and never leaves [min, max].

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "timed_scheme.hpp"
#include "wl/factory.hpp"
#include "workloads.hpp"

namespace {

using namespace srbsg;
using repobench::TimedScheme;

int g_failures = 0;

void expect(bool ok, const char* what, const std::string& ctx = {}) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s %s\n", what, ctx.c_str());
}

/// Drives one scheme through every write entry point until its small,
/// low-endurance bank fails; returns a trace of every outcome.
struct Drive {
  std::vector<u64> outcomes;
  u64 bank_writes{0};
  std::vector<u64> wear;
  std::vector<u64> translation;
  bool failed{false};
  std::vector<u64> counters;
};

Drive drive(wl::WearLeveler& s, wl::EngineTier tier) {
  pcm::PcmBank bank(pcm::PcmConfig::scaled(s.logical_lines(), 4096), s.physical_lines());
  telemetry::Recorder rec;
  s.attach_telemetry(&rec);
  s.set_engine_tier(tier);
  Drive d;
  Rng rng(7);
  const u64 lines = s.logical_lines();
  auto note_bulk = [&](const wl::BulkOutcome& o) {
    d.outcomes.insert(d.outcomes.end(), {o.total.value(), o.writes_applied, o.movements});
  };
  std::vector<La> batch;
  for (u64 round = 0; !bank.has_failure() && round < 400; ++round) {
    for (u64 k = 0; k < 8 && !bank.has_failure(); ++k) {
      const wl::WriteOutcome o = s.write(La{rng.next_below(lines)}, pcm::LineData::mixed(k), bank);
      d.outcomes.insert(d.outcomes.end(), {o.total.value(), o.stall.value(), o.movements});
    }
    note_bulk(s.write_repeated(La{rng.next_below(lines)}, pcm::LineData::all_zero(), 300, bank));
    batch.clear();
    for (int k = 0; k < 64; ++k) batch.push_back(La{rng.next_below(lines)});
    batch.insert(batch.end(), 20, La{3});  // a run long enough for the cycle path
    note_bulk(s.write_batch(batch, pcm::LineData::mixed(1), bank));
    const La pattern[] = {La{1}, La{lines / 2}, La{lines - 1}};
    note_bulk(s.write_cycle(pattern, pcm::LineData::all_one(), 5000, bank));
    if (round == 40) s.set_rate_boost(1);
    if (round == 80) s.set_rate_boost(0);
  }
  s.attach_telemetry(nullptr);
  d.bank_writes = bank.total_writes();
  d.wear.assign(bank.wear_counts().begin(), bank.wear_counts().end());
  for (u64 la = 0; la < lines; ++la) d.translation.push_back(s.translate(La{la}).value());
  d.failed = bank.has_failure();
  const auto& c = telemetry::CoreCounters::get();
  for (const u32 slot : {c.remap_triggers, c.gap_moves, c.rekeys, c.batch_chunks,
                         c.epoch_jumps, c.epoch_fallbacks, c.spans, c.line_failures}) {
    d.counters.push_back(rec.counter(slot));
  }
  return d;
}

void test_decorator_identity() {
  u64 epoch_jumps = 0;
  for (const auto kind :
       {wl::SchemeKind::kNone, wl::SchemeKind::kStartGap, wl::SchemeKind::kRbsg,
        wl::SchemeKind::kSr1, wl::SchemeKind::kSr2, wl::SchemeKind::kMultiWaySr,
        wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kTable}) {
    for (const auto tier :
         {wl::EngineTier::kReference, wl::EngineTier::kWindowed, wl::EngineTier::kEpoch}) {
      wl::SchemeSpec spec;
      spec.kind = kind;
      spec.lines = 256;
      spec.regions = 8;
      spec.inner_interval = 4;
      spec.outer_interval = 8;
      spec.stages = 7;
      spec.seed = 11;
      const std::string ctx =
          std::string(wl::to_string(kind)) + "/" + std::string(wl::to_string(tier));
      auto plain = wl::make_scheme(spec);
      TimedScheme timed(wl::make_scheme(spec));
      expect(timed.name() == plain->name(), "name forwarded", ctx);
      expect(timed.physical_lines() == plain->physical_lines(), "physical_lines", ctx);
      expect(timed.writes_per_movement() == plain->writes_per_movement(), "writes_per_movement",
             ctx);
      const Drive a = drive(*plain, tier);
      const Drive b = drive(timed, tier);
      expect(a.failed, "the drive reaches a line failure", ctx);
      expect(a.outcomes == b.outcomes, "per-call outcomes identical", ctx);
      expect(a.wear == b.wear && a.bank_writes == b.bank_writes, "bank identical", ctx);
      expect(a.translation == b.translation, "translation identical", ctx);
      expect(a.counters == b.counters, "engine-path counters identical", ctx);
      const repobench::SchemeTimes& t = timed.times();
      expect(t.write.calls > 0 && t.write_repeated.calls > 0 && t.write_batch.calls > 0 &&
                 t.write_cycle.calls > 0 && t.translate.calls == spec.lines,
             "every entry point reached the decorator", ctx);
      expect(b.bank_writes == t.writes_applied() + t.movements * timed.writes_per_movement(),
             "wear conservation from the decorator's ledger", ctx);
      if (tier == wl::EngineTier::kEpoch) epoch_jumps += b.counters[4];
    }
  }
  // set_engine_tier must reach the scheme: only the epoch tier jumps.
  expect(epoch_jumps > 0, "the epoch tier was exercised");
}

void test_failure_log() {
  // A tiny real plan: one Security RBSG run under RAA.
  repobench::Plan plan;
  sim::LifetimeConfig c;
  c.pcm = pcm::PcmConfig::scaled(256, 2048);
  c.scheme.kind = wl::SchemeKind::kSecurityRbsg;
  c.scheme.lines = 256;
  c.scheme.regions = 4;
  c.scheme.inner_interval = 4;
  c.scheme.outer_interval = 8;
  c.scheme.seed = 3;
  plan.runs = {c, c};
  plan.runs[1].attack = sim::AttackKind::kBpa;
  plan.lines = 256;
  ThreadPool pool(1);
  const auto ref = repobench::run_untraced(plan, pool);
  sim::WorkerArena arena;

  repobench::FailureLog honest(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const repobench::RunTrace r = repobench::run_traced(plan, i, arena);
    honest.check_same(i, r.outcome, ref[i]);
    honest.check(i, r.conserved());
    honest.check(i, repobench::outcome_valid(plan, i, ref[i]));
  }
  expect(honest.failed() == 0 && honest.attempted() == 2, "honest rerun has no failures");

  repobench::RunTrace r = repobench::run_traced(plan, 1, arena);
  repobench::FailureLog log(plan.size());
  repobench::Outcome bent = r.outcome;
  bent.wear.gini = std::nextafter(bent.wear.gini, 1.0);  // one ulp
  log.check_same(1, bent, ref[1]);
  expect(log.failed() == 1, "one-ulp corruption of an outcome counts as a failed run");
  log.check_same(1, r.outcome, ref[1]);
  expect(log.failed() == 1, "a later honest check does not clear the failure");

  ++r.bank_writes;
  expect(!r.conserved(), "a broken wear ledger fails conservation");
  repobench::Outcome unfinished = ref[0];
  unfinished.succeeded = false;
  expect(!repobench::outcome_valid(plan, 0, unfinished), "a run that never failed is invalid");
}

void test_tail_percentile() {
  using repobench::tail_percentile;
  std::vector<double> v(19, 1.0);
  expect(!tail_percentile(v), "19 samples leave no percentile with ten beyond");
  expect(!tail_percentile({}), "no samples, no tail");
  auto ramp = [](std::size_t n) {
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = static_cast<double>(n - i);  // unsorted
    return r;
  };
  const auto t20 = tail_percentile(ramp(20));
  expect(t20 && t20->pct == 50.0 && t20->value == 10.0 && t20->beyond == 10, "n=20 -> p50");
  const auto t66 = tail_percentile(ramp(66));
  expect(t66 && t66->pct == 75.0 && t66->beyond == 16, "n=66 -> p75");
  const auto t2072 = tail_percentile(ramp(2072));
  expect(t2072 && t2072->pct == 99.5 && t2072->beyond == 10, "n=2072 -> p99.5");

  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 1 + rng.next_below(5000);
    std::vector<double> s(n);
    for (auto& x : s) {
      x = static_cast<double>(rng.next_below(50)) - 20.0 + (rng.next_bool(0.1) ? 1e9 : 0.0);
    }
    const auto t = tail_percentile(s);
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    if (!t) {
      expect(n < 20, "a tail exists once there are 20 samples");
      continue;
    }
    expect(t->value >= *lo && t->value <= *hi, "tail within [min, max]");
    expect(t->beyond >= 10, "ten samples beyond the tail");
    for (const double pct : repobench::kTailLadder) {
      if (pct <= t->pct) continue;
      expect(n - repobench::rank_of(pct, n) < 10, "no higher ladder step qualifies");
      break;
    }
  }
  expect(repobench::median({3.0, 1.0, 2.0}) == 2.0 && repobench::median({4.0, 1.0}) == 2.5,
         "median");
  expect(repobench::mad({1.0, 2.0, 3.0, 4.0, 100.0}) == 1.0, "MAD");
}

}  // namespace

int main() {
  test_decorator_identity();
  test_failure_log();
  test_tail_percentile();
  if (g_failures != 0) {
    std::fprintf(stderr, "repobench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("repobench self-test: ok\n");
  return 0;
}
