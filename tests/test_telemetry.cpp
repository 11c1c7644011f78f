// Telemetry subsystem: counter registry semantics, ring behavior,
// collector determinism across worker counts, bit-identity of traced
// runs, the deprecated latency alias, snapshot cadence, and the
// attribution invariant the trace validator enforces.

#include "telemetry/collector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/harness.hpp"
#include "attack/raa.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "controller/memory_controller.hpp"
#include "sim/lifetime.hpp"
#include "sim/sweep.hpp"
#include "wl/factory.hpp"

namespace srbsg {
namespace {

using telemetry::CounterKind;
using telemetry::CounterRegistry;
using telemetry::Event;
using telemetry::EventRing;
using telemetry::EventType;
using telemetry::Recorder;
using telemetry::TelemetryConfig;

TEST(CounterRegistry, RegistrationIsIdempotent) {
  auto& reg = CounterRegistry::global();
  const u32 a = reg.register_slot("test.idempotent", CounterKind::kCounter);
  const u32 b = reg.register_slot("test.idempotent", CounterKind::kCounter);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.name(a), "test.idempotent");
  EXPECT_EQ(reg.kind(a), CounterKind::kCounter);
}

TEST(CounterRegistry, KindMismatchThrows) {
  auto& reg = CounterRegistry::global();
  (void)reg.register_slot("test.kind_mismatch", CounterKind::kCounter);
  EXPECT_THROW((void)reg.register_slot("test.kind_mismatch", CounterKind::kGauge),
               CheckFailure);
}

TEST(CounterShard, MergeRespectsKind) {
  auto& reg = CounterRegistry::global();
  const u32 c = reg.register_slot("test.merge_sum", CounterKind::kCounter);
  const u32 g = reg.register_slot("test.merge_max", CounterKind::kGauge);
  telemetry::CounterShard a, b;
  a.add(c, 5);
  b.add(c, 7);
  a.gauge_max(g, 9);
  b.gauge_max(g, 4);
  a.merge(b);
  EXPECT_EQ(a.value(c), 12u);  // counters sum
  EXPECT_EQ(a.value(g), 9u);   // gauges take the max
}

TEST(EventRing, DropOldestWraparound) {
  EventRing ring(4);
  for (u64 i = 0; i < 6; ++i) {
    Event e;
    e.a = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.pushed(), 6u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).a, i + 2);  // oldest retained is event #2
  }
}

TEST(EventRing, CapacityZeroCountsEverythingAsDropped) {
  EventRing ring(0);
  for (int i = 0; i < 3; ++i) ring.push(Event{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 3u);
  EXPECT_EQ(ring.pushed(), 3u);
}

TEST(Recorder, EmitBumpsMatchingCoreCounter) {
  Recorder rec;
  const auto& core = telemetry::CoreCounters::get();
  const u16 id = rec.intern_scheme("test-scheme");
  rec.emit(EventType::kRemapTriggered, id, telemetry::kGlobalDomain, 0, 0);
  rec.emit(EventType::kGapMoved, id, telemetry::kGlobalDomain, 1, 2);
  rec.emit(EventType::kKeyRerandomized, id, telemetry::kGlobalDomain, 1, 0);
  EXPECT_EQ(rec.counter(core.remap_triggers), 1u);
  EXPECT_EQ(rec.counter(core.gap_moves), 1u);
  EXPECT_EQ(rec.counter(core.rekeys), 1u);
  EXPECT_EQ(rec.events().size(), 3u);
}

TEST(Recorder, SnapshotCadence) {
  TelemetryConfig cfg;
  cfg.snapshot_interval = 100;
  cfg.snapshot_buckets = 8;
  Recorder rec(cfg);
  EXPECT_FALSE(rec.snapshot_due(0));
  EXPECT_FALSE(rec.snapshot_due(99));
  EXPECT_TRUE(rec.snapshot_due(100));
  const std::vector<u64> wear = {1, 2, 3, 4, 5, 6, 7, 8};
  rec.take_snapshot(150, wear);
  EXPECT_FALSE(rec.snapshot_due(199));  // next boundary is 200
  EXPECT_TRUE(rec.snapshot_due(200));
  ASSERT_EQ(rec.snapshots().size(), 1u);
  EXPECT_EQ(rec.snapshots()[0].writes, 150u);
  EXPECT_DOUBLE_EQ(rec.snapshots()[0].wear.mean, 4.5);
}

wl::SchemeSpec small_spec(wl::SchemeKind kind, u64 seed) {
  wl::SchemeSpec spec;
  spec.kind = kind;
  spec.lines = 256;
  spec.regions = 8;
  spec.inner_interval = 16;
  spec.outer_interval = 32;
  spec.stages = 5;
  spec.seed = seed;
  return spec;
}

sim::LifetimeConfig small_config(wl::SchemeKind kind, u64 seed) {
  sim::LifetimeConfig cfg;
  cfg.scheme = small_spec(kind, seed);
  cfg.pcm = pcm::PcmConfig::scaled(cfg.scheme.lines, 512);
  cfg.attack = sim::AttackKind::kRaa;
  cfg.write_budget = u64{1} << 26;
  cfg.seed = seed;
  return cfg;
}

bool outcomes_equal(const sim::LifetimeOutcome& a, const sim::LifetimeOutcome& b) {
  return a.result.succeeded == b.result.succeeded && a.result.lifetime == b.result.lifetime &&
         a.result.writes == b.result.writes && a.result.elapsed == b.result.elapsed &&
         a.wear.mean == b.wear.mean && a.wear.gini == b.wear.gini &&
         a.wear.max == b.wear.max && a.wear.min == b.wear.min;
}

TEST(Telemetry, TracedLifetimeIsBitIdentical) {
  for (const wl::SchemeKind kind :
       {wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kSr2, wl::SchemeKind::kRbsg}) {
    const auto plain = sim::run_lifetime(small_config(kind, 3));
    telemetry::Collector col;
    auto traced_cfg = small_config(kind, 3);
    traced_cfg.telemetry = &col;
    const auto traced = sim::run_lifetime(traced_cfg);
    EXPECT_TRUE(outcomes_equal(plain, traced))
        << "telemetry perturbed outcome for " << wl::to_string(kind);
    EXPECT_EQ(col.runs(), 1u);
    EXPECT_GT(col.total_events(), 0u);
  }
}

TEST(Telemetry, CollectorJsonlIsDeterministicAcrossWorkerCounts) {
  std::vector<sim::LifetimeConfig> configs;
  for (const wl::SchemeKind kind : {wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kSr2}) {
    for (u64 seed = 1; seed <= 3; ++seed) configs.push_back(small_config(kind, seed));
  }
  auto trace_with = [&](std::size_t threads) {
    telemetry::Collector col;
    auto traced = configs;
    for (auto& c : traced) c.telemetry = &col;
    ThreadPool pool(threads);
    (void)sim::run_sweep(traced, pool);
    std::ostringstream os;
    col.write_jsonl(os);
    return os.str();
  };
  const std::string one = trace_with(1);
  const std::string four = trace_with(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four) << "JSONL output depends on worker count";
}

TEST(Telemetry, MovesAndRekeysAttributeToSameInstantTrigger) {
  // The invariant srbsg-trace --validate enforces, checked in-memory on
  // a full (undropped) ring: per scheme, every GapMoved/KeyRerandomized
  // shares its timestamp with the latest RemapTriggered.
  const auto spec = small_spec(wl::SchemeKind::kSecurityRbsg, 7);
  const auto pcm_cfg = pcm::PcmConfig::scaled(spec.lines, 512);
  ctl::MemoryController mc(pcm_cfg, wl::make_scheme(spec));
  TelemetryConfig tcfg;
  tcfg.ring_capacity = std::size_t{1} << 20;
  Recorder rec(tcfg);
  attack::RepeatedAddressAttack atk(La{5});
  attack::HarnessOptions opts;
  opts.recorder = &rec;
  (void)attack::run_attack(mc, atk, u64{1} << 24, opts);

  const auto& ring = rec.events();
  ASSERT_EQ(ring.dropped(), 0u) << "ring too small for the run; test needs the full stream";
  ASSERT_GT(ring.size(), 0u);
  std::vector<u64> last_trigger(4, u64{0xffffffffffffffff});
  u64 moves = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Event& e = ring.at(i);
    ASSERT_LT(e.scheme, last_trigger.size());
    if (e.type == EventType::kRemapTriggered) {
      last_trigger[e.scheme] = e.time_ns;
    } else if (e.type == EventType::kGapMoved || e.type == EventType::kKeyRerandomized) {
      EXPECT_EQ(last_trigger[e.scheme], e.time_ns)
          << "event " << i << " not attributable to a same-instant RemapTriggered";
      ++moves;
    }
  }
  EXPECT_GT(moves, 0u);
}

TEST(Telemetry, JsonlHeaderAndCounterOrder) {
  telemetry::Collector col;
  auto rec = col.acquire();
  const u16 id = rec->intern_scheme("jsonl-test");
  rec->set_now(Ns{42});
  rec->emit(EventType::kRemapTriggered, id, 3, telemetry::kLevelInner, 0);
  rec->emit(EventType::kGapMoved, id, 3, 10, 11);
  telemetry::RunMeta meta;
  meta.entry = 0;
  meta.scheme = "jsonl-test";
  meta.attack = "unit";
  meta.seed = 1;
  col.absorb(meta, std::move(rec));

  std::ostringstream os;
  col.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"telemetry_schema\":2"), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"GapMoved\""), std::string::npos);
  EXPECT_NE(text.find("\"scheme\":\"jsonl-test\""), std::string::npos);
  // First line is the header.
  EXPECT_EQ(text.rfind("{\"type\":\"header\"", 0), 0u);
  // Merged counters are serialized sorted by name, so wl.gap_moves
  // precedes wl.remap_triggers inside the counters_merged record.
  const auto merged_at = text.find("counters_merged");
  ASSERT_NE(merged_at, std::string::npos);
  EXPECT_LT(text.find("wl.gap_moves", merged_at), text.find("wl.remap_triggers", merged_at));
  EXPECT_EQ(col.merged("wl.remap_triggers"), 1u);
  EXPECT_EQ(col.merged("wl.gap_moves"), 1u);
}

TEST(EventRing, SpanPairStraddlesDropPoint) {
  // A begin whose end lands after drop-oldest has evicted it: the ring
  // keeps the end (newest wins), so readers see an end with no begin —
  // the trace validator classifies exactly this as a truncated span.
  EventRing ring(4);
  Event begin;
  begin.type = EventType::kSpanBegin;
  begin.a = static_cast<u64>(telemetry::SpanKind::kRemapEpoch);
  ring.push(begin);
  for (u64 i = 0; i < 4; ++i) {
    Event filler;
    filler.type = EventType::kProbeClassified;
    filler.a = i;
    ring.push(filler);
  }
  Event end;
  end.type = EventType::kSpanEnd;
  end.a = static_cast<u64>(telemetry::SpanKind::kRemapEpoch);
  ring.push(end);

  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);  // the begin and the oldest filler
  bool saw_begin = false;
  bool saw_end = false;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    saw_begin = saw_begin || ring.at(i).type == EventType::kSpanBegin;
    saw_end = saw_end || ring.at(i).type == EventType::kSpanEnd;
  }
  EXPECT_FALSE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(Telemetry, TruncatedSpanSurvivesSerialization) {
  // End-to-end version of the straddle: a Recorder with a tiny ring
  // drops a span begin, and the collector must still serialize the
  // orphaned end (with its decoded span name) plus a nonzero dropped
  // count so the validator can downgrade the orphan to "truncated"
  // instead of rejecting the trace.
  TelemetryConfig cfg;
  cfg.ring_capacity = 4;
  telemetry::Collector col(cfg);
  auto rec = col.acquire();
  const u16 id = rec->intern_scheme("straddle");
  rec->span_begin(telemetry::SpanKind::kBatchChunk, id, telemetry::kGlobalDomain, 0, 7);
  for (u64 i = 0; i < 4; ++i) {
    rec->emit(EventType::kProbeClassified, id, telemetry::kGlobalDomain, i, 0);
  }
  rec->span_end(telemetry::SpanKind::kBatchChunk, id, telemetry::kGlobalDomain, 5, 7);

  telemetry::RunMeta meta;
  meta.entry = 0;
  meta.scheme = "straddle";
  meta.attack = "unit";
  meta.seed = 1;
  col.absorb(meta, std::move(rec));

  std::ostringstream os;
  col.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_EQ(text.find("\"ev\":\"SpanBegin\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"SpanEnd\""), std::string::npos);
  EXPECT_NE(text.find("\"span\":\"BatchChunk\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":2"), std::string::npos);
}

TEST(Telemetry, DetachResetsControllerTelemetry) {
  const auto spec = small_spec(wl::SchemeKind::kRbsg, 9);
  const auto pcm_cfg = pcm::PcmConfig::scaled(spec.lines, 512);
  ctl::MemoryController mc(pcm_cfg, wl::make_scheme(spec));
  Recorder rec;
  mc.set_telemetry(&rec);
  EXPECT_EQ(mc.telemetry(), &rec);
  (void)mc.write(La{1}, pcm::LineData::all_one());
  EXPECT_GT(rec.counter(telemetry::CoreCounters::get().writes), 0u);
  mc.set_telemetry(nullptr);
  EXPECT_EQ(mc.telemetry(), nullptr);
  const u64 before = rec.counter(telemetry::CoreCounters::get().writes);
  (void)mc.write(La{2}, pcm::LineData::all_one());
  EXPECT_EQ(rec.counter(telemetry::CoreCounters::get().writes), before);
}

}  // namespace
}  // namespace srbsg
