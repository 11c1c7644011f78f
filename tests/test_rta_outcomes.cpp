// Pins the outcomes of the Remapping Timing Attacks (paper §III) against
// RBSG, one-level and two-level Security Refresh, and of the RTA probe
// against Security RBSG (§IV.B). The constants were recorded from runs in
// which the SR1 and SR2 pattern passes, and RBSG's passes for LA bits 0-2,
// went through the per-write path; every write an attacker does not read
// now goes through the bulk entry points, and every outcome must stay the
// same: each AttackResult field, the attacker's notes, and an FNV-1a over
// the wear metrics.
//
// Two kinds of case end inside a pattern pass, where the bulk path has to
// stop exactly as the per-write loop did: a write budget that runs out
// mid-pass, and a bank whose weak line fails mid-pass. A forwarding
// scheme records the last applied write, and each such case asserts it
// was a pattern write: issued through write() or write_batch(), to an LA
// other than the attacker's probe/target LA 0, after the blanket.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>

#include "attack/harness.hpp"
#include "common/stats.hpp"
#include "controller/memory_controller.hpp"
#include "sim/lifetime.hpp"
#include "wl/factory.hpp"

namespace srbsg {
namespace {

/// Forwards every call to the scheme under test and remembers the last
/// applied write.
class LastWrite final : public wl::WearLeveler {
 public:
  enum class Entry : u8 { kNone, kWrite, kBatch, kCycle };

  explicit LastWrite(std::unique_ptr<wl::WearLeveler> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] u64 logical_lines() const override { return inner_->logical_lines(); }
  [[nodiscard]] u64 physical_lines() const override { return inner_->physical_lines(); }
  [[nodiscard]] Pa translate(La la) const override { return inner_->translate(la); }
  wl::WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) override {
    const auto out = inner_->write(la, data, bank);
    note(Entry::kWrite, la);
    return out;
  }
  wl::BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data,
                              pcm::PcmBank& bank) override {
    const auto out = inner_->write_batch(las, data, bank);
    if (out.writes_applied > 0) note(Entry::kBatch, las[out.writes_applied - 1]);
    return out;
  }
  wl::BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                              u64 count, pcm::PcmBank& bank) override {
    const auto out = inner_->write_cycle(pattern, data, count, bank);
    if (out.writes_applied > 0) {
      note(Entry::kCycle, pattern[(out.writes_applied - 1) % pattern.size()]);
    }
    return out;
  }
  void set_rate_boost(u32 log2_divisor) override { inner_->set_rate_boost(log2_divisor); }
  [[nodiscard]] u32 writes_per_movement() const override {
    return inner_->writes_per_movement();
  }
  void set_engine_tier(wl::EngineTier tier) override { inner_->set_engine_tier(tier); }
  void attach_telemetry(telemetry::Recorder* recorder) override {
    inner_->attach_telemetry(recorder);
  }

  [[nodiscard]] Entry entry() const { return entry_; }
  [[nodiscard]] u64 la() const { return la_; }

 private:
  void note(Entry entry, La la) {
    entry_ = entry;
    la_ = la.value();
  }

  std::unique_ptr<wl::WearLeveler> inner_;
  Entry entry_{Entry::kNone};
  u64 la_{0};
};

/// Where a case's run must end.
enum class Stop : u8 {
  kAnywhere,
  kBudgetInPass,  ///< the write budget runs out inside a pattern pass
  kFailInPass,    ///< the bank fails on a pattern-pass write
};

struct Case {
  const char* name;
  wl::SchemeKind kind;
  u64 lines, regions, inner, outer, seed, endurance;
  double variation;
  u64 variation_seed;
  u64 budget;
  Stop stop;
  // Recorded outcome.
  bool succeeded;
  u64 lifetime_ns, writes, elapsed_ns;
  const char* attacker;
  const char* scheme;
  const char* detail;
  u64 wear_fnv;
};

constexpr u64 kBig = u64{1} << 36;
constexpr auto kSr2 = wl::SchemeKind::kSr2;
constexpr auto kSr1 = wl::SchemeKind::kSr1;
constexpr auto kRbsg = wl::SchemeKind::kRbsg;
constexpr auto kSrbsg = wl::SchemeKind::kSecurityRbsg;

// clang-format off
const Case kCases[] = {
    // Two-level SR: 3 sub-region counts x 2 interval pairs x 2 seeds.
    {"sr2_r16_16_64_s1", kSr2, 2048, 16, 16, 64, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 41269000, 240377, 41269000, "RTA", "sr2", "rounds=2 detections=2 failed_detections=0 prefix=11", 0x592206536e0b871bULL},
    {"sr2_r16_16_64_s2", kSr2, 2048, 16, 16, 64, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 38783250, 220645, 38783250, "RTA", "sr2", "rounds=2 detections=2 failed_detections=0 prefix=4", 0xe8414400851f8ad4ULL},
    {"sr2_r16_32_128_s1", kSr2, 2048, 16, 32, 128, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 30507000, 200977, 30507000, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=8", 0xb11f00188049731cULL},
    {"sr2_r16_32_128_s2", kSr2, 2048, 16, 32, 128, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 1764625, 5245, 1764625, "RTA", "sr2", "rounds=0 detections=1 failed_detections=1 prefix=0", 0x3b504e27b6d30b26ULL},
    {"sr2_r32_16_64_s1", kSr2, 2048, 32, 16, 64, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 18743125, 101715, 18743125, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=16", 0xfa935894221e6c03ULL},
    {"sr2_r32_16_64_s2", kSr2, 2048, 32, 16, 64, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 17699000, 94453, 17699000, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=23", 0xb420e3d2fe1eb0c7ULL},
    {"sr2_r32_32_128_s1", kSr2, 2048, 32, 32, 128, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 18501250, 108916, 18501250, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=16", 0xfff7272eeae5e858ULL},
    {"sr2_r32_32_128_s2", kSr2, 2048, 32, 32, 128, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 17154625, 99120, 17154625, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=23", 0x7e15d3c1848bc4dfULL},
    {"sr2_r64_16_64_s1", kSr2, 2048, 64, 16, 64, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 12375125, 54758, 12375125, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=33", 0x33cf799d1a08b2f2ULL},
    {"sr2_r64_16_64_s2", kSr2, 2048, 64, 16, 64, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 12705875, 57035, 12705875, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=46", 0x6159d0e41c2ef790ULL},
    {"sr2_r64_32_128_s1", kSr2, 2048, 64, 32, 128, 1, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 12362375, 62882, 12362375, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=33", 0x5c4f15b04ca47c3eULL},
    {"sr2_r64_32_128_s2", kSr2, 2048, 64, 32, 128, 2, 2048, 0.0, 0, kBig, Stop::kAnywhere,
     true, 12482250, 63730, 12482250, "RTA", "sr2", "rounds=1 detections=1 failed_detections=0 prefix=46", 0xb5b4c24d5ed76235ULL},
    // Two-level SR at 2^10 lines: the budget runs out 100 writes into the
    // second pass (bit 7), inside its run of LAs 128..191; a weak line
    // fails on a write of the first pass (bit 6).
    {"sr2_budget_in_pass", kSr2, 1024, 16, 16, 64, 1, 2048, 0.0, 0, 4260, Stop::kBudgetInPass,
     false, 0, 4260, 1162375, "RTA", "sr2", "rounds=0 detections=1 failed_detections=1 prefix=0", 0x49d3f7d8c39c249aULL},
    {"sr2_fail_in_pass", kSr2, 1024, 16, 16, 64, 1, 16, 0.3, 9, kBig, Stop::kFailInPass,
     true, 419250, 1250, 419250, "RTA", "sr2", "rounds=0 detections=1 failed_detections=1 prefix=0", 0x40cc7c29eeb78ba6ULL},
    // One-level SR.
    {"sr1_s1", kSr1, 1024, 1, 16, 0, 1, 16384, 0.0, 0, kBig, Stop::kAnywhere,
     true, 20099625, 26652, 20099625, "RTA", "sr1", "rounds=1 detections=1 last_key=510", 0xfc444bc3ec6af8baULL},
    {"sr1_s2", kSr1, 1024, 1, 16, 0, 2, 16384, 0.0, 0, kBig, Stop::kAnywhere,
     true, 19549750, 22683, 19549750, "RTA", "sr1", "rounds=1 detections=1 last_key=911", 0x13948871a719b41bULL},
    // RBSG; its passes for bits 1 and 2 write runs of 2 and 4 equal
    // values. The budgets end 501 writes into the bit-1 pass (inside the
    // run 500..501) and 514 writes into the bit-2 pass (inside 512..515);
    // the weak line fails on the first write of a short run.
    {"rbsg_s1", kRbsg, 1024, 8, 16, 0, 1, 8192, 0.0, 0, kBig, Stop::kAnywhere,
     true, 10945125, 38776, 10945125, "RTA", "rbsg", "blanket=1024 align=96 detect=29536 seq_len=6 fallback_windows=0", 0x6fdf1243dfe02147ULL},
    {"rbsg_budget_in_bit1_pass", kRbsg, 1024, 8, 16, 0, 1, 8192, 0.0, 0, 4661, Stop::kBudgetInPass,
     false, 0, 4661, 1463125, "RTA", "rbsg", "blanket=1024 align=96 detect=3541 seq_len=6 fallback_windows=0", 0x14c766f0886da566ULL},
    {"rbsg_budget_in_bit2_pass", kRbsg, 1024, 8, 16, 0, 1, 8192, 0.0, 0, 7618, Stop::kBudgetInPass,
     false, 0, 7618, 2402000, "RTA", "rbsg", "blanket=1024 align=96 detect=6498 seq_len=6 fallback_windows=0", 0xb29db13f848ce905ULL},
    {"rbsg_fail_in_pass", kRbsg, 1024, 8, 16, 0, 1, 2048, 0.2, 22, kBig, Stop::kFailInPass,
     true, 1558250, 4785, 1558250, "RTA", "rbsg", "blanket=1024 align=96 detect=3665 seq_len=3 fallback_windows=0", 0x86d46dece233fd2fULL},
    // The Security RBSG probe; its patterning pass doubles as the blanket,
    // and the second case's budget ends inside it.
    {"srbsg_probe_s1", kSrbsg, 1024, 16, 16, 32, 1, 4096, 0.0, 0, kBig, Stop::kAnywhere,
     true, 294282875, 553458, 294282875, "RTA-probe", "security-rbsg", "samples=4096 bias=0.495361 agreement=0.469238 bpa_addresses=210", 0xa32e45cf00c37908ULL},
    {"srbsg_probe_budget_in_pass", kSrbsg, 1024, 16, 16, 32, 1, 4096, 0.0, 0, 777,
     Stop::kAnywhere,
     false, 0, 777, 479500, "RTA-probe", "security-rbsg", "samples=0 bias=0.000000 agreement=0.000000 bpa_addresses=0", 0xe85b999bbb030a1bULL},
};
// clang-format on

u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

u64 wear_fnv(const WearMetrics& m) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const double d : {m.mean, m.coefficient_of_variation, m.gini, m.max_over_mean}) {
    h = fnv1a(h, std::bit_cast<u64>(d));
  }
  h = fnv1a(h, m.max);
  return fnv1a(h, m.min);
}

sim::LifetimeConfig config_of(const Case& c) {
  sim::LifetimeConfig cfg;
  cfg.pcm = pcm::PcmConfig::scaled(c.lines, c.endurance);
  cfg.pcm.endurance_variation = c.variation;
  cfg.pcm.variation_seed = c.variation_seed;
  cfg.scheme.kind = c.kind;
  cfg.scheme.lines = c.lines;
  cfg.scheme.regions = c.regions;
  cfg.scheme.inner_interval = c.inner;
  cfg.scheme.outer_interval = c.outer;
  cfg.scheme.seed = c.seed;
  cfg.attack = sim::AttackKind::kRta;
  cfg.write_budget = c.budget;
  cfg.seed = c.seed;
  return cfg;
}

class RtaOutcomes : public ::testing::TestWithParam<Case> {};

TEST_P(RtaOutcomes, MatchTheRecordedRuns) {
  const Case& c = GetParam();
  const sim::LifetimeConfig cfg = config_of(c);
  auto scheme = std::make_unique<LastWrite>(wl::make_scheme(cfg.scheme));
  const LastWrite* last = scheme.get();
  ctl::MemoryController mc(cfg.pcm, std::move(scheme));
  mc.set_engine_tier(cfg.engine);
  const auto attacker = sim::make_attacker(cfg);
  const attack::AttackResult res = attack::run_attack(mc, *attacker, cfg.write_budget);
  const u64 fnv = wear_fnv(compute_wear_metrics(mc.bank().wear_counts()));

  EXPECT_EQ(res.succeeded, c.succeeded);
  EXPECT_EQ(res.lifetime.value(), c.lifetime_ns);
  EXPECT_EQ(res.writes, c.writes);
  EXPECT_EQ(res.elapsed.value(), c.elapsed_ns);
  EXPECT_EQ(res.attacker, c.attacker);
  EXPECT_EQ(res.scheme, c.scheme);
  EXPECT_EQ(res.detail, c.detail);
  EXPECT_EQ(fnv, c.wear_fnv);
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "measured: " << (res.succeeded ? "true" : "false") << ", "
                  << res.lifetime.value() << ", " << res.writes << ", "
                  << res.elapsed.value() << ", \"" << res.attacker << "\", \"" << res.scheme
                  << "\", \"" << res.detail << "\", 0x" << std::hex << fnv << "ULL";
  }

  if (c.stop == Stop::kAnywhere) return;
  const bool pattern_write = last->entry() != LastWrite::Entry::kCycle && last->la() != 0 &&
                             res.writes > c.lines;
  EXPECT_TRUE(pattern_write) << "last write: entry " << static_cast<int>(last->entry())
                             << ", LA " << last->la();
  if (c.stop == Stop::kBudgetInPass) {
    EXPECT_FALSE(res.succeeded);
    EXPECT_EQ(mc.total_writes(), c.budget);
  } else {
    EXPECT_TRUE(res.succeeded);
  }
}

INSTANTIATE_TEST_SUITE_P(Recorded, RtaOutcomes, ::testing::ValuesIn(kCases),
                         [](const auto& p) { return std::string(p.param.name); });

}  // namespace
}  // namespace srbsg
