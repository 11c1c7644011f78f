#pragma once
// Invariant auditor: a decorator that wraps any wear-leveling scheme and,
// on a configurable write cadence, re-verifies the properties every
// headline lifetime number depends on:
//
//   1. translation soundness — translate() stays injective (no two logical
//      lines share a physical line) and in-range, checked exhaustively for
//      small address spaces and over sampled logical windows for large ones;
//   2. wear conservation — the bank's write ledger equals the data writes
//      issued through the scheme plus remap movements times the scheme's
//      per-movement write cost, and the per-line wear counters sum to that
//      ledger (a silently miscounted remap skews lifetime by orders of
//      magnitude without failing any functional test);
//   3. scheme state — the wrapped scheme's own validate_state() hook (gap
//      bounds, DFN Gap/Kc/Kp/isRemap consistency, SR round counters, ...).
//
// The auditor assumes it is the only writer of the bank it sees (true when
// it sits inside a MemoryController); any violation throws CheckFailure
// with the diverging values. It is opt-in — wrap a scheme before handing
// it to the controller — and costs nothing until an audit fires.

#include <memory>
#include <string>
#include <unordered_map>

#include "common/check.hpp"  // audits throw CheckFailure; callers catch it
#include "common/rng.hpp"
#include "wl/wear_leveler.hpp"

namespace srbsg::audit {

struct AuditConfig {
  /// Writes between audits; 1 audits after every operation. 0 disables
  /// cadence-driven audits (audit_now() still works).
  u64 cadence{1024};
  /// Exhaustive injectivity scan when logical_lines() <= this; sampled
  /// logical windows otherwise.
  u64 full_scan_limit{u64{1} << 16};
  /// Sampled mode: windows of consecutive logical lines per audit.
  u64 sample_windows{8};
  u64 window_lines{64};
  bool check_translation{true};
  bool check_conservation{true};
  bool check_scheme_state{true};
  /// Seed for the window sampler (deterministic audits).
  u64 seed{0x5eed};
};

struct AuditStats {
  u64 audits_run{0};
  u64 writes_seen{0};
  u64 movements_seen{0};
};

class AuditingWearLeveler final : public wl::WearLeveler {
 public:
  explicit AuditingWearLeveler(std::unique_ptr<wl::WearLeveler> inner, AuditConfig cfg = {});

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] u64 logical_lines() const override { return inner_->logical_lines(); }
  [[nodiscard]] u64 physical_lines() const override { return inner_->physical_lines(); }
  [[nodiscard]] Pa translate(La la) const override { return inner_->translate(la); }

  wl::WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) override;
  wl::BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data,
                              pcm::PcmBank& bank) override;
  wl::BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                              u64 count, pcm::PcmBank& bank) override;

  void set_rate_boost(u32 log2_divisor) override { inner_->set_rate_boost(log2_divisor); }
  void set_engine_tier(wl::EngineTier tier) override {
    wl::WearLeveler::set_engine_tier(tier);
    inner_->set_engine_tier(tier);
  }
  /// Telemetry events come from the wrapped scheme's movement helpers, so
  /// the recorder is forwarded inward; the auditor emits nothing itself.
  void attach_telemetry(telemetry::Recorder* recorder) override {
    // srbsg-analyze: suppress(a10-lifetime) recorder outlives wrapper and inner scheme
    wl::WearLeveler::attach_telemetry(recorder);
    inner_->attach_telemetry(recorder);
  }
  void validate_state() const override { inner_->validate_state(); }
  [[nodiscard]] u32 writes_per_movement() const override {
    return inner_->writes_per_movement();
  }

  /// Runs every enabled check immediately, regardless of cadence.
  void audit_now(const pcm::PcmBank& bank);

  [[nodiscard]] const AuditStats& stats() const { return stats_; }
  [[nodiscard]] const AuditConfig& config() const { return cfg_; }
  [[nodiscard]] wl::WearLeveler& inner() { return *inner_; }
  [[nodiscard]] const wl::WearLeveler& inner() const { return *inner_; }

 private:
  void capture_baseline(const pcm::PcmBank& bank);
  void account(u64 writes, u64 movements, pcm::PcmBank& bank);
  void audit_translation();
  void audit_conservation(const pcm::PcmBank& bank) const;
  /// Checks one logical window [start, start+len) for in-range, collision
  /// free translations against `seen` (physical line → logical owner).
  void scan_window(u64 start, u64 len, std::unordered_map<u64, u64>& seen) const;

  std::unique_ptr<wl::WearLeveler> inner_;
  AuditConfig cfg_;
  std::string name_;
  Rng rng_;
  AuditStats stats_;
  u64 since_audit_{0};
  bool baseline_set_{false};
  u64 baseline_bank_writes_{0};
  u64 baseline_wear_sum_{0};
};

/// Convenience wrapper used by tests, examples and the fuzz harness.
[[nodiscard]] std::unique_ptr<AuditingWearLeveler> make_audited(
    std::unique_ptr<wl::WearLeveler> scheme, AuditConfig cfg = {});

}  // namespace srbsg::audit
