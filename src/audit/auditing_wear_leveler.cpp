#include "audit/auditing_wear_leveler.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.hpp"

namespace srbsg::audit {

AuditingWearLeveler::AuditingWearLeveler(std::unique_ptr<wl::WearLeveler> inner,
                                         AuditConfig cfg)
    : inner_(std::move(inner)), cfg_(cfg), rng_(cfg.seed) {
  check(inner_ != nullptr, "AuditingWearLeveler: null scheme");
  check(cfg_.window_lines >= 1, "AuditingWearLeveler: window must hold at least one line");
  name_ = "audited(" + std::string(inner_->name()) + ")";
}

void AuditingWearLeveler::capture_baseline(const pcm::PcmBank& bank) {
  if (baseline_set_) return;
  baseline_set_ = true;
  baseline_bank_writes_ = bank.total_writes();
  const auto wear = bank.wear_counts();
  baseline_wear_sum_ = std::accumulate(wear.begin(), wear.end(), u64{0});
}

wl::WriteOutcome AuditingWearLeveler::write(La la, const pcm::LineData& data,
                                            pcm::PcmBank& bank) {
  capture_baseline(bank);
  const wl::WriteOutcome out = inner_->write(la, data, bank);
  account(1, out.movements, bank);
  return out;
}

wl::BulkOutcome AuditingWearLeveler::write_batch(std::span<const La> las,
                                                 const pcm::LineData& data,
                                                 pcm::PcmBank& bank) {
  capture_baseline(bank);
  const wl::BulkOutcome out = inner_->write_batch(las, data, bank);
  account(out.writes_applied, out.movements, bank);
  return out;
}

wl::BulkOutcome AuditingWearLeveler::write_cycle(std::span<const La> pattern,
                                                 const pcm::LineData& data, u64 count,
                                                 pcm::PcmBank& bank) {
  capture_baseline(bank);
  const wl::BulkOutcome out = inner_->write_cycle(pattern, data, count, bank);
  account(out.writes_applied, out.movements, bank);
  return out;
}

void AuditingWearLeveler::account(u64 writes, u64 movements, pcm::PcmBank& bank) {
  stats_.writes_seen += writes;
  stats_.movements_seen += movements;
  if (cfg_.cadence == 0) return;
  since_audit_ += writes;
  if (since_audit_ >= cfg_.cadence) {
    since_audit_ = 0;
    audit_now(bank);
  }
}

void AuditingWearLeveler::audit_now(const pcm::PcmBank& bank) {
  capture_baseline(bank);
  ++stats_.audits_run;
  if (cfg_.check_translation) audit_translation();
  if (cfg_.check_conservation) audit_conservation(bank);
  if (cfg_.check_scheme_state) inner_->validate_state();
}

void AuditingWearLeveler::scan_window(u64 start, u64 len,
                                      std::unordered_map<u64, u64>& seen) const {
  const u64 physical = inner_->physical_lines();
  for (u64 la = start; la < start + len; ++la) {
    const u64 pa = inner_->translate(La{la}).value();
    check_lt(pa, physical, "audit: translate() left the physical address space");
    const auto [it, inserted] = seen.emplace(pa, la);
    if (!inserted) {
      check(false, "audit: duplicate physical line " + std::to_string(pa) +
                       " (logical " + std::to_string(it->second) + " and " +
                       std::to_string(la) + ")");
    }
  }
}

void AuditingWearLeveler::audit_translation() {
  const u64 logical = inner_->logical_lines();
  std::unordered_map<u64, u64> seen;
  if (logical <= cfg_.full_scan_limit) {
    seen.reserve(logical);
    scan_window(0, logical, seen);
    return;
  }
  // Large domain: injectivity over sampled windows of consecutive logical
  // lines. Windows may overlap; the occupancy map spans the whole audit,
  // so cross-window collisions are caught too.
  seen.reserve(cfg_.sample_windows * cfg_.window_lines);
  for (u64 w = 0; w < cfg_.sample_windows; ++w) {
    const u64 len = std::min(cfg_.window_lines, logical);
    const u64 start = rng_.next_below(logical - len + 1);
    // Overlapping windows would report a self-collision; clip against the
    // lines already scanned instead of re-checking them.
    std::unordered_map<u64, u64> window;
    scan_window(start, len, window);
    for (const auto& [pa, la] : window) {
      const auto [it, inserted] = seen.emplace(pa, la);
      if (!inserted && it->second != la) {
        check(false, "audit: duplicate physical line " + std::to_string(pa) +
                         " (logical " + std::to_string(it->second) + " and " +
                         std::to_string(la) + ")");
      }
    }
  }
}

void AuditingWearLeveler::audit_conservation(const pcm::PcmBank& bank) const {
  // The scheme's ledger: every data write wears one line; every remap
  // movement wears writes_per_movement() lines.
  const u64 expected = stats_.writes_seen +
                       stats_.movements_seen * u64{inner_->writes_per_movement()};
  check_eq(bank.total_writes() - baseline_bank_writes_, expected,
           "audit: bank write ledger diverged from writes issued + remap movements");
  // And the bank's own ledger must agree with its per-line counters.
  const auto wear = bank.wear_counts();
  const u64 wear_sum = std::accumulate(wear.begin(), wear.end(), u64{0});
  check_eq(wear_sum - baseline_wear_sum_, expected,
           "audit: per-line wear counters diverged from the write ledger");
}

std::unique_ptr<AuditingWearLeveler> make_audited(std::unique_ptr<wl::WearLeveler> scheme,
                                                  AuditConfig cfg) {
  return std::make_unique<AuditingWearLeveler>(std::move(scheme), cfg);
}

}  // namespace srbsg::audit
