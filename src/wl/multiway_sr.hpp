#pragma once
// Multi-Way Security Refresh (Yu & Du, IEEE TC'14), as characterized in
// paper §III.E: the memory is partitioned into R sub-regions *by address
// sequence* (high LA bits select the region) and each sub-region runs an
// independent one-level Security Refresh. The static partition is exactly
// what makes the scheme vulnerable to the sub-region detection attack.

#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "wl/engine.hpp"
#include "wl/security_refresh_region.hpp"

namespace srbsg::wl {

struct MultiWaySrConfig {
  u64 lines{1u << 16};  ///< N, power of two
  u64 regions{64};      ///< R, power of two
  u64 interval{64};     ///< ψ per sub-region
  u64 seed{1};

  void validate() const;
  [[nodiscard]] u64 region_lines() const { return lines / regions; }
};

class MultiWaySecurityRefresh final : public BulkEngine<MultiWaySecurityRefresh> {
 public:
  explicit MultiWaySecurityRefresh(const MultiWaySrConfig& cfg);

  [[nodiscard]] std::string_view name() const override { return "mwsr"; }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override { return cfg_.lines; }

  [[nodiscard]] const MultiWaySrConfig& config() const { return cfg_; }

  void validate_state() const override;
  /// SR movements are swaps: two line writes each.
  [[nodiscard]] u32 writes_per_movement() const override { return 2; }

  [[nodiscard]] u64 effective_interval() const { return boosted(cfg_.interval); }

 private:
  friend class BulkEngine<MultiWaySecurityRefresh>;

  // Remapping rule (wl/engine.hpp): the high LA bits pick a sub-region,
  // whose counter advances its own SR every ψ writes.
  static constexpr bool kDomainCounters = true;
  static constexpr Fold kFold = Fold::kUniform;
  [[nodiscard]] Loc locate(u64 la) const {
    const u64 q = la >> region_bits_;
    return {Pa{(q << region_bits_) | regions_[q].translate(la & low_mask(region_bits_))}, q};
  }
  [[nodiscard]] u64& domain_counter(u64 q) { return counter_[q]; }
  [[nodiscard]] u64 domain_interval() const { return effective_interval(); }
  /// One CRP step of sub-region `q`; returns the swap latency (0 when
  /// skipped).
  Ns fire_domain(u64 q, pcm::PcmBank& bank, u64& moved);
  /// Epoch fold: per-region aggregated SR sweeps between replayed
  /// pattern-touching/rekey steps.
  [[nodiscard]] EpochPlan epoch_plan(const batch::Window& w, u64 remaining) const;
  FoldResult epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done, u64 jump,
                        const pcm::LineData& uniform, pcm::PcmBank& bank, BulkOutcome& out);

  MultiWaySrConfig cfg_;
  u32 region_bits_{0};  ///< log2 of the sub-region size
  std::vector<SecurityRefreshRegion> regions_;
  std::vector<u64> counter_;
};

}  // namespace srbsg::wl
