#pragma once
// Two-level Security Refresh (paper §III.C, last paragraph): an outer SR
// over the whole bank maps LA→IA; the IA space is split into equal
// sub-regions, each managed by an independent inner SR mapping IA→PA.
// Outer steps trigger every `outer_interval` writes to the bank; inner
// steps every `inner_interval` writes landing in that sub-region.

#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "wl/engine.hpp"
#include "wl/security_refresh_region.hpp"

namespace srbsg::wl {

struct TwoLevelSrConfig {
  u64 lines{1u << 16};     ///< N, power of two
  u64 sub_regions{512};    ///< R, power of two, divides N
  u64 inner_interval{64};  ///< ψ_in
  u64 outer_interval{128};  ///< ψ_out
  u64 seed{1};

  void validate() const;
  [[nodiscard]] u64 region_lines() const { return lines / sub_regions; }
};

class TwoLevelSecurityRefresh final : public BulkEngine<TwoLevelSecurityRefresh> {
 public:
  explicit TwoLevelSecurityRefresh(const TwoLevelSrConfig& cfg);

  [[nodiscard]] std::string_view name() const override { return "sr2"; }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override { return cfg_.lines; }

  [[nodiscard]] const TwoLevelSrConfig& config() const { return cfg_; }
  [[nodiscard]] const SecurityRefreshRegion& outer() const { return outer_; }
  [[nodiscard]] const SecurityRefreshRegion& inner(u64 q) const { return inner_[q]; }

  /// Intermediate address of `la` under the current outer mapping.
  [[nodiscard]] u64 to_ia(u64 la) const { return outer_.translate(la); }

  /// Outer and every inner SR region's register invariants plus the
  /// inner/outer write-counter bounds.
  void validate_state() const override;
  /// SR movements are swaps: two line writes each.
  [[nodiscard]] u32 writes_per_movement() const override { return 2; }

  [[nodiscard]] u64 effective_inner_interval() const { return boosted(cfg_.inner_interval); }
  [[nodiscard]] u64 effective_outer_interval() const { return boosted(cfg_.outer_interval); }

 private:
  friend class BulkEngine<TwoLevelSecurityRefresh>;

  // Remapping rule (wl/engine.hpp): the outer SR maps LA→IA and steps
  // every ψ_out writes to the bank; the IA's sub-region steps its inner
  // SR every ψ_in writes landing in it.
  static constexpr bool kDomainCounters = true;
  static constexpr bool kGlobalCounter = true;
  static constexpr Fold kFold = Fold::kUniform;
  [[nodiscard]] Loc locate(u64 la) const {
    const u64 ia = outer_.translate(la);
    return {ia_to_pa(ia), ia >> region_bits_, ia};
  }
  [[nodiscard]] u64& domain_counter(u64 q) { return inner_counter_[q]; }
  [[nodiscard]] u64 domain_interval() const { return effective_inner_interval(); }
  [[nodiscard]] u64& global_counter() { return outer_counter_; }
  [[nodiscard]] u64 global_interval() const { return effective_outer_interval(); }
  /// One inner CRP step of sub-region `q` (0 latency when skipped).
  Ns fire_domain(u64 q, pcm::PcmBank& bank, u64& moved);
  /// One outer CRP step (0 latency when skipped).
  Ns fire_global(pcm::PcmBank& bank, u64& moved);
  /// Epoch fold: analytic jumps between pattern-touching/rekey triggers
  /// at either level.
  [[nodiscard]] EpochPlan epoch_plan(const batch::Window& w, u64 remaining) const;
  FoldResult epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done, u64 jump,
                        const pcm::LineData& uniform, pcm::PcmBank& bank, BulkOutcome& out);

  [[nodiscard]] Pa ia_to_pa(u64 ia) const {
    const u64 q = ia >> region_bits_;
    return Pa{(q << region_bits_) | inner_[q].translate(ia & low_mask(region_bits_))};
  }

  TwoLevelSrConfig cfg_;
  u32 region_bits_{0};  ///< log2 of the sub-region size
  SecurityRefreshRegion outer_;
  std::vector<SecurityRefreshRegion> inner_;
  std::vector<u64> inner_counter_;
  u64 outer_counter_{0};
};

}  // namespace srbsg::wl
