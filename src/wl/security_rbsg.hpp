#pragma once
// Security Region-Based Start-Gap — the paper's proposed scheme (§IV).
//
// Outer level: security-level-adjustable *dynamic* Feistel network maps
// LA→IA, re-keyed every remapping round so a timing attacker cannot
// recover the keys before they rotate. One outer movement every
// `outer_interval` writes to the bank.
//
// Inner level: the IA space is split into `sub_regions` fixed-size
// regions, each rotated by plain Start-Gap (low overhead; security is
// already provided by the outer level). One inner movement every
// `inner_interval` writes landing in that sub-region.
//
// Physical layout: sub-region q occupies slots [q*(M+1), (q+1)*(M+1));
// the outer spare line is the final physical line.

#include <algorithm>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "wl/dfn.hpp"
#include "wl/engine.hpp"
#include "wl/start_gap_region.hpp"

namespace srbsg::wl {

struct SecurityRbsgConfig {
  u64 lines{1u << 16};      ///< N, power of two
  u64 sub_regions{512};     ///< R, power of two, divides N
  u64 inner_interval{64};   ///< ψ_in (Start-Gap movements)
  u64 outer_interval{128};  ///< ψ_out (DFN movements)
  u32 stages{7};            ///< Feistel stages (security level; paper picks 7)
  OuterPrpKind prp{OuterPrpKind::kCubingFeistel};  ///< outer permutation family
  u64 seed{1};

  void validate() const;
  [[nodiscard]] u64 region_lines() const { return lines / sub_regions; }
};

class SecurityRbsg final : public BulkEngine<SecurityRbsg> {
 public:
  explicit SecurityRbsg(const SecurityRbsgConfig& cfg);

  [[nodiscard]] std::string_view name() const override { return "security-rbsg"; }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override {
    return cfg_.sub_regions * (cfg_.region_lines() + 1) + 1;
  }

  [[nodiscard]] const SecurityRbsgConfig& config() const { return cfg_; }
  [[nodiscard]] const DynamicFeistelOuter& outer() const { return outer_; }
  [[nodiscard]] u64 to_ia(u64 la) const { return outer_.translate(la); }

  /// DFN state-machine consistency (Gap/Kc/Kp/isRemap), inner Start-Gap
  /// register bounds, and the inner/outer write-counter bounds.
  void validate_state() const override;

  [[nodiscard]] u64 effective_inner_interval() const { return boosted(cfg_.inner_interval); }
  [[nodiscard]] u64 effective_outer_interval() const { return boosted(cfg_.outer_interval); }

 private:
  friend class BulkEngine<SecurityRbsg>;

  // Remapping rule (wl/engine.hpp): the DFN maps LA→IA and moves one
  // line every ψ_out writes to the bank; the IA's sub-region moves its
  // Start-Gap gap every ψ_in writes landing in it. A line parked on the
  // spare advances no inner counter.
  static constexpr bool kDomainCounters = true;
  static constexpr bool kGlobalCounter = true;
  static constexpr Fold kFold = Fold::kExactReplay;
  [[nodiscard]] Loc locate(u64 la) const {
    const u64 ia = outer_.translate(la);
    const u64 dom = ia == outer_.spare_ia() ? batch::kNoDomain : ia >> region_bits_;
    return {ia_to_pa(ia), dom, ia};
  }
  [[nodiscard]] u64& domain_counter(u64 q) { return inner_counter_[q]; }
  [[nodiscard]] u64 domain_interval() const { return effective_inner_interval(); }
  [[nodiscard]] u64& global_counter() { return outer_counter_; }
  [[nodiscard]] u64 global_interval() const { return effective_outer_interval(); }
  /// One inner Start-Gap movement of sub-region `q`.
  Ns fire_domain(u64 q, pcm::PcmBank& bank, u64& moved);
  /// One outer DFN movement.
  Ns fire_global(pcm::PcmBank& bank, u64& moved);
  /// The DFN advance of one outer movement, with its telemetry: the IA
  /// copy it asks for and where both endpoints live now.
  struct OuterMove {
    u64 ia_from;
    u64 ia_to;
    Pa from;
    Pa to;
  };
  OuterMove outer_step();
  /// Epoch fold: inner Start-Gap sweeps aggregate between exactly
  /// replayed outer DFN movements, one ψ_out segment at a time.
  [[nodiscard]] EpochPlan epoch_plan(const batch::Window& w, u64 remaining) const;
  [[nodiscard]] u64 epoch_segment(const EpochPlan& p, u64 done) const {
    return std::min(p.jump - done, effective_outer_interval() - outer_counter_);
  }
  FoldResult epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done, u64 seg,
                        const pcm::LineData& uniform, pcm::PcmBank& bank, BulkOutcome& out);

  [[nodiscard]] Pa ia_to_pa(u64 ia) const {
    if (ia == outer_.spare_ia()) return spare_pa();
    const u64 q = ia >> region_bits_;
    return Pa{q * region_stride_ + inner_[q].translate(ia & low_mask(region_bits_))};
  }
  /// The final physical line, past every sub-region's slots.
  [[nodiscard]] Pa spare_pa() const { return Pa{cfg_.sub_regions * region_stride_}; }

  SecurityRbsgConfig cfg_;
  u32 region_bits_{0};  ///< log2 of the sub-region size
  /// Physical slots per sub-region: its size plus its gap slot.
  u64 region_stride_{0};
  DynamicFeistelOuter outer_;
  std::vector<StartGapRegion> inner_;
  std::vector<u64> inner_counter_;
  u64 outer_counter_{0};
};

}  // namespace srbsg::wl
