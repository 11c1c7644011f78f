#pragma once
// One-level Security Refresh covering the whole bank (paper §III.C).
// Every `interval` writes advance the CRP by one step.

#include <vector>

#include "common/check.hpp"
#include "wl/engine.hpp"
#include "wl/security_refresh_region.hpp"

namespace srbsg::wl {

struct SecurityRefreshConfig {
  u64 lines{1u << 16};  ///< N, power of two
  u64 interval{100};    ///< ψ, writes between refresh steps
  u64 seed{1};

  void validate() const;
};

class SecurityRefresh final : public BulkEngine<SecurityRefresh> {
 public:
  explicit SecurityRefresh(const SecurityRefreshConfig& cfg);

  [[nodiscard]] std::string_view name() const override { return "sr1"; }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override { return cfg_.lines; }

  [[nodiscard]] const SecurityRefreshRegion& region() const { return region_; }

  void validate_state() const override;
  /// SR movements are swaps: two line writes each.
  [[nodiscard]] u32 writes_per_movement() const override { return 2; }

  [[nodiscard]] u64 effective_interval() const { return boosted(cfg_.interval); }

 private:
  friend class BulkEngine<SecurityRefresh>;

  // Remapping rule (wl/engine.hpp): every ψ writes to the bank advance
  // the CRP by one step.
  static constexpr bool kGlobalCounter = true;
  static constexpr Fold kFold = Fold::kUniform;
  [[nodiscard]] Loc locate(u64 la) const { return {Pa{region_.translate(la)}}; }
  [[nodiscard]] u64& global_counter() { return counter_; }
  [[nodiscard]] u64 global_interval() const { return effective_interval(); }
  /// Performs one CRP step; returns the swap latency (0 when skipped).
  Ns fire_global(pcm::PcmBank& bank, u64& moved);
  /// Epoch fold: aggregated refresh steps between replayed steps that
  /// touch a pattern slot or wrap the round.
  [[nodiscard]] EpochPlan epoch_plan(const batch::Window& w, u64 remaining) const;
  FoldResult epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done, u64 jump,
                        const pcm::LineData& uniform, pcm::PcmBank& bank, BulkOutcome& out);

  SecurityRefreshConfig cfg_;
  SecurityRefreshRegion region_;
  u64 counter_{0};
};

}  // namespace srbsg::wl
