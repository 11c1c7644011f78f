#pragma once
// Region-Based Start-Gap (RBSG, Qureshi et al. MICRO'09; paper §III.A).
//
// A *static* randomizer (Feistel network or random invertible binary
// matrix, fixed at boot) maps LA→IA; the IA space is split into R equal
// contiguous regions, each wear-leveled independently by Start-Gap with
// one extra gap line. Every `interval` writes to a region trigger one gap
// movement in that region.
//
// With `regions == 1` and `randomizer == kNone` this degenerates to the
// plain Start-Gap scheme.

#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "mapping/mapper.hpp"
#include "wl/engine.hpp"
#include "wl/start_gap_region.hpp"

namespace srbsg::wl {

struct RbsgConfig {
  u64 lines{1u << 16};  ///< N, power of two (at most 2^32 when randomized)
  u64 regions{32};      ///< R, must divide N
  u64 interval{100};    ///< ψ, writes per region between gap movements
  enum class Randomizer { kNone, kFeistel, kMatrix } randomizer{Randomizer::kFeistel};
  u32 feistel_stages{3};  ///< RBSG's recommended static randomizer depth
  u64 seed{1};

  void validate() const;
  [[nodiscard]] u64 region_lines() const { return lines / regions; }
};

class RegionStartGap final : public BulkEngine<RegionStartGap> {
 public:
  explicit RegionStartGap(const RbsgConfig& cfg);

  [[nodiscard]] std::string_view name() const override {
    return cfg_.regions == 1 && cfg_.randomizer == RbsgConfig::Randomizer::kNone
               ? "start-gap"
               : "rbsg";
  }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override {
    return cfg_.regions * (cfg_.region_lines() + 1);
  }

  [[nodiscard]] const RbsgConfig& config() const { return cfg_; }
  /// Static randomizer (identity when configured with kNone). Each LA's
  /// IA is computed once, on first use, and memoized.
  [[nodiscard]] u64 randomize(u64 la) const {
    check(la < cfg_.lines, "RegionStartGap::randomize: address out of range");
    if (!mapper_) return la;
    u32& ia = ia_of_[la];
    if (ia == kUnmapped) [[unlikely]] ia = checked_narrow<u32>(mapper_->map(la));
    return ia;
  }
  [[nodiscard]] u64 derandomize(u64 ia) const;
  /// Gap register of region `q` (for tests).
  [[nodiscard]] u64 region_gap(u64 q) const { return sg_[q].gap(); }
  [[nodiscard]] u64 region_write_counter(u64 q) const { return counter_[q]; }

  /// Convenience: plain Start-Gap over the whole bank (single region, no
  /// randomizer).
  [[nodiscard]] static RbsgConfig plain_start_gap(u64 lines, u64 interval);

  /// Region register bounds, write-counter bounds, the randomizer memo
  /// vs. the randomizer, and (for enumerable widths) bijectivity of the
  /// static randomizer.
  void validate_state() const override;
  /// Effective remapping interval (configured ψ divided by the boost).
  [[nodiscard]] u64 effective_interval() const { return boosted(cfg_.interval); }

 private:
  friend class BulkEngine<RegionStartGap>;

  // Remapping rule (wl/engine.hpp): a static randomizer picks the region,
  // whose write counter fires one gap movement every ψ writes.
  static constexpr bool kDomainCounters = true;
  static constexpr Fold kFold = Fold::kUniform;
  [[nodiscard]] Loc locate(u64 la) const {
    const u64 ia = randomize(la);
    const u64 q = ia >> region_bits_;
    return {Pa{region_base(q) + sg_[q].translate(ia & low_mask(region_bits_))}, q, ia};
  }
  [[nodiscard]] u64& domain_counter(u64 q) { return counter_[q]; }
  [[nodiscard]] u64 domain_interval() const { return effective_interval(); }
  /// Executes one gap movement in region `q`; returns its latency.
  Ns fire_domain(u64 q, pcm::PcmBank& bank, u64& moved);
  /// Epoch fold: aggregated gap movements between replayed movements
  /// that relocate a pattern line or wrap a region's rotation.
  [[nodiscard]] EpochPlan epoch_plan(const batch::Window& w, u64 remaining) const;
  FoldResult epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done, u64 jump,
                        const pcm::LineData& uniform, pcm::PcmBank& bank, BulkOutcome& out);
  /// Each pattern region's gap slot: stale content, budgeted wear.
  template <typename Fn>
  void for_each_stale_slot(const batch::Window& w, Fn&& fn) const {
    for (const auto& d : w.doms) fn(region_base(d.key) + sg_[d.key].gap());
  }
  [[nodiscard]] u64 region_base(u64 q) const { return q * region_stride_; }

  /// Memo entry of an LA not randomized yet.
  static constexpr u32 kUnmapped = ~u32{0};

  RbsgConfig cfg_;
  u32 region_bits_{0};  ///< log2 of the region size
  /// Physical slots per region: the region size plus its gap slot.
  u64 region_stride_{0};
  std::unique_ptr<mapping::AddressMapper> mapper_;  ///< null = identity
  /// randomize()'s memo, one entry per LA (empty without a randomizer),
  /// so translate() writes it: an instance serves one thread, as for
  /// every scheme. At 2^32 lines the IA 2^32 - 1 equals kUnmapped, so
  /// that one LA re-evaluates the randomizer on every use.
  mutable std::vector<u32> ia_of_;
  std::vector<StartGapRegion> sg_;
  std::vector<u64> counter_;
};

}  // namespace srbsg::wl
