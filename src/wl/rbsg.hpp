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

#include "common/check.hpp"
#include "mapping/mapper.hpp"
#include "wl/engine.hpp"
#include "wl/start_gap_region.hpp"

namespace srbsg::wl {

struct RbsgConfig {
  u64 lines{1u << 16};  ///< N, power of two
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
  /// Static randomizer (identity when configured with kNone).
  [[nodiscard]] u64 randomize(u64 la) const;
  [[nodiscard]] u64 derandomize(u64 ia) const;
  /// Gap register of region `q` (for tests).
  [[nodiscard]] u64 region_gap(u64 q) const { return sg_[q].gap(); }
  [[nodiscard]] u64 region_write_counter(u64 q) const { return counter_[q]; }

  /// Convenience: plain Start-Gap over the whole bank (single region, no
  /// randomizer).
  [[nodiscard]] static RbsgConfig plain_start_gap(u64 lines, u64 interval);

  /// Region register bounds, write-counter bounds, and (for enumerable
  /// widths) bijectivity of the static randomizer.
  void validate_state() const override;
  /// Effective remapping interval (configured ψ divided by the boost).
  [[nodiscard]] u64 effective_interval() const { return boosted(cfg_.interval); }

 private:
  friend class BulkEngine<RegionStartGap>;

  // Remapping rule (wl/engine.hpp): a static randomizer picks the region,
  // whose write counter fires one gap movement every ψ writes.
  static constexpr bool kDomainCounters = true;
  static constexpr bool kStaticOuter = true;
  static constexpr Fold kFold = Fold::kUniform;
  [[nodiscard]] Loc locate(u64 la) const {
    const u64 ia = randomize(la);
    return {place(ia), ia / cfg_.region_lines(), ia};
  }
  [[nodiscard]] Pa place(u64 ia) const {
    const u64 m = cfg_.region_lines();
    return Pa{region_base(ia / m) + sg_[ia / m].translate(ia % m)};
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
  [[nodiscard]] u64 region_base(u64 q) const { return q * (cfg_.region_lines() + 1); }

  RbsgConfig cfg_;
  std::unique_ptr<mapping::AddressMapper> mapper_;  ///< null = identity
  std::vector<StartGapRegion> sg_;
  std::vector<u64> counter_;
};

}  // namespace srbsg::wl
