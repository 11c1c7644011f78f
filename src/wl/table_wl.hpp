#pragma once
// Table-based wear leveling (§II.A background family, e.g. Zhou et al.
// ISCA'09): an indirection table maps every LA to a PA and a per-line
// write counter drives periodic hot↔cold swaps. The paper dismisses the
// family for two reasons this implementation makes measurable:
//   * cost — a full map plus counters (N·B bits of table state vs a few
//     registers for algebraic schemes), and a swap that needs two line
//     writes;
//   * security — the remapping is *deterministic* given the write
//     counts, so an attacker who knows the algorithm can predict exactly
//     where a hot line goes (no key material at all).
//
// Mechanism (Zhou et al. style): every `interval` writes, the hottest
// line (by residual wear since its last swap) is swapped with the
// coldest line (by total lifetime wear); residuals reset at the swap.

#include <vector>

#include "common/check.hpp"
#include "wl/engine.hpp"

namespace srbsg::wl {

struct TableWlConfig {
  u64 lines{1u << 16};
  u64 interval{100};  ///< writes between hot/cold swaps
  void validate() const;
};

class TableWearLeveling final : public BulkEngine<TableWearLeveling> {
 public:
  explicit TableWearLeveling(const TableWlConfig& cfg);

  [[nodiscard]] std::string_view name() const override { return "table"; }
  [[nodiscard]] u64 logical_lines() const override { return cfg_.lines; }
  [[nodiscard]] u64 physical_lines() const override { return cfg_.lines; }

  /// The LA→PA and PA→LA tables must stay mutually inverse permutations;
  /// per-line residual counters can never exceed lifetime totals.
  void validate_state() const override;
  /// Table WL movements are hot/cold swaps: two line writes each.
  [[nodiscard]] u32 writes_per_movement() const override { return 2; }

  [[nodiscard]] u64 effective_interval() const { return boosted(cfg_.interval); }

  /// The determinism the paper criticizes: given the same write sequence,
  /// the next swap pair is fully predictable (exposed for the tests that
  /// demonstrate the weakness).
  struct SwapPrediction {
    u64 hot_pa;
    u64 cold_pa;
  };
  [[nodiscard]] SwapPrediction predict_next_swap() const;

 private:
  friend class BulkEngine<TableWearLeveling>;

  // Remapping rule (wl/engine.hpp): every ψ writes to the bank swap the
  // hottest line with the coldest one.
  static constexpr bool kGlobalCounter = true;
  [[nodiscard]] Loc locate(u64 la) const { return {Pa{la_to_pa_[la]}}; }
  [[nodiscard]] u64& global_counter() { return counter_; }
  [[nodiscard]] u64 global_interval() const { return effective_interval(); }
  /// The scheme's own wear view advances with every data write.
  void note_data_writes(Pa pa, u64 writes) {
    residual_[pa.value()] += writes;
    total_[pa.value()] += writes;
  }
  /// One hot/cold swap (0 latency when hot == cold).
  Ns fire_global(pcm::PcmBank& bank, u64& moved);

  TableWlConfig cfg_;
  std::vector<u64> la_to_pa_;
  std::vector<u64> pa_to_la_;
  std::vector<u64> residual_;  ///< writes since the line's last swap (by PA)
  std::vector<u64> total_;     ///< lifetime writes per PA (scheme's own view)
  u64 counter_{0};
};

}  // namespace srbsg::wl
