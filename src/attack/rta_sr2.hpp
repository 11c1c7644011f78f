#pragma once
// Remapping Timing Attack against two-level Security Refresh (paper
// §III.E).
//
// Detecting both levels' keys every round costs more writes than a round
// contains, so the practical attack tracks only the *outer* key's high
// log2(R) bits: they determine which logical addresses currently map into
// the target sub-region. Each outer round the attacker
//   1. re-detects the high bits of K_out = kc ⊕ kp from outer-swap stalls
//      (same ALL-0/ALL-1 patterning oracle as the one-level attack), and
//   2. hammers the N/R logical addresses of the target sub-region
//      round-robin, wearing the whole sub-region uniformly until some
//      line in it dies.
//
// Outer steps fire every ψ_out writes counted from boot, and the attacker
// is the only writer (compromised OS), so the outer schedule is mirrored
// arithmetically; the timing channel is needed only to read key bits.
// Stalls from inner refreshes that happen to land on an outer boundary
// are filtered by value (coincidence sums fall outside {500,1375,2250})
// and by a 3-sample majority vote.
//
// The target sub-region is the one holding the high-bits-zero LA block at
// boot: S_0 = { la : high(la) = 0 }, and S_{r+1} = S_r ⊕ high(K_{r+1})
// — no knowledge of the boot key is needed.

#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/pattern_writer.hpp"

namespace srbsg::attack {

struct RtaSr2Params {
  u64 lines{0};           ///< N
  u64 sub_regions{0};     ///< R
  u64 inner_interval{0};  ///< ψ_in (informational; used for chunk sizing)
  u64 outer_interval{0};  ///< ψ_out
  u64 endurance{0};       ///< E (informational)
};

class RtaSr2Attacker final : public Attacker {
 public:
  explicit RtaSr2Attacker(const RtaSr2Params& p);

  [[nodiscard]] std::string_view name() const override { return "RTA"; }
  void run(ctl::MemoryController& mc, u64 write_budget) override;
  [[nodiscard]] std::string detail() const override { return notes_; }

  /// High-bit prefix of the LA block currently targeted (for tests).
  [[nodiscard]] u64 current_prefix() const { return prefix_; }
  [[nodiscard]] u64 rounds_attacked() const { return rounds_attacked_; }

 private:
  wl::WriteOutcome issue(ctl::MemoryController& mc, La la, const pcm::LineData& data);
  /// Accounts `writes` applied writes in the budget and the outer-step
  /// mirror.
  void bulk_account(u64 writes);
  [[nodiscard]] bool exhausted(const ctl::MemoryController& mc) const;
  [[nodiscard]] u64 outer_wrap_step() const;

  /// Detects the high log2(R) bits of K_out for the current round;
  /// returns false when the round wrapped mid-detection.
  bool detect_high_key(ctl::MemoryController& mc, u64* key_high_out);

  RtaSr2Params p_;
  u64 budget_{0};
  u64 issued_{0};

  // Mirrored outer schedule (exact from boot).
  u64 counter_{0};  ///< writes since the last outer step
  u64 steps_{0};    ///< outer steps completed

  std::vector<u8> shadow_;  ///< last data class written per LA (0/1)
  PatternWriter writer_;
  u64 prefix_{0};  ///< high-bit prefix of the targeted LA block
  u64 rounds_attacked_{0};
  std::string notes_;
};

}  // namespace srbsg::attack
