#pragma once
// Remapping Timing Attack against one-level Security Refresh (paper
// §III.D).
//
// SR remaps by XOR with a per-round key, so one observed swap stall leaks
// one bit of (key_c ⊕ key_p):  the swap at CRP = c exchanges the lines of
// c and pair(c) = c ⊕ K;  with memory patterned by bit j of the LA, the
// stall is 500/2250 ns when bit j of c equals bit j of pair(c) (K_j = 0)
// and 1375 ns when they differ (K_j = 1).
//
// Phases:
//  1. Blanket ALL-0; hammer LA 0 with ALL-1 until the 1375 ns stall of
//     LA 0's own swap appears — that swap is the *first* step of every
//     round (min(0, pair(0)) = 0), so the round start and the CRP are now
//     known and tracked arithmetically (every ψ writes advance one step).
//  2. For each address bit j: re-pattern the changed half of the space
//     (N/2 writes), hammer LA 0 with ALL-0 and classify the next clean
//     swap stall.
//  3. Wear-out: hammer the LA currently pointing at the pinned physical
//     slot; when the CRP passes min(la, la ⊕ K), the slot's new owner is
//     la ⊕ K; at every round wrap, re-detect K and continue.

#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/pattern_writer.hpp"

namespace srbsg::attack {

struct RtaSr1Params {
  u64 lines{0};      ///< N (single region)
  u64 interval{0};   ///< ψ
  u64 endurance{0};  ///< E (informational)
  La target{0};      ///< LA whose boot-time physical slot gets worn out
};

class RtaSr1Attacker final : public Attacker {
 public:
  explicit RtaSr1Attacker(const RtaSr1Params& p);

  [[nodiscard]] std::string_view name() const override { return "RTA"; }
  void run(ctl::MemoryController& mc, u64 write_budget) override;
  [[nodiscard]] std::string detail() const override { return notes_; }

  /// K = key_c ⊕ key_p detected in the most recent completed detection.
  [[nodiscard]] u64 detected_key() const { return detected_key_; }
  [[nodiscard]] u64 rounds_attacked() const { return rounds_attacked_; }

 private:
  wl::WriteOutcome issue(ctl::MemoryController& mc, La la, const pcm::LineData& data);
  /// Accounts `writes` applied writes in the budget and the CRP mirror.
  void bulk_account(u64 writes);
  [[nodiscard]] bool exhausted(const ctl::MemoryController& mc) const;

  /// Detects all bits of K; assumes the CRP is early in a round. Returns
  /// false if the round wrapped mid-detection (caller restarts).
  bool detect_key(ctl::MemoryController& mc, u32 bits, u64* key_out);

  /// Advances to CRP step `target` with bulk ALL-0 writes to LA 0.
  void bulk_to_step(ctl::MemoryController& mc, u64 target);

  /// Waits for the next swap stall before `wrap`. Swap steps form blocks
  /// (step c swaps iff bit_msb(K) of c is 0), so after a short probe the
  /// attacker jumps to successive power-of-two step boundaries instead of
  /// grinding through a skip-only block. Returns false if the round ends
  /// first.
  bool wait_for_swap(ctl::MemoryController& mc, u64 wrap, Ns* stall_out);

  RtaSr1Params p_;
  u64 budget_{0};
  u64 issued_{0};

  // Mirrored SR state (valid after alignment).
  u64 counter_{0};  ///< writes since the last CRP step
  u64 crp_{0};

  std::vector<u8> shadow_;  ///< last data class written per LA (0/1)
  PatternWriter writer_;
  u64 detected_key_{0};
  u64 rounds_attacked_{0};
  std::string notes_;
};

}  // namespace srbsg::attack
