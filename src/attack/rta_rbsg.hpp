#pragma once
// Remapping Timing Attack against Region-Based Start-Gap (paper §III.B).
//
// The attacker knows the public configuration (N lines, R regions,
// remapping interval ψ, endurance E) but not the static randomizer. It
// learns everything else from per-request latencies:
//
//  1. Blanket: write ALL-0 everywhere (every line becomes RESET-fast).
//  2. Align:   hammer the target LA with ALL-1 until a remap stall of
//              read+SET (1125 ns) appears — that movement migrated the
//              target's own line, so the gap is now exactly one slot
//              below it. From here on, the attacker mirrors the region's
//              gap position arithmetically: every in-region write is its
//              own, and a full pattern pass puts exactly M = N/R writes
//              into the region (the randomizer is a bijection).
//  3. Detect:  for every address bit j, write a pattern (bit j of LA
//              selects ALL-0 vs ALL-1) to the whole space, then hammer
//              the target and read bit j of each physically-adjacent
//              predecessor Li−k = f⁻¹(f(Li)−k) from the stall of its
//              migration (250 ns ⇒ 0, 1125 ns ⇒ 1).
//  4. Wear:    rotate the region with its own writes, always hammering
//              the LA currently resident on the pinned physical slot —
//              the slot absorbs ~M·ψ writes per rotation and dies after
//              ⌈E/(M·ψ)⌉ rotations.
//
// Movements consumed by the pattern passes are "burned": their stalls
// cannot be attributed, so the affected bits are simply re-read one
// rotation later (the detection loop allows up to two rotations per bit).

#include <string>
#include <vector>

#include "attack/attacker.hpp"
#include "attack/pattern_writer.hpp"

namespace srbsg::attack {

struct RtaRbsgParams {
  u64 lines{0};      ///< N
  u64 regions{0};    ///< R
  u64 interval{0};   ///< ψ
  u64 endurance{0};  ///< E (used to size the predecessor sequence)
  La target{0};      ///< Li, the logical address anchoring the attack
};

class RtaRbsgAttacker final : public Attacker {
 public:
  explicit RtaRbsgAttacker(const RtaRbsgParams& p);

  [[nodiscard]] std::string_view name() const override { return "RTA"; }
  void run(ctl::MemoryController& mc, u64 write_budget) override;
  [[nodiscard]] std::string detail() const override { return notes_; }

  /// Detected predecessor logical addresses; element k-1 is Li−k.
  /// Populated after run() finishes the detection phase.
  [[nodiscard]] const std::vector<u64>& detected_sequence() const { return detected_; }

 private:
  /// One write through the controller with budget/failure accounting.
  wl::WriteOutcome issue(ctl::MemoryController& mc, La la, const pcm::LineData& data);
  [[nodiscard]] bool exhausted(const ctl::MemoryController& mc) const;

  /// Advance the attacker's mirror of the region state by one movement;
  /// returns the adjacency index k (Li−k) of the line that moved.
  u64 ring_advance();

  RtaRbsgParams p_;
  PatternWriter writer_;
  u64 budget_{0};
  u64 issued_{0};

  // Mirrored region state (valid after alignment).
  std::vector<u32> ring_;  ///< slot → adjacency index k (slot gap_ is stale)
  u64 gap_slot_{0};
  u64 counter_{0};  ///< in-region writes since the last movement

  std::vector<u64> detected_;
  std::string notes_;
};

}  // namespace srbsg::attack
