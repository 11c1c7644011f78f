#pragma once
// Dynamic Feistel Network (DFN) outer-level mapping — the paper's core
// contribution (§IV.B, Figs. 8-10).
//
// LA→IA is a keyed permutation whose keys are re-randomized every
// remapping round, so a timing attacker never has enough writes to
// recover them before they change. One extra spare line (IA index N)
// plus a Gap register enable incremental migration of the whole address
// space from the previous permutation (ENC_Kp) to the current one
// (ENC_Kc); a per-line isRemap bit selects which one translates each LA.
// A live LA→IA map caches that rule: each movement updates the one entry
// it moves, so translation and the walk itself read the map instead of
// evaluating a permutation per write. From the second round on, a table
// of DEC_Kc, filled once per key draw, likewise answers the walk's
// per-movement inverse.
//
// The permutation family is pluggable: the paper's multi-stage Feistel
// network with the cubing round function (kCubingFeistel) or an explicit
// uniform random permutation table (kTablePrp) — the latter is a
// hardware-unrealistic ablation upper bound quantifying how much wear
// uniformity the cubing round's weak diffusion costs.
//
// The paper walks a single permutation cycle starting at slot 0 (Fig. 9).
// A random key pair generally induces *multiple* cycles in
// ENC_Kp ∘ DEC_Kc, so this implementation generalizes the flowchart: when
// a cycle closes (the spare's content returns to the gap), the next slot
// whose resident has not been remapped is evicted to the spare and its
// cycle is walked, until every line has been remapped. Each advance()
// performs exactly one line copy; a round therefore takes N + (#cycles)
// movements, which is N + 1 in the paper's single-cycle illustration.

#include <memory>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mapping/mapper.hpp"

namespace srbsg::wl {

enum class OuterPrpKind : u8 {
  kCubingFeistel,  ///< the paper's design
  kTablePrp,       ///< ideal-randomizer ablation
};

class DynamicFeistelOuter {
 public:
  /// Address space of 2^width_bits lines; `stages` Feistel stages
  /// (ignored for kTablePrp).
  DynamicFeistelOuter(u32 width_bits, u32 stages, Rng rng,
                      OuterPrpKind kind = OuterPrpKind::kCubingFeistel);

  [[nodiscard]] u64 lines() const { return u64{1} << width_; }
  /// IA index of the spare line.
  [[nodiscard]] u64 spare_ia() const { return lines(); }
  [[nodiscard]] u32 stages() const { return stages_; }
  [[nodiscard]] OuterPrpKind prp_kind() const { return kind_; }

  /// Current IA of `la`, in [0, N] (N = spare, while `la`'s data is
  /// parked there mid-round). Reads the live map; a line no movement has
  /// touched since boot takes the isRemap rule (rule_ia()).
  [[nodiscard]] u64 translate(u64 la) const {
    check(la < lines(), "DynamicFeistelOuter: address out of range");
    return current_ia(la);
  }

  /// One remapping movement: the owner must copy the data of IA slot
  /// `from` into IA slot `to` (either may be the spare index N).
  struct Movement {
    u64 from;
    u64 to;
  };
  Movement advance();

  /// Movements executed so far in the current round (0 between rounds).
  [[nodiscard]] u64 round_movements() const { return round_movements_; }
  /// Logical lines already remapped to the current keys this round.
  [[nodiscard]] u64 remapped_count() const { return remapped_; }
  /// True when no round is in progress (all lines under one key array).
  [[nodiscard]] bool round_idle() const { return phase_ == Phase::kIdle; }
  /// Rounds completed since construction.
  [[nodiscard]] u64 rounds_completed() const { return rounds_completed_; }

  /// Full consistency audit of the DFN state machine: Gap/scan bounds,
  /// isRemap population vs. the remapped counter, spare-holder/phase
  /// agreement, every live-map entry vs. the isRemap rule, a filled
  /// DEC_Kc table vs. the network, and (for widths small enough to
  /// enumerate) bijectivity of both key epochs' permutations. Throws
  /// CheckFailure on violation.
  void validate() const;

 private:
  enum class Phase : u8 {
    kIdle,          ///< between rounds; next advance starts a round
    kInCycle,       ///< walking a cycle; gap_ is the empty slot
    kNeedNewCycle,  ///< cycle closed but lines remain; next advance evicts
  };

  /// Live-map entry of a line no movement has touched since boot.
  static constexpr u32 kUnmoved = ~u32{0};

  [[nodiscard]] std::unique_ptr<mapping::AddressMapper> make_prp(u64 seed) const;
  /// The paper's translation rule: the spare for the parked line, else
  /// isRemap ? ENC_Kc(la) : ENC_Kp(la). The reference the live map caches.
  [[nodiscard]] u64 rule_ia(u64 la) const;
  /// translate() without the range check.
  [[nodiscard]] u64 current_ia(u64 la) const {
    const u32 ia = ia_of_[la];
    return ia != kUnmoved ? ia : rule_ia(la);
  }
  /// Records that `la` now occupies `ia` (at most N <= 2^28: fits u32).
  void place(u64 la, u64 ia) { ia_of_[la] = checked_narrow<u32>(ia); }
  /// DEC_Kc(slot): the LA the current keys place at `slot`.
  [[nodiscard]] u64 dec_c(u64 slot) const {
    return dec_c_filled_ ? dec_c_[slot] : enc_c_->unmap(slot);
  }
  void begin_round();
  [[nodiscard]] u64 next_unremapped_slot();

  u32 width_;
  u32 stages_;
  OuterPrpKind kind_;
  Rng rng_;
  std::unique_ptr<mapping::AddressMapper> enc_p_;
  std::unique_ptr<mapping::AddressMapper> enc_c_;
  std::vector<bool> is_remap_;
  /// Mirror of is_remap_ indexed by ENC_Kp slot instead of LA, so the
  /// next-unremapped scan advances without a DEC_Kp evaluation per
  /// probed slot.
  std::vector<bool> slot_remapped_;
  /// Live LA→IA map: the IA each LA occupies now, kUnmoved until its
  /// first movement since boot. Every line moves once per round, so after
  /// the first round the map answers every translation.
  std::vector<u32> ia_of_;
  /// DEC_Kc as a table. Allocated with the live map, and filled only
  /// when a round begins after a completed one: that round is the sign
  /// the run is long enough to amortize an O(N) fill. Round 1 evaluates
  /// the network directly.
  std::vector<u32> dec_c_;
  bool dec_c_filled_{false};
  Phase phase_{Phase::kIdle};
  u64 gap_{0};                       ///< empty IA slot while kInCycle
  u64 cycle_start_{0};               ///< slot evicted into the spare
  std::optional<u64> spare_holder_;  ///< LA whose data sits in the spare
  u64 scan_{0};                      ///< next-unremapped scan pointer
  u64 remapped_{0};
  u64 round_movements_{0};
  u64 rounds_completed_{0};
};

}  // namespace srbsg::wl
