#pragma once
// The Security Refresh primitive (Seong et al., ISCA'10; paper §III.C,
// Fig. 5): addresses in a 2^width region are remapped by XOR with a
// per-round random key. The Current Refresh Pointer (CRP) walks the
// region; remapping LA c swaps the physical slots c⊕key_p and c⊕key_c,
// which simultaneously remaps c's pair (c ⊕ key_c ⊕ key_p). When the CRP
// wraps, key_p ← key_c and a fresh key_c is drawn.
//
// Pure bookkeeping in region-local slot space; owners perform the swaps.

#include <algorithm>
#include <optional>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace srbsg::wl {

class SecurityRefreshRegion {
 public:
  /// Region of 2^width_bits lines; keys are drawn from `rng`.
  SecurityRefreshRegion(u32 width_bits, Rng rng);

  [[nodiscard]] u64 lines() const { return u64{1} << width_; }
  [[nodiscard]] u64 crp() const { return crp_; }
  [[nodiscard]] u64 key_c() const { return kc_; }
  [[nodiscard]] u64 key_p() const { return kp_; }

  /// Pair address: remapping `la` also remaps pair_of(la) (§III.D).
  [[nodiscard]] u64 pair_of(u64 la) const { return la ^ kc_ ^ kp_; }

  /// Has `la` been remapped in the current round?
  [[nodiscard]] bool refreshed(u64 la) const {
    // LA c is processed when the CRP passes min(c, pair(c)): the swap at
    // the smaller of the two remaps both.
    const u64 p = pair_of(la);
    return std::min(la, p) < crp_;
  }

  /// Current slot of `la` within the region.
  [[nodiscard]] u64 translate(u64 la) const {
    check(la <= mask_, "SecurityRefreshRegion: address out of range");
    return la ^ (refreshed(la) ? kc_ : kp_);
  }

  /// One refresh step (one CRP advance). Returns the pair of slots whose
  /// contents the owner must swap, or nullopt when the candidate was
  /// already remapped earlier in the round (CRP simply increments).
  struct SwapSlots {
    u64 a;
    u64 b;
  };
  std::optional<SwapSlots> advance();

  /// Epoch-engine aggregate: `steps` consecutive advance() calls folded
  /// into one sweep, invoking `fn(slot_a, slot_b)` for each step whose
  /// swap fires. Requires crp() + steps <= lines() — round rekeys consume
  /// RNG draws and must replay through advance(). Returns the number of
  /// swaps fired. Also requires crp() < lines() (a round is in progress);
  /// with steps == 0 this is a no-op.
  template <typename Fn>
  u64 advance_steps(u64 steps, Fn&& fn) {
    SRBSG_DCHECK(crp_ < lines() && steps <= lines() - crp_,
                 "SecurityRefreshRegion: aggregate sweep crosses a round boundary");
    if (kp_ == kc_) {
      // Identity round: no candidate fires, the CRP just walks forward.
      crp_ += steps;
      return 0;
    }
    // A swap fires at candidate c iff pair_of(c) > c, i.e. the top set bit
    // of kp^kc is clear in c (XOR with the key difference flips that bit).
    const u64 h = top_bit(kp_ ^ kc_);
    const u64 end = crp_ + steps;
    u64 fired = 0;
    for (u64 c = crp_; c < end; ++c) {
      if ((c & h) != 0) continue;
      fn(c ^ kp_, c ^ kc_);
      ++fired;
    }
    crp_ = end;
    return fired;
  }

  /// translate() as it will read once the CRP has advanced to `crp`
  /// within the *current* round (same keys). Lets the epoch engines
  /// resolve a slot at a future step of an aggregated sweep without
  /// mutating the region. `crp` in [crp(), lines()].
  [[nodiscard]] u64 translate_at(u64 la, u64 crp) const {
    const u64 p = la ^ kc_ ^ kp_;
    return la ^ ((p < la ? p : la) < crp ? kc_ : kp_);
  }

  /// First candidate >= crp() whose swap would touch slot `slot`, or
  /// lines() when no remaining step of this round touches it (its
  /// resident already swapped, or only the round wrap affects it).
  [[nodiscard]] u64 next_touch(u64 slot) const {
    if (kp_ == kc_) return lines();
    const u64 h = top_bit(kp_ ^ kc_);
    u64 best = lines();
    for (const u64 c : {slot ^ kp_, slot ^ kc_}) {
      if (c >= crp_ && (c & h) == 0 && c < best) best = c;
    }
    return best;
  }

  /// Register-bound invariants (CRP in [0, lines], keys within the region
  /// mask); throws CheckFailure on violation. Audit hook.
  void validate() const;

 private:
  void maybe_begin_round();

  u32 width_;
  u64 mask_;
  Rng rng_;
  u64 kp_;
  u64 kc_;
  u64 crp_;  ///< in [0, lines]; lines = round boundary
};

}  // namespace srbsg::wl
