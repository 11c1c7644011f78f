#include "wl/security_refresh_region.hpp"

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::wl {

SecurityRefreshRegion::SecurityRefreshRegion(u32 width_bits, Rng rng)
    : width_(width_bits), mask_(low_mask(width_bits)), rng_(rng) {
  check(width_bits >= 1 && width_bits <= 40, "SecurityRefreshRegion: width out of range");
  // Boot state: everything is mapped with a single key; the first advance
  // starts the first real remapping round (paper Fig. 5(a)→(b)).
  kp_ = rng_.next() & mask_;
  kc_ = kp_;
  crp_ = lines();
}

void SecurityRefreshRegion::maybe_begin_round() {
  if (crp_ == lines()) {
    kp_ = kc_;
    kc_ = rng_.next() & mask_;
    crp_ = 0;
  }
}

std::optional<SecurityRefreshRegion::SwapSlots> SecurityRefreshRegion::advance() {
  maybe_begin_round();
  const u64 c = crp_;
  ++crp_;
  const u64 p = pair_of(c);
  if (p > c) {
    // Swapping slots c⊕kp and c⊕kc moves both c and its pair to their
    // new-round locations in one movement.
    return SwapSlots{c ^ kp_, c ^ kc_};
  }
  // p < c: already swapped when the CRP passed p. p == c: the round key
  // difference is zero — the identity round needs no data movement.
  return std::nullopt;
}

void SecurityRefreshRegion::validate() const {
  check_le(crp_, lines(), "SecurityRefreshRegion: CRP out of bounds");
  check_le(kp_, mask_, "SecurityRefreshRegion: previous key exceeds region mask");
  check_le(kc_, mask_, "SecurityRefreshRegion: current key exceeds region mask");
}

}  // namespace srbsg::wl
