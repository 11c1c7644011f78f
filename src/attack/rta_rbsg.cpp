#include "attack/rta_rbsg.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::attack {

using pcm::DataClass;
using pcm::LineData;

RtaRbsgAttacker::RtaRbsgAttacker(const RtaRbsgParams& p) : p_(p), writer_(p.lines) {
  check(p.lines > 0 && is_pow2(p.lines), "RtaRbsg: lines must be a power of two");
  check(p.regions > 0 && p.lines % p.regions == 0, "RtaRbsg: regions must divide lines");
  check(p.interval > 0 && p.endurance > 0, "RtaRbsg: bad interval/endurance");
  check(p.target.value() < p.lines, "RtaRbsg: target out of range");
}

bool RtaRbsgAttacker::exhausted(const ctl::MemoryController& mc) const {
  return mc.failed() || issued_ >= budget_;
}

wl::WriteOutcome RtaRbsgAttacker::issue(ctl::MemoryController& mc, La la,
                                        const LineData& data) {
  const auto out = mc.write(la, data);
  ++issued_;
  return out;
}

u64 RtaRbsgAttacker::ring_advance() {
  const u64 slots = ring_.size();
  const u64 from = gap_slot_ == 0 ? slots - 1 : gap_slot_ - 1;
  const u64 moved = ring_[from];
  ring_[gap_slot_] = static_cast<u32>(moved);
  gap_slot_ = from;
  return moved;
}

void RtaRbsgAttacker::run(ctl::MemoryController& mc, u64 write_budget) {
  budget_ = write_budget;
  issued_ = 0;
  notes_.clear();
  detected_.clear();

  const u64 n = p_.lines;
  const u64 m = n / p_.regions;  // lines per region
  const u64 psi = p_.interval;
  const u32 bits = log2_floor(n);
  const auto& cfg = mc.bank().config();
  const Ns stall_zero = pcm::move_latency(cfg, DataClass::kAllZero);
  const Ns stall_one = pcm::move_latency(cfg, DataClass::kAllOne);

  // ---- Phase 1: blanket ALL-0 (Step 1) --------------------------------
  issued_ += writer_.pass(mc, 0, budget_ - issued_, {});
  const u64 blanket_writes = issued_;

  // ---- Phase 2: alignment (Steps 2-3) ---------------------------------
  // Hammer the target with ALL-1; the unique read+SET stall marks the
  // migration of the target's own line. Any observed stall also resets
  // the mirrored write counter (a movement just fired).
  bool aligned = false;
  const u64 align_cap = (m + 2) * psi + 1;
  for (u64 t = 0; t < align_cap && !exhausted(mc); ++t) {
    const auto out = issue(mc, p_.target, LineData::all_one());
    if (out.movements > 0) {
      counter_ = 0;
      if (out.stall == stall_one) {
        aligned = true;
        break;
      }
    } else {
      ++counter_;
    }
  }
  if (!aligned) {
    notes_ = "alignment failed";
    return;
  }
  // The target just moved one slot up; the gap sits directly below it.
  // Relative coordinates: target at slot 0, gap at slot M, and the single
  // gap guarantees slots M-1..1 hold Li−1..Li−(M−1) in IA order.
  ring_.assign(m + 1, 0);
  gap_slot_ = m;
  for (u64 k = 1; k < m; ++k) ring_[m - k] = static_cast<u32>(k);
  const u64 align_writes = issued_ - blanket_writes;

  // ---- Phase 3: bit detection (Steps 4-6) ------------------------------
  // Two extra predecessors of margin: window-edge writes occasionally
  // land off the pinned slot, so the kill can take a round or two longer
  // than the ideal E/(M·ψ) estimate.
  const u64 rounds_needed = ceil_div(p_.endurance, m * psi) + 2;
  const u64 n_detect = std::min<u64>(rounds_needed, m - 1);
  std::vector<u64> la_bits(n_detect + 1, 0);
  std::vector<bool> seen(n_detect + 1, false);

  for (u32 j = 0; j < bits && !exhausted(mc); ++j) {
    // Pattern pass: bit j of the LA chooses ALL-0 / ALL-1.
    issued_ += writer_.pass(mc, u64{1} << j, budget_ - issued_, {});
    // Exactly M of those writes landed in the target's region; movements
    // fired during the pass are burned (observed but unattributable).
    const u64 total = counter_ + m;
    for (u64 b = 0; b < total / psi; ++b) ring_advance();
    counter_ = total % psi;

    // Hammer the target (with its own pattern value, keeping its line
    // consistent) and read bit j of each predecessor from its migration
    // stall. Up to two rotations: bits burned by the pass come around
    // again one rotation later.
    std::fill(seen.begin(), seen.end(), false);
    const LineData hammer =
        bit_of(p_.target.value(), j) ? LineData::all_one() : LineData::all_zero();
    u64 collected = 0;
    const u64 guard = 2 * (m + 1) * psi;
    for (u64 t = 0; t < guard && collected < n_detect && !exhausted(mc); ++t) {
      const auto out = issue(mc, p_.target, hammer);
      if (out.movements > 0) {
        counter_ = 0;
        const u64 k = ring_advance();
        if (k >= 1 && k <= n_detect && !seen[k]) {
          seen[k] = true;
          ++collected;
          if (out.stall == stall_one) {
            la_bits[k] |= u64{1} << j;
          } else {
            check(out.stall == stall_zero, "RtaRbsg: unexpected stall value");
          }
        }
      } else {
        ++counter_;
      }
    }
  }
  const u64 detect_writes = issued_ - blanket_writes - align_writes;

  detected_.assign(n_detect, 0);
  for (u64 k = 1; k <= n_detect; ++k) detected_[k - 1] = la_bits[k];

  // ---- Phase 4: wear-out ----------------------------------------------
  // Pin the slot the target LA occupies RIGHT NOW: from here on its
  // residents are exactly Li, Li−1, Li−2, … — the detected sequence —
  // regardless of how many rotations the detection consumed. All writes
  // are in-region, so the mirrored state advances in lock-step with the
  // real gap.
  const u64 slots = m + 1;
  u64 pinned = slots;  // slot currently holding the target's line
  for (u64 i = 0; i < slots; ++i) {
    if (ring_[i] == 0 && i != gap_slot_) {
      pinned = i;
      break;
    }
  }
  check(pinned < slots, "RtaRbsg: lost track of the target line");
  u64 fallback_windows = 0;
  while (!exhausted(mc)) {
    // Resident of the pinned slot (or, if it is currently the gap, the
    // line about to arrive from the slot below).
    const u64 below = (pinned + slots - 1) % slots;
    const u64 resident = gap_slot_ == pinned ? ring_[below] : ring_[pinned];
    u64 la;
    if (resident == 0) {
      la = p_.target.value();
    } else if (resident <= n_detect) {
      la = detected_[resident - 1];
    } else {
      // Sequence shorter than the rotation demands; hammer the target as
      // a fallback (wears a different slot this window).
      la = p_.target.value();
      ++fallback_windows;
    }
    // Hammer until the successor arrives at the pinned slot: that is the
    // movement executed when the gap reaches it.
    const u64 until_arrival = (gap_slot_ + slots - pinned) % slots + 1;
    const u64 writes_needed = until_arrival * psi - counter_;
    const u64 chunk = std::min(writes_needed, budget_ - issued_);
    const La hammer_la[] = {La{la}};
    const auto out = mc.write_cycle(hammer_la, LineData::all_zero(), chunk);
    issued_ += out.writes_applied;
    if (out.writes_applied == 0) break;
    const u64 tot = counter_ + out.writes_applied;
    for (u64 b = 0; b < tot / psi; ++b) ring_advance();
    counter_ = tot % psi;
  }

  notes_ = "blanket=" + std::to_string(blanket_writes) +
           " align=" + std::to_string(align_writes) +
           " detect=" + std::to_string(detect_writes) +
           " seq_len=" + std::to_string(n_detect) +
           " fallback_windows=" + std::to_string(fallback_windows);
}

}  // namespace srbsg::attack
