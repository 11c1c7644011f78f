#include "wl/dfn.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mapping/feistel.hpp"
#include "mapping/quality.hpp"
#include "mapping/table_mapper.hpp"

namespace srbsg::wl {

std::unique_ptr<mapping::AddressMapper> DynamicFeistelOuter::make_prp(u64 seed) const {
  Rng rng(seed);
  switch (kind_) {
    case OuterPrpKind::kCubingFeistel: {
      const auto keys = mapping::FeistelNetwork::random_keys(width_, stages_, rng);
      return std::make_unique<mapping::FeistelNetwork>(width_, keys);
    }
    case OuterPrpKind::kTablePrp:
      return std::make_unique<mapping::TableMapper>(width_, rng);
  }
  throw CheckFailure("DynamicFeistelOuter: unhandled PRP kind");
}

DynamicFeistelOuter::DynamicFeistelOuter(u32 width_bits, u32 stages, Rng rng,
                                         OuterPrpKind kind)
    : width_(width_bits), stages_(stages), kind_(kind), rng_(rng) {
  check(width_bits >= 2 && width_bits <= 28, "DynamicFeistelOuter: width out of range");
  check(stages >= 1, "DynamicFeistelOuter: need at least one stage");
  // Boot: both epochs use the same permutation, everything consistently
  // mapped, all lines counted as remapped so the first advance starts a
  // fresh round.
  const u64 seed0 = rng_.next();
  enc_p_ = make_prp(seed0);
  enc_c_ = make_prp(seed0);
  is_remap_.assign(lines(), true);
  slot_remapped_.assign(lines(), true);
  // The map fills as lines move; until then the rule answers, so boot
  // evaluates no permutation. The DEC_Kc table is allocated here, so its
  // fills in mid-run allocate nothing; only begin_round() fills it.
  ia_of_.assign(lines(), kUnmoved);
  dec_c_.assign(lines(), 0);
  remapped_ = lines();
}

u64 DynamicFeistelOuter::rule_ia(u64 la) const {
  if (spare_holder_ && *spare_holder_ == la) return spare_ia();
  return is_remap_[la] ? enc_c_->map(la) : enc_p_->map(la);
}

// A new round changes no line's IA (ENC_Kp becomes the old ENC_Kc, under
// which every line was remapped), so the live map carries over as is.
void DynamicFeistelOuter::begin_round() {
  enc_p_ = std::move(enc_c_);
  enc_c_ = make_prp(rng_.next());
  dec_c_filled_ = rounds_completed_ > 0;
  if (dec_c_filled_) enc_c_->unmap_all(dec_c_);
  is_remap_.assign(lines(), false);
  slot_remapped_.assign(lines(), false);
  remapped_ = 0;
  scan_ = 0;
}

u64 DynamicFeistelOuter::next_unremapped_slot() {
  // Scan slots in order (the paper starts at slot 0); a slot still holds
  // its previous-round resident DEC_Kp(slot) iff that LA has not been
  // remapped yet, which makes it a valid next cycle start. Scanning by
  // slot keeps the evicted LA key-dependent — scanning by LA would park
  // the same logical line on the (un-leveled) spare every single round.
  // The slot-indexed mirror spares the scan a DEC_Kp per probed slot.
  while (scan_ < lines() && slot_remapped_[scan_]) ++scan_;
  check(scan_ < lines(), "DynamicFeistelOuter: no unremapped slot left");
  return scan_;
}

DynamicFeistelOuter::Movement DynamicFeistelOuter::advance() {
  if (phase_ == Phase::kIdle) {
    begin_round();
    round_movements_ = 0;
  }
  ++round_movements_;
  if (phase_ == Phase::kIdle || phase_ == Phase::kNeedNewCycle) {
    phase_ = Phase::kInCycle;
    // Open a cycle: evict the first slot whose resident has not been
    // remapped yet into the spare.
    const u64 slot = next_unremapped_slot();
    const u64 la = enc_p_->unmap(slot);
    spare_holder_ = la;
    place(la, spare_ia());
    cycle_start_ = slot;
    gap_ = slot;
    return Movement{slot, spare_ia()};
  }

  // In-cycle movement (Fig. 9): the LA that belongs at the gap under the
  // current keys moves in; its old slot becomes the new gap.
  const u64 loc = dec_c(gap_);
  const u64 old_gap = gap_;
  if (spare_holder_ && *spare_holder_ == loc) {
    // Cycle closes: loc's data was parked in the spare at eviction time
    // (its old ENC_Kp slot is the cycle start).
    spare_holder_.reset();
    is_remap_[loc] = true;
    slot_remapped_[cycle_start_] = true;
    place(loc, old_gap);
    ++remapped_;
    if (remapped_ == lines()) {
      phase_ = Phase::kIdle;
      ++rounds_completed_;
    } else {
      phase_ = Phase::kNeedNewCycle;
    }
    return Movement{spare_ia(), old_gap};
  }
  // loc is not remapped yet, so it still sits at its ENC_Kp slot; the
  // map knows that slot without evaluating ENC_Kp.
  const u64 src = current_ia(loc);
  is_remap_[loc] = true;
  slot_remapped_[src] = true;
  place(loc, old_gap);
  ++remapped_;
  gap_ = src;
  return Movement{src, old_gap};
}

void DynamicFeistelOuter::validate() const {
  const u64 n = lines();
  const u64 populated =
      static_cast<u64>(std::count(is_remap_.begin(), is_remap_.end(), true));
  check_eq(populated, remapped_, "DFN: isRemap population disagrees with remapped counter");
  for (u64 slot = 0; slot < n; ++slot) {
    check_eq(static_cast<u64>(slot_remapped_[slot]),
             static_cast<u64>(is_remap_[enc_p_->unmap(slot)]),
             "DFN: slot-indexed remap mirror disagrees with isRemap");
  }
  // The live map caches the isRemap rule: every entry a movement wrote
  // must agree with it, and a completed round has written them all.
  for (u64 la = 0; la < n; ++la) {
    const u32 ia = ia_of_[la];
    if (ia == kUnmoved) {
      check(rounds_completed_ == 0, "DFN: a completed round left a line unmoved");
      continue;
    }
    check_eq(u64{ia}, rule_ia(la), "DFN: live map disagrees with the isRemap rule");
  }
  if (dec_c_filled_) {
    for (u64 slot = 0; slot < n; ++slot) {
      check_eq(u64{dec_c_[slot]}, enc_c_->unmap(slot),
               "DFN: DEC_Kc table disagrees with the network");
    }
  }
  check_le(remapped_, n, "DFN: remapped counter exceeds line count");
  check_le(scan_, n, "DFN: scan pointer out of bounds");
  switch (phase_) {
    case Phase::kIdle:
      // Between rounds every line is consistently mapped under ENC_Kc.
      check_eq(remapped_, n, "DFN: idle phase with unremapped lines");
      check(!spare_holder_.has_value(), "DFN: idle phase but a line is parked in the spare");
      break;
    case Phase::kInCycle:
      check(spare_holder_.has_value(), "DFN: in-cycle phase but the spare is empty");
      check_lt(*spare_holder_, n, "DFN: spare holder out of range");
      check(!is_remap_[*spare_holder_], "DFN: spare holder already marked remapped");
      check_lt(gap_, n, "DFN: Gap register out of bounds");
      check_lt(cycle_start_, n, "DFN: cycle start out of bounds");
      check_eq(translate(*spare_holder_), spare_ia(),
               "DFN: spare holder does not translate to the spare");
      check_lt(remapped_, n, "DFN: in-cycle phase after every line was remapped");
      break;
    case Phase::kNeedNewCycle:
      check(!spare_holder_.has_value(), "DFN: closed cycle left a line in the spare");
      check_lt(remapped_, n, "DFN: need-new-cycle phase with all lines remapped");
      break;
  }
  // The two key epochs must each be bijections — exhaustively verifiable
  // for the widths the tests and scaled sims use.
  if (width_ <= 16) {
    check(mapping::verify_bijection(*enc_p_), "DFN: ENC_Kp is not a bijection");
    check(mapping::verify_bijection(*enc_c_), "DFN: ENC_Kc is not a bijection");
  }
}

}  // namespace srbsg::wl
