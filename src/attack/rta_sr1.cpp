#include "attack/rta_sr1.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::attack {

using pcm::DataClass;
using pcm::LineData;

RtaSr1Attacker::RtaSr1Attacker(const RtaSr1Params& p) : p_(p), writer_(p.lines) {
  check(p.lines > 0 && is_pow2(p.lines), "RtaSr1: lines must be a power of two");
  check(p.interval > 0, "RtaSr1: bad interval");
  check(p.target.value() < p.lines, "RtaSr1: target out of range");
}

bool RtaSr1Attacker::exhausted(const ctl::MemoryController& mc) const {
  return mc.failed() || issued_ >= budget_;
}

wl::WriteOutcome RtaSr1Attacker::issue(ctl::MemoryController& mc, La la,
                                       const LineData& data) {
  const auto out = mc.write(la, data);
  shadow_[la.value()] = data.cls == DataClass::kAllOne ? 1 : 0;
  bulk_account(1);
  return out;
}

void RtaSr1Attacker::bulk_account(u64 writes) {
  // Mirror the CRP arithmetically: every ψ writes advance one step,
  // whether or not that step performed a swap.
  issued_ += writes;
  const u64 tot = counter_ + writes;
  crp_ += tot / p_.interval;
  counter_ = tot % p_.interval;
}

void RtaSr1Attacker::bulk_to_step(ctl::MemoryController& mc, u64 target) {
  while (crp_ < target && !exhausted(mc)) {
    const u64 writes_needed = (target - crp_) * p_.interval - counter_;
    const u64 chunk = std::min(writes_needed, budget_ - issued_);
    const La fill[] = {La{0}};
    const auto out = mc.write_cycle(fill, LineData::all_zero(), chunk);
    bulk_account(out.writes_applied);
    shadow_[0] = 0;
    if (out.writes_applied < chunk) return;
  }
}

bool RtaSr1Attacker::wait_for_swap(ctl::MemoryController& mc, u64 wrap, Ns* stall_out) {
  const u64 n = p_.lines;
  const u64 round_start = wrap - n;
  u32 block_bits = 4;
  while (crp_ < wrap && !exhausted(mc)) {
    // Probe a handful of steps one write at a time.
    const u64 probe_until = std::min(wrap, crp_ + 8);
    while (crp_ < probe_until && !exhausted(mc)) {
      const auto out = issue(mc, La{0}, LineData::all_zero());
      if (out.movements > 0) {
        *stall_out = out.stall;
        return true;
      }
    }
    if (crp_ >= wrap) break;
    // Skip-only stretch: steps swap iff the key's top bit of the step
    // index is 0, so skip runs end at a power-of-two boundary. Escalate.
    const u64 in_round = crp_ - round_start;
    const u64 boundary = ((in_round >> block_bits) + 1) << block_bits;
    bulk_to_step(mc, std::min(wrap, round_start + boundary));
    if (block_bits < 63) ++block_bits;
  }
  return false;
}

bool RtaSr1Attacker::detect_key(ctl::MemoryController& mc, u32 bits, u64* key_out) {
  const auto& cfg = mc.bank().config();
  const Ns s01 = pcm::swap_latency(cfg, DataClass::kAllZero, DataClass::kAllOne);
  const u64 n = p_.lines;
  const u64 round_start = crp_ - (crp_ % n);
  const u64 wrap = round_start + n;
  u64 key = 0;
  for (u32 j = 0; j < bits; ++j) {
    // Re-pattern by bit j: only the LAs whose content changes (~N/2).
    bulk_account(writer_.pass(mc, u64{1} << j, budget_ - issued_, shadow_));
    if (crp_ >= wrap) return false;  // keys rotated mid-detection
    // The next swap stall classifies bit j of K. If the whole round has
    // no swap at all, the round's key delta is zero.
    Ns stall{0};
    if (!wait_for_swap(mc, wrap, &stall)) {
      if (j == 0 && !exhausted(mc)) {
        *key_out = 0;
        return true;
      }
      return false;
    }
    if (stall == s01) key |= u64{1} << j;
    if (exhausted(mc)) break;
  }
  *key_out = key;
  return true;
}

void RtaSr1Attacker::run(ctl::MemoryController& mc, u64 write_budget) {
  budget_ = write_budget;
  issued_ = 0;
  notes_.clear();
  shadow_.assign(p_.lines, 0xFF);  // unknown content
  counter_ = 0;
  crp_ = 0;

  const u64 n = p_.lines;
  const u32 bits = log2_floor(n);
  const auto& cfg = mc.bank().config();
  const Ns s01 = pcm::swap_latency(cfg, DataClass::kAllZero, DataClass::kAllOne);
  const Ns s11 = pcm::swap_latency(cfg, DataClass::kAllOne, DataClass::kAllOne);

  // ---- Phase 1: blanket + alignment (Steps 1-2) -----------------------
  bulk_account(writer_.pass(mc, 0, budget_ - issued_, shadow_));
  bool aligned = false;
  const u64 align_cap = 3 * n * p_.interval;
  for (u64 t = 0; t < align_cap && !exhausted(mc); ++t) {
    const auto out = issue(mc, La{0}, LineData::all_one());
    if (out.movements > 0 && (out.stall == s01 || out.stall == s11)) {
      // LA 0's line (the only ALL-1 line) was just swapped — that is the
      // CRP = 0 step, the first step of a fresh round.
      aligned = true;
      crp_ = 1;
      counter_ = 0;
      break;
    }
  }
  if (!aligned) {
    notes_ = "alignment failed";
    return;
  }
  issue(mc, La{0}, LineData::all_zero());  // restore LA 0 to the blanket value

  // ---- Phases 2-3: per-round detect + wear ----------------------------
  u64 cur_la = p_.target.value();
  u64 detections = 0;
  while (!exhausted(mc)) {
    // Detect K for the current round (restart if a wrap interrupts).
    u64 key = 0;
    bool ok = false;
    while (!ok && !exhausted(mc)) {
      ok = detect_key(mc, bits, &key);
      ++detections;
    }
    if (!ok) break;
    detected_key_ = key;
    // If the new round already swapped past cur_la while we were
    // detecting, the slot's owner flipped to the pair address.
    const u64 round_start = crp_ - (crp_ % n);
    const u64 in_round = crp_ - round_start;
    if (key != 0 && std::min(cur_la, cur_la ^ key) < in_round) {
      cur_la ^= key;
    }
    // Hammer the slot owner; switch at the pair swap; re-detect at wrap.
    const u64 wrap = round_start + n;
    while (crp_ < wrap && !exhausted(mc)) {
      u64 next_event = wrap;
      if (key != 0) {
        const u64 mn = round_start + std::min(cur_la, cur_la ^ key);
        if (crp_ <= mn) next_event = std::min(next_event, mn + 1);
      }
      const u64 writes_needed = (next_event - crp_) * p_.interval - counter_;
      const u64 chunk = std::min(writes_needed, budget_ - issued_);
      const La hammer[] = {La{cur_la}};
      const auto out = mc.write_cycle(hammer, LineData::all_zero(), chunk);
      bulk_account(out.writes_applied);
      shadow_[cur_la] = 0;
      if (out.writes_applied < chunk) break;  // failed or budget mid-bulk
      if (key != 0 && crp_ == round_start + std::min(cur_la, cur_la ^ key) + 1) {
        cur_la ^= key;  // the pinned slot is now owned by the pair
      }
    }
    ++rounds_attacked_;
  }
  notes_ = "rounds=" + std::to_string(rounds_attacked_) +
           " detections=" + std::to_string(detections) +
           " last_key=" + std::to_string(detected_key_);
}

}  // namespace srbsg::attack
