#include "attack/rta_sr2.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::attack {

using pcm::DataClass;
using pcm::LineData;

RtaSr2Attacker::RtaSr2Attacker(const RtaSr2Params& p) : p_(p), writer_(p.lines) {
  check(p.lines > 0 && is_pow2(p.lines), "RtaSr2: lines must be a power of two");
  check(is_pow2(p.sub_regions) && p.sub_regions > 1 && p.sub_regions < p.lines,
        "RtaSr2: bad sub_regions");
  check(p.inner_interval > 0 && p.outer_interval > 0, "RtaSr2: bad intervals");
}

bool RtaSr2Attacker::exhausted(const ctl::MemoryController& mc) const {
  return mc.failed() || issued_ >= budget_;
}

u64 RtaSr2Attacker::outer_wrap_step() const {
  return (steps_ / p_.lines + 1) * p_.lines;
}

wl::WriteOutcome RtaSr2Attacker::issue(ctl::MemoryController& mc, La la,
                                       const LineData& data) {
  const auto out = mc.write(la, data);
  shadow_[la.value()] = data.cls == DataClass::kAllOne ? 1 : 0;
  bulk_account(1);
  return out;
}

void RtaSr2Attacker::bulk_account(u64 writes) {
  issued_ += writes;
  const u64 tot = counter_ + writes;
  steps_ += tot / p_.outer_interval;
  counter_ = tot % p_.outer_interval;
}

bool RtaSr2Attacker::detect_high_key(ctl::MemoryController& mc, u64* key_high_out) {
  const auto& cfg = mc.bank().config();
  const Ns s00 = pcm::swap_latency(cfg, DataClass::kAllZero, DataClass::kAllZero);
  const Ns s01 = pcm::swap_latency(cfg, DataClass::kAllZero, DataClass::kAllOne);
  const Ns s11 = pcm::swap_latency(cfg, DataClass::kAllOne, DataClass::kAllOne);
  const u32 region_bits = log2_floor(p_.lines / p_.sub_regions);
  const u32 total_bits = log2_floor(p_.lines);
  const u64 wrap = outer_wrap_step();

  u64 key_high = 0;
  for (u32 j = region_bits; j < total_bits; ++j) {
    // Re-pattern by bit j: only the LAs whose content changes.
    bulk_account(writer_.pass(mc, u64{1} << j, budget_ - issued_, shadow_));
    if (steps_ >= wrap) return false;
    // Sample outer-boundary stalls until 3 clean observations agree by
    // majority. Hammering LA 0 is always pattern-consistent (its bits
    // are all zero), so the observation write never perturbs the state.
    // Outer swap steps form power-of-two blocks (step c swaps iff
    // bit_msb(K_out) of c is 0), so after a few silent boundaries the
    // attacker jumps to escalating block boundaries instead of grinding
    // through a skip-only stretch.
    int ones = 0;
    int samples = 0;
    u32 block_bits = 4;
    u64 silent_boundaries = 0;
    const u64 round_start = wrap - p_.lines;
    while (samples < 3 && steps_ < wrap && !exhausted(mc)) {
      // Fast-forward to one write before the next outer boundary.
      const u64 gap = p_.outer_interval - counter_ - 1;
      if (gap > 0) {
        const u64 chunk = std::min(gap, budget_ - issued_);
        const La fill[] = {La{0}};
        const auto bulk = mc.write_cycle(fill, LineData::all_zero(), chunk);
        bulk_account(bulk.writes_applied);
        shadow_[0] = 0;
        if (bulk.writes_applied < chunk) return false;
      }
      const auto out = issue(mc, La{0}, LineData::all_zero());
      if (out.movements == 0 || out.stall == Ns{0} ||
          (out.stall != s00 && out.stall != s01 && out.stall != s11)) {
        // Skipped outer step, inner-only stall, or inner/outer
        // coincidence: no clean sample here.
        if (++silent_boundaries >= 8) {
          silent_boundaries = 0;
          const u64 in_round = steps_ - round_start;
          const u64 boundary = ((in_round >> block_bits) + 1) << block_bits;
          const u64 target = std::min(wrap, round_start + boundary);
          while (steps_ < target && !exhausted(mc)) {
            const u64 need = (target - steps_) * p_.outer_interval - counter_;
            const u64 chunk = std::min(need, budget_ - issued_);
            const La fill[] = {La{0}};
            const auto bulk = mc.write_cycle(fill, LineData::all_zero(), chunk);
            bulk_account(bulk.writes_applied);
            shadow_[0] = 0;
            if (bulk.writes_applied < chunk) return false;
          }
          if (block_bits < 63) ++block_bits;
        }
        continue;
      }
      if (out.stall == s01) ++ones;
      ++samples;
    }
    if (samples == 0) {
      if (j == region_bits && !exhausted(mc)) {
        // No outer swap all round: identity round, K_out = 0.
        *key_high_out = 0;
        return true;
      }
      return false;  // ran out of round mid-detection
    }
    if (ones * 2 > samples) key_high |= u64{1} << (j - region_bits);
  }
  *key_high_out = key_high;
  return true;
}

void RtaSr2Attacker::run(ctl::MemoryController& mc, u64 write_budget) {
  budget_ = write_budget;
  issued_ = 0;
  notes_.clear();
  shadow_.assign(p_.lines, 0xFF);
  counter_ = 0;
  steps_ = 0;
  prefix_ = 0;

  const u64 n = p_.lines;
  const u64 m = n / p_.sub_regions;  // LAs per sub-region
  const u32 region_bits = log2_floor(m);

  // Blanket ALL-0 so every pattern delta and stall value is known.
  bulk_account(writer_.pass(mc, 0, budget_ - issued_, shadow_));

  u64 detections = 0;
  u64 failed_detections = 0;
  while (!exhausted(mc)) {
    // Detect this round's high key bits (restart on wraps).
    u64 key_high = 0;
    bool ok = false;
    while (!ok && !exhausted(mc)) {
      ok = detect_high_key(mc, &key_high);
      ++detections;
      // A failed detection crossed into a round whose key was not read;
      // the attacker keeps going, and the prefix update below applies
      // detected rounds only.
      if (!ok) ++failed_detections;
    }
    if (!ok) break;
    prefix_ ^= key_high;
    ++rounds_attacked_;

    // Wear phase: hammer the sub-region's LA block round-robin until the
    // round wraps, spreading writes uniformly over its M physical lines.
    const u64 wrap = outer_wrap_step();
    const u64 chunk = std::max<u64>(p_.inner_interval, 64);
    u64 off = 0;
    while (steps_ < wrap && !exhausted(mc)) {
      const u64 la = (prefix_ << region_bits) | off;
      off = (off + 1) % m;
      const u64 writes_left_in_round =
          (wrap - steps_) * p_.outer_interval - counter_;
      const u64 this_chunk = std::min({chunk, writes_left_in_round, budget_ - issued_});
      const La hammer[] = {La{la}};
      const auto bulk = mc.write_cycle(hammer, LineData::all_zero(), this_chunk);
      bulk_account(bulk.writes_applied);
      shadow_[la] = 0;
      if (bulk.writes_applied < this_chunk) break;
    }
  }

  notes_ = "rounds=" + std::to_string(rounds_attacked_) +
           " detections=" + std::to_string(detections) +
           " failed_detections=" + std::to_string(failed_detections) +
           " prefix=" + std::to_string(prefix_);
}

}  // namespace srbsg::attack
