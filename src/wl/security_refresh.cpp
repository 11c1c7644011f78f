#include "wl/security_refresh.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::wl {

void SecurityRefreshConfig::validate() const {
  check(is_pow2(lines), "SecurityRefreshConfig: lines must be a power of two");
  check(interval >= 1, "SecurityRefreshConfig: interval must be positive");
}

SecurityRefresh::SecurityRefresh(const SecurityRefreshConfig& cfg)
    : cfg_(cfg), region_(log2_floor(cfg.lines), Rng(cfg.seed)) {
  cfg_.validate();
}

Ns SecurityRefresh::fire_global(pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, telemetry::kGlobalDomain,
               telemetry::kLevelInner, 0);
  }
  // A CRP wrap inside advance() re-draws key_c; the key value itself
  // stays out of the trace (it is the secret the attacks chase).
  const u64 key_before = region_.key_c();
  const auto swap = region_.advance();
  if (tel_ != nullptr && region_.key_c() != key_before) {
    tel_->emit(telemetry::EventType::kKeyRerandomized, tel_id_, telemetry::kGlobalDomain, 0, 0);
  }
  // A skipped step (candidate already refreshed this round) triggers a
  // remap but moves nothing: RemapTriggered without GapMoved.
  if (!swap) return Ns{0};
  ++moved;
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, telemetry::kGlobalDomain, swap->a,
               swap->b);
  }
  return bank.swap_lines(Pa{swap->a}, Pa{swap->b});
}

void SecurityRefresh::validate_state() const {
  region_.validate();
  check_le(counter_, cfg_.interval, "SecurityRefresh: write counter overran ψ");
}

EpochPlan SecurityRefresh::epoch_plan(const batch::Window& w, u64 remaining) const {
  const u64 iv = effective_interval();
  const u64 deficit = iv - counter_;
  // Triggers the remaining writes would fire: the first after `deficit`
  // writes, then one per interval.
  const u64 due = remaining < deficit ? 0 : 1 + (remaining - deficit) / iv;
  // First upcoming CRP candidate whose swap touches a pattern slot (or
  // the round end, whichever is closer); steps before it aggregate.
  u64 boundary = region_.lines();
  for (const auto& ls : w.lines) {
    boundary = std::min(boundary, region_.next_touch(ls.pa.value()));
  }
  const u64 crp = region_.crp();
  const u64 safe_steps = boundary > crp ? boundary - crp : 0;
  // Movement-slot wear: one round touches each slot at most once, so the
  // aggregated swaps cost one unit per slot; the replayed boundary step
  // can open a *new* round and re-touch an already-swept slot, so a
  // second unit covers its (checked) wear too.
  if (due <= safe_steps) return {.jump = remaining, .cost = due > 0 ? 2u : 0u};
  // Through the boundary trigger's write, which replays live.
  const u64 jump = deficit + safe_steps * iv;
  return {.jump = jump, .cost = safe_steps > 0 ? 2u : 0u, .live_global = true};
}

FoldResult SecurityRefresh::epoch_fold(const EpochPlan& p, const batch::Window& /*w*/,
                                       u64 /*done*/, u64 jump, const pcm::LineData& uniform,
                                       pcm::PcmBank& bank, BulkOutcome& out) {
  const u64 iv = effective_interval();
  const u64 c = counter_ + jump;
  const u64 steps = c / iv - u64{p.live_global};
  counter_ = c - steps * iv;
  // Aggregated swaps: wear-only; contents are all `uniform`, so the
  // permutation they induce is invisible and latency is uniform.
  if (steps > 0) {
    const std::span<u64> wear = bank.wear_mut();
    const u64 fired =
        region_.advance_steps(steps, [&wear](u64 a, u64 b) { ++wear[a], ++wear[b]; });
    bank.note_writes_unchecked(2 * fired);
    out.total += pcm::swap_latency(bank.config(), uniform.cls, uniform.cls) * fired;
    out.movements += fired;
  }
  return {steps};
}

}  // namespace srbsg::wl
