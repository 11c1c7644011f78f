#include "wl/multiway_sr.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"
#include "pcm/timing.hpp"

namespace srbsg::wl {

void MultiWaySrConfig::validate() const {
  check(is_pow2(lines), "MultiWaySrConfig: lines must be a power of two");
  check(is_pow2(regions) && regions >= 1 && regions < lines,
        "MultiWaySrConfig: regions must be a power of two smaller than lines");
  check(interval >= 1, "MultiWaySrConfig: interval must be positive");
}

MultiWaySecurityRefresh::MultiWaySecurityRefresh(const MultiWaySrConfig& cfg)
    : cfg_(cfg) {
  cfg_.validate();
  region_bits_ = log2_floor(cfg_.region_lines());
  Rng seeder(cfg.seed ^ 0x3157ac0deULL);
  regions_.reserve(cfg_.regions);
  for (u64 q = 0; q < cfg_.regions; ++q) {
    regions_.emplace_back(region_bits_, seeder.fork());
  }
  counter_.assign(cfg_.regions, 0);
}

Ns MultiWaySecurityRefresh::fire_domain(u64 q, pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, checked_narrow<u32>(q),
               telemetry::kLevelInner, 0);
  }
  const u64 key_before = regions_[q].key_c();
  const auto swap = regions_[q].advance();
  if (tel_ != nullptr && regions_[q].key_c() != key_before) {
    tel_->emit(telemetry::EventType::kKeyRerandomized, tel_id_, checked_narrow<u32>(q), 0, 0);
  }
  if (!swap) return Ns{0};
  ++moved;
  const u64 base = q << region_bits_;
  const Pa pa{base | swap->a};
  const Pa pb{base | swap->b};
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, checked_narrow<u32>(q), pa.value(),
               pb.value());
  }
  return bank.swap_lines(pa, pb);
}

void MultiWaySecurityRefresh::validate_state() const {
  for (u64 q = 0; q < cfg_.regions; ++q) {
    regions_[q].validate();
    check_le(counter_[q], cfg_.interval, "MultiWaySecurityRefresh: write counter overran ψ");
  }
}

EpochPlan MultiWaySecurityRefresh::epoch_plan(const batch::Window& w, u64 remaining) const {
  const u64 iv = effective_interval();
  const u64 rl = cfg_.region_lines();
  const u64 omask = low_mask(region_bits_);
  // Next replayed trigger, as a 1-based write index: per region, the
  // first CRP candidate whose swap touches a pattern slot in it, or the
  // round end (rekey), whichever is closer.
  u64 boundary = batch::kUnbounded;
  for (const auto& d : w.doms) {
    const auto& reg = regions_[d.key];
    const u64 crp = reg.crp();
    u64 js = 0;
    if (crp < rl) {
      js = rl - crp;
      for (u64 i = 0; i < w.keys.size(); ++i) {
        if (w.keys[i] != d.key) continue;
        const u64 t = reg.next_touch(w.pas[i].value() & omask);
        if (t < rl) js = std::min(js, t - crp);
      }
    }
    boundary = std::min(boundary, d.hits.until_nth(w.phase, (iv - counter_[d.key]) + js * iv));
  }
  // Movement-slot wear: aggregated sweeps stay inside one round per
  // region (one endpoint per slot); the replayed boundary step can open
  // a new round and re-touch a swept slot, costing one more.
  if (boundary > remaining) return {.jump = remaining, .cost = 2};
  // The jump covers the boundary write itself (the trigger fires after
  // the write, under the pre-trigger mapping); it alone replays live.
  const u64 live = w.keys[(w.phase + boundary - 1) % w.keys.size()];
  return {.jump = boundary, .cost = 2, .live_dom = live};
}

FoldResult MultiWaySecurityRefresh::epoch_fold(const EpochPlan& p, const batch::Window& w,
                                               u64 /*done*/, u64 jump,
                                               const pcm::LineData& uniform, pcm::PcmBank& bank,
                                               BulkOutcome& out) {
  const u64 iv = effective_interval();
  // Every trigger but the live one aggregates: its swap provably avoids
  // pattern slots, so it is a wear-only data no-op under uniform content.
  FoldResult f;
  u64 fired = 0;
  const std::span<u64> wear = bank.wear_mut();
  for (const auto& d : w.doms) {
    const u64 c = counter_[d.key] + d.hits.hits_in(w.phase, jump);
    const u64 n = c / iv - u64{d.key == p.live_dom};
    counter_[d.key] = c - n * iv;
    if (n == 0) continue;
    const u64 base = d.key << region_bits_;
    fired += regions_[d.key].advance_steps(
        n, [&wear, base](u64 a, u64 b) { ++wear[base | a], ++wear[base | b]; });
    f.steps += n;
  }
  if (fired > 0) {
    bank.note_writes_unchecked(2 * fired);
    out.total += pcm::swap_latency(bank.config(), uniform.cls, uniform.cls) * fired;
    out.movements += fired;
  }
  return f;
}

}  // namespace srbsg::wl
