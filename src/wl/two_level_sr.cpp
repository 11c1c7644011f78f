#include "wl/two_level_sr.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::wl {

void TwoLevelSrConfig::validate() const {
  check(is_pow2(lines), "TwoLevelSrConfig: lines must be a power of two");
  check(is_pow2(sub_regions) && sub_regions >= 1 && sub_regions < lines,
        "TwoLevelSrConfig: sub_regions must be a power of two smaller than lines");
  check(inner_interval >= 1 && outer_interval >= 1, "TwoLevelSrConfig: bad intervals");
}

TwoLevelSecurityRefresh::TwoLevelSecurityRefresh(const TwoLevelSrConfig& cfg)
    : cfg_(cfg), outer_(log2_floor(cfg.lines), Rng(cfg.seed)) {
  cfg_.validate();
  region_bits_ = log2_floor(cfg_.region_lines());
  Rng seeder(cfg.seed ^ 0x517ac0deULL);
  inner_.reserve(cfg_.sub_regions);
  for (u64 q = 0; q < cfg_.sub_regions; ++q) {
    inner_.emplace_back(region_bits_, seeder.fork());
  }
  inner_counter_.assign(cfg_.sub_regions, 0);
}

Ns TwoLevelSecurityRefresh::fire_domain(u64 q, pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, checked_narrow<u32>(q),
               telemetry::kLevelInner, 0);
  }
  const u64 key_before = inner_[q].key_c();
  const auto swap = inner_[q].advance();
  if (tel_ != nullptr && inner_[q].key_c() != key_before) {
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

Ns TwoLevelSecurityRefresh::fire_global(pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, telemetry::kGlobalDomain,
               telemetry::kLevelOuter, 0);
  }
  const u64 key_before = outer_.key_c();
  // The outer level swaps two *intermediate* lines; where they physically
  // live right now is decided by the inner mappings of their sub-regions.
  const auto swap = outer_.advance();
  if (tel_ != nullptr && outer_.key_c() != key_before) {
    tel_->emit(telemetry::EventType::kKeyRerandomized, tel_id_, telemetry::kGlobalDomain, 0, 0);
  }
  if (!swap) return Ns{0};
  ++moved;
  const Pa pa = ia_to_pa(swap->a);
  const Pa pb = ia_to_pa(swap->b);
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, telemetry::kGlobalDomain, pa.value(),
               pb.value());
  }
  return bank.swap_lines(pa, pb);
}

void TwoLevelSecurityRefresh::validate_state() const {
  outer_.validate();
  check_le(outer_counter_, cfg_.outer_interval,
           "TwoLevelSecurityRefresh: outer write counter overran ψ_out");
  for (u64 q = 0; q < cfg_.sub_regions; ++q) {
    inner_[q].validate();
    check_le(inner_counter_[q], cfg_.inner_interval,
             "TwoLevelSecurityRefresh: inner write counter overran ψ_in");
  }
}

EpochPlan TwoLevelSecurityRefresh::epoch_plan(const batch::Window& w, u64 remaining) const {
  const u64 iv_in = effective_inner_interval();
  const u64 iv_out = effective_outer_interval();
  const u64 rl = cfg_.region_lines();
  const u64 omask = low_mask(region_bits_);
  const u64 period = w.keys.size();

  // Next replayed trigger, as a 1-based write index. Outer level: the
  // round wrap (rekey) or a swap whose endpoint is a pattern IA; the
  // n-th outer trigger lands on every iv_out-th write.
  u64 b_out = batch::kUnbounded;
  {
    const u64 ocrp = outer_.crp();
    u64 js = 0;  // CRP steps until the special one; 0 at boot/wrap (rekey)
    if (ocrp < outer_.lines()) {
      js = outer_.lines() - ocrp;
      for (const u64 ia : w.ias) {
        const u64 t = outer_.next_touch(ia);
        if (t < outer_.lines()) js = std::min(js, t - ocrp);
      }
    }
    b_out = (iv_out - outer_counter_) + js * iv_out;
  }
  // Inner level, per pattern-active sub-region (inactive regions take
  // no writes, so their inner state is frozen for the whole call).
  u64 b_in = batch::kUnbounded;
  for (const auto& d : w.doms) {
    const auto& reg = inner_[d.key];
    const u64 icrp = reg.crp();
    u64 js = 0;
    if (icrp < rl) {
      js = rl - icrp;
      for (u64 i = 0; i < period; ++i) {
        if (w.keys[i] != d.key) continue;
        // next_touch wants the *physical* slot the pattern line sits in.
        const u64 t = reg.next_touch(w.pas[i].value() & omask);
        if (t < rl) js = std::min(js, t - icrp);
      }
    }
    const u64 need = (iv_in - inner_counter_[d.key]) + js * iv_in;
    b_in = std::min(b_in, d.hits.until_nth(w.phase, need));
  }
  // Movement-slot wear per jump: aggregated sweeps stay inside one round
  // per level, where fired swaps touch each slot exactly once — at most
  // one inner endpoint plus (a PA's resident IA changing at most once
  // mid-jump) two outer endpoints. The replayed boundary step(s) can
  // open a *new* round at either level and re-touch an already-swept
  // slot, adding one checked wear each. Five budget units cover it all.
  const u64 boundary = std::min(b_out, b_in);
  if (boundary > remaining) return {.jump = remaining, .cost = 5};
  EpochPlan p{.jump = boundary, .cost = 5};
  // The jump covers the boundary write itself (triggers fire after the
  // write, under the pre-trigger mapping). *Every* trigger due at it
  // fires live, not just the special one: aggregated sweeps then stay
  // strictly before the boundary, where no pattern slot moves — so their
  // unchecked endpoint wear provably lands on budgeted movement slots
  // only, in reference order.
  p.live_global = (outer_counter_ + p.jump) % iv_out == 0;
  const u64 q_b = w.keys[(w.phase + p.jump - 1) % period];
  for (const auto& d : w.doms) {
    if (d.key != q_b) continue;
    const u64 hits = d.hits.hits_in(w.phase, p.jump);
    if ((inner_counter_[d.key] + hits) % iv_in == 0) p.live_dom = q_b;
    break;
  }
  return p;
}

FoldResult TwoLevelSecurityRefresh::epoch_fold(const EpochPlan& p, const batch::Window& w,
                                               u64 /*done*/, u64 jump,
                                               const pcm::LineData& uniform, pcm::PcmBank& bank,
                                               BulkOutcome& out) {
  const u64 iv_in = effective_inner_interval();
  const u64 iv_out = effective_outer_interval();
  const u64 omask = low_mask(region_bits_);
  const u64 oc0 = outer_counter_;
  FoldResult f;
  u64 fired = 0;
  const std::span<u64> wear = bank.wear_mut();

  // Aggregated outer sweep. Endpoints resolve through each sub-region's
  // inner map *as of that trigger's write*: frozen regions read live,
  // active regions read analytically (keys are round-stable inside the
  // jump; only their CRP advances, at one step per ψ_in hits).
  const u64 n_out = (oc0 + jump) / iv_out - u64{p.live_global};
  outer_counter_ = oc0 + jump - n_out * iv_out;
  if (n_out > 0) {
    const u64 kp = outer_.key_p();
    const u64 ocrp0 = outer_.crp();
    const auto endpoint_pa = [&](u64 ia, u64 at) {
      const u64 q = ia >> region_bits_;
      const u64 off = ia & omask;
      for (const auto& d : w.doms) {
        if (d.key != q) continue;
        const u64 steps = (inner_counter_[d.key] + d.hits.hits_in(w.phase, at)) / iv_in;
        return (q << region_bits_) | inner_[q].translate_at(off, inner_[q].crp() + steps);
      }
      return (q << region_bits_) | inner_[q].translate(off);
    };
    fired += outer_.advance_steps(n_out, [&](u64 a, u64 b) {
      // Trigger index from the candidate (a = c ^ key_p), then the
      // write it lands on.
      const u64 at = (iv_out - oc0) + ((a ^ kp) - ocrp0) * iv_out;
      ++wear[endpoint_pa(a, at)];
      ++wear[endpoint_pa(b, at)];
    });
    f.steps += n_out;
  }
  // Aggregated inner sweeps (endpoints stay inside the region).
  for (const auto& d : w.doms) {
    const u64 c = inner_counter_[d.key] + d.hits.hits_in(w.phase, jump);
    const u64 n_in = c / iv_in - u64{d.key == p.live_dom};
    inner_counter_[d.key] = c - n_in * iv_in;
    if (n_in == 0) continue;
    const u64 base = d.key << region_bits_;
    fired += inner_[d.key].advance_steps(
        n_in, [&](u64 a, u64 b) { ++wear[base | a], ++wear[base | b]; });
    f.steps += n_in;
  }
  if (fired > 0) {
    bank.note_writes_unchecked(2 * fired);
    out.total += pcm::swap_latency(bank.config(), uniform.cls, uniform.cls) * fired;
    out.movements += fired;
  }
  return f;
}

}  // namespace srbsg::wl
