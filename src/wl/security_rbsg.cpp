#include "wl/security_rbsg.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"
#include "pcm/timing.hpp"

namespace srbsg::wl {

void SecurityRbsgConfig::validate() const {
  check(is_pow2(lines), "SecurityRbsgConfig: lines must be a power of two");
  check(is_pow2(sub_regions) && sub_regions >= 1 && sub_regions < lines,
        "SecurityRbsgConfig: sub_regions must be a power of two smaller than lines");
  check(inner_interval >= 1 && outer_interval >= 1, "SecurityRbsgConfig: bad intervals");
  check(stages >= 1, "SecurityRbsgConfig: need at least one stage");
}

SecurityRbsg::SecurityRbsg(const SecurityRbsgConfig& cfg)
    : cfg_(cfg), outer_(log2_floor(cfg.lines), cfg.stages, Rng(cfg.seed), cfg.prp) {
  cfg_.validate();
  region_bits_ = log2_floor(cfg_.region_lines());
  region_stride_ = cfg_.region_lines() + 1;
  inner_.assign(cfg_.sub_regions, StartGapRegion(cfg_.region_lines()));
  inner_counter_.assign(cfg_.sub_regions, 0);
}

Ns SecurityRbsg::fire_domain(u64 q, pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, checked_narrow<u32>(q),
               telemetry::kLevelInner, 0);
  }
  const auto mv = inner_[q].advance();
  const u64 base = q * region_stride_;
  const Pa from{base + mv.from};
  const Pa to{base + mv.to};
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, checked_narrow<u32>(q), from.value(),
               to.value());
  }
  ++moved;
  return bank.move_line(from, to);
}

SecurityRbsg::OuterMove SecurityRbsg::outer_step() {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, telemetry::kGlobalDomain,
               telemetry::kLevelOuter, 0);
  }
  // An advance from the idle phase starts a round, which re-draws the
  // DFN key pair — the paper's security lever.
  const bool rekey = outer_.round_idle();
  // The outer movement copies one intermediate line; both endpoints are
  // located through the inner mappings at this instant.
  const auto mv = outer_.advance();
  const OuterMove om{mv.from, mv.to, ia_to_pa(mv.from), ia_to_pa(mv.to)};
  if (tel_ != nullptr) {
    if (rekey) {
      tel_->emit(telemetry::EventType::kKeyRerandomized, tel_id_, telemetry::kGlobalDomain,
                 outer_.rounds_completed() + 1, 0);
    }
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, telemetry::kGlobalDomain,
               om.from.value(), om.to.value());
  }
  return om;
}

Ns SecurityRbsg::fire_global(pcm::PcmBank& bank, u64& moved) {
  const OuterMove om = outer_step();
  ++moved;
  return bank.move_line(om.from, om.to);
}

void SecurityRbsg::validate_state() const {
  outer_.validate();
  check_le(outer_counter_, cfg_.outer_interval,
           "SecurityRbsg: outer write counter overran ψ_out");
  for (u64 q = 0; q < cfg_.sub_regions; ++q) {
    inner_[q].validate();
    check_le(inner_counter_[q], cfg_.inner_interval,
             "SecurityRbsg: inner write counter overran ψ_in");
  }
}

EpochPlan SecurityRbsg::epoch_plan(const batch::Window& w, u64 remaining) const {
  const u64 iv_in = effective_inner_interval();
  const u64 m = cfg_.region_lines();
  // Inner level: per active region, gap movements aggregate until one
  // would shift a pattern slot or wrap (Start redraw); the
  // cumulative-safe formulation below stays valid across every segment
  // of the jump, so it is computed once per jump.
  u64 b_in = batch::kUnbounded;
  for (const auto& d : w.doms) {
    const u64 base = d.key * (m + 1);
    const u64 g = inner_[d.key].gap();
    u64 safe = g;
    for (u64 i = 0; i < w.keys.size(); ++i) {
      if (w.keys[i] != d.key) continue;
      const u64 local = w.pas[i].value() - base;
      if (local < g) safe = std::min(safe, g - local - 1);
    }
    const u64 need = (iv_in - inner_counter_[d.key]) + safe * iv_in;
    b_in = std::min(b_in, d.hits.until_nth(w.phase, need));
  }
  // Writes coverable by this jump. Outer (DFN) movements cannot
  // fast-forward — the Feistel walk replays one movement per ψ_out
  // writes — but each replay is cheap (wear + an exact one-line copy),
  // so the segments walk whole ψ_out intervals and only stop early when
  // a movement displaces a pattern line. Per segment a movement slot
  // takes at most one aggregated gap-shift wear (contiguous descending
  // ranges, disjoint from any replayed movement's target) plus one
  // outer-movement destination: two budget units.
  return {.jump = std::min(remaining, b_in), .cost = 2, .boundary = b_in <= remaining};
}

FoldResult SecurityRbsg::epoch_fold(const EpochPlan& p, const batch::Window& w, u64 done,
                                    u64 seg, const pcm::LineData& /*uniform*/,
                                    pcm::PcmBank& bank, BulkOutcome& out) {
  const u64 iv_in = effective_inner_interval();
  const u64 m = cfg_.region_lines();
  const pcm::PcmConfig& pcfg = bank.config();
  const bool outer_live = seg == effective_outer_interval() - outer_counter_;
  FoldResult f;

  // The final write of the jump's last segment can fire the one inner
  // movement the aggregate below must not fold: at the boundary the due
  // movement would cross a pattern slot or wrap (Start redraw), so it
  // replays exactly.
  u64 q_b = batch::kNoDomain;
  if (p.boundary && done + seg == p.jump) {
    const u64 q = w.keys[(w.phase + seg - 1) % w.keys.size()];
    for (const auto& d : w.doms) {
      if (d.key != q) continue;
      if ((inner_counter_[d.key] + d.hits.hits_in(w.phase, seg)) % iv_in == 0) q_b = q;
      break;
    }
  }
  // Aggregated gap movements per region: one wear range plus an exact
  // replay of the data shift — destination t receives slot t−1's line,
  // walked top-down so each source is read before it is overwritten.
  // Sources are re-read from the bank, so non-uniform content (attack
  // residue) is carried bit-exactly. Movements co-firing at an outer
  // boundary are aggregated too: they are within the safe distance, and
  // the gap retreat lands before the outer replay reads the inner
  // mapping, matching write()'s inner-then-outer order.
  for (const auto& d : w.doms) {
    const u64 c = inner_counter_[d.key] + d.hits.hits_in(w.phase, seg);
    u64 moves = c / iv_in;
    inner_counter_[d.key] = c % iv_in;
    if (d.key == q_b) --moves;  // the boundary movement replays below
    if (moves == 0) continue;
    const u64 base = d.key * (m + 1);
    const u64 g = inner_[d.key].gap();
    bank.add_wear_range_unchecked(Pa{base + g - moves + 1}, moves, 1);
    for (u64 t = base + g; t > base + g - moves; --t) {
      const pcm::LineData src = bank.data(Pa{t - 1});
      out.total += pcm::move_latency(pcfg, src.cls);
      if (!(bank.data(Pa{t}) == src)) bank.poke_data(Pa{t}, src);
    }
    inner_[d.key].retreat_gap(moves);
    out.movements += moves;
    f.steps += moves;
  }
  outer_counter_ += seg;

  // Replay the due movement(s), in write()'s order (inner then outer).
  if (q_b != batch::kNoDomain) {
    // A wrap redraws Start and shifts the region wholesale.
    out.total += fire_domain(q_b, bank, out.movements);
    ++f.steps;
    f.stop = true;
  }
  if (outer_live) {
    outer_counter_ = 0;
    const OuterMove om = outer_step();
    ++out.movements;
    ++f.steps;
    const bool touches_pattern = std::any_of(w.ias.begin(), w.ias.end(), [&om](u64 ia) {
      return ia == om.ia_from || ia == om.ia_to;
    });
    if (touches_pattern) {
      // A pattern line actually moves: copy it with checked wear and
      // re-locate the pattern around its new position.
      out.total += bank.move_line(om.from, om.to);
      f.stop = true;
    } else {
      // The copy cannot involve a pattern line: replay it exactly with
      // budget-covered wear. Reading the source from the bank keeps
      // arbitrary content (attack residue, the parked spare) bit-exact
      // without any uniformity assumption.
      bank.add_wear_range_unchecked(om.to, 1, 1);
      const pcm::LineData src = bank.data(om.from);
      out.total += pcm::move_latency(pcfg, src.cls);
      if (!(bank.data(om.to) == src)) bank.poke_data(om.to, src);
    }
  }
  return f;
}

}  // namespace srbsg::wl
