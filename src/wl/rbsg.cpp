#include "wl/rbsg.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"
#include "mapping/binary_matrix.hpp"
#include "mapping/feistel.hpp"
#include "mapping/quality.hpp"

namespace srbsg::wl {

void RbsgConfig::validate() const {
  check(is_pow2(lines), "RbsgConfig: lines must be a power of two");
  check(regions >= 1 && lines % regions == 0, "RbsgConfig: regions must divide lines");
  check(interval >= 1, "RbsgConfig: interval must be positive");
  check(feistel_stages >= 1, "RbsgConfig: need at least one Feistel stage");
  check(randomizer == Randomizer::kNone || lines <= (u64{1} << 32),
        "RbsgConfig: a randomized RBSG memoizes IAs as u32, so lines must be <= 2^32");
}

RegionStartGap::RegionStartGap(const RbsgConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  region_bits_ = log2_floor(cfg_.region_lines());
  region_stride_ = cfg_.region_lines() + 1;
  Rng rng(cfg_.seed);
  const u32 bits = log2_floor(cfg_.lines);
  switch (cfg_.randomizer) {
    case RbsgConfig::Randomizer::kNone:
      break;
    case RbsgConfig::Randomizer::kFeistel: {
      const auto keys = mapping::FeistelNetwork::random_keys(bits, cfg_.feistel_stages, rng);
      mapper_ = std::make_unique<mapping::FeistelNetwork>(bits, keys);
      break;
    }
    case RbsgConfig::Randomizer::kMatrix:
      mapper_ = std::make_unique<mapping::BinaryMatrixMapper>(bits, rng);
      break;
  }
  // Filled lazily by randomize(): construction evaluates no randomizer.
  if (mapper_) ia_of_.assign(cfg_.lines, kUnmapped);
  sg_.assign(cfg_.regions, StartGapRegion(cfg_.region_lines()));
  counter_.assign(cfg_.regions, 0);
}

u64 RegionStartGap::derandomize(u64 ia) const { return mapper_ ? mapper_->unmap(ia) : ia; }

Ns RegionStartGap::fire_domain(u64 q, pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, checked_narrow<u32>(q),
               telemetry::kLevelInner, 0);
  }
  const auto mv = sg_[q].advance();
  const Pa from{region_base(q) + mv.from};
  const Pa to{region_base(q) + mv.to};
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, checked_narrow<u32>(q), from.value(),
               to.value());
  }
  ++moved;
  return bank.move_line(from, to);
}

EpochPlan RegionStartGap::epoch_plan(const batch::Window& w, u64 remaining) const {
  const u64 iv = effective_interval();
  const u64 m = cfg_.region_lines();
  // Per pattern region: movements aggregatable before one would touch a
  // pattern slot (from == pattern slot, i.e. the gap reaches slot+1) or
  // wrap the rotation; then the write index of that boundary movement,
  // whose trigger replays live.
  EpochPlan p{.jump = remaining, .cost = 1};
  for (const auto& d : w.doms) {
    const u64 base = region_base(d.key);
    const u64 gap = sg_[d.key].gap();
    u64 safe = gap;  // gap movements until the wrap movement
    for (const auto& ls : w.lines) {
      if (ls.pa.value() < base || ls.pa.value() >= base + m + 1) continue;
      const u64 slot = ls.pa.value() - base;
      if (slot < gap) safe = std::min(safe, gap - slot - 1);
    }
    const u64 at = d.hits.until_nth(w.phase, (iv - counter_[d.key]) + safe * iv);
    if (at <= p.jump) {
      p.jump = at;
      p.live_dom = d.key;
    }
  }
  // Aggregated movements wear each movement slot at most once per jump
  // (each region's targets are one contiguous descending range): one
  // budget unit.
  return p;
}

FoldResult RegionStartGap::epoch_fold(const EpochPlan& p, const batch::Window& w, u64 /*done*/,
                                      u64 jump, const pcm::LineData& uniform,
                                      pcm::PcmBank& bank, BulkOutcome& out) {
  const u64 iv = effective_interval();
  // Aggregated gap movements per region: a contiguous wear range below
  // the gap; only the old gap slot changes content (it receives its
  // lower neighbour's line — `uniform`, like every slot in the range).
  FoldResult f;
  for (const auto& d : w.doms) {
    const u64 c = counter_[d.key] + d.hits.hits_in(w.phase, jump);
    const u64 moves = c / iv - u64{d.key == p.live_dom};
    counter_[d.key] = c - moves * iv;
    if (moves == 0) continue;
    const u64 base = region_base(d.key);
    const u64 gap = sg_[d.key].gap();
    bank.add_wear_range_unchecked(Pa{base + gap - moves + 1}, moves, 1);
    bank.poke_data(Pa{base + gap}, uniform);
    sg_[d.key].retreat_gap(moves);
    out.total += pcm::move_latency(bank.config(), uniform.cls) * moves;
    out.movements += moves;
    f.steps += moves;
  }
  return f;
}

void RegionStartGap::validate_state() const {
  for (u64 q = 0; q < cfg_.regions; ++q) {
    sg_[q].validate();
    check_le(counter_[q], cfg_.interval, "RegionStartGap: region write counter overran ψ");
  }
  for (u64 la = 0; la < ia_of_.size(); ++la) {
    if (ia_of_[la] != kUnmapped) {
      check_eq(u64{ia_of_[la]}, mapper_->map(la),
               "RegionStartGap: randomizer memo disagrees with the randomizer");
    }
  }
  if (mapper_ && cfg_.lines <= (u64{1} << 16)) {
    check(mapping::verify_bijection(*mapper_), "RegionStartGap: randomizer is not a bijection");
  }
}

RbsgConfig RegionStartGap::plain_start_gap(u64 lines, u64 interval) {
  RbsgConfig cfg;
  cfg.lines = lines;
  cfg.regions = 1;
  cfg.interval = interval;
  cfg.randomizer = RbsgConfig::Randomizer::kNone;
  return cfg;
}

}  // namespace srbsg::wl
