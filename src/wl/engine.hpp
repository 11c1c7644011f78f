#pragma once
// The bulk-write engine every scheme runs on (DESIGN.md §11, §15).
//
// A scheme states its remapping rule once, as a narrow model, and derives
// from BulkEngine<Scheme>. The engine implements translate(), write(),
// write_batch() and write_cycle() once for all schemes: address
// validation, tier dispatch, the reference fallback, hammer-run
// detection, the windowed loop and the epoch loop. Hooks are static
// (CRTP) calls that inline into those loops, so the per-write path, the
// windowed chunks and the epoch jumps fire the same triggers by
// construction and pay no dispatch.
//
// The model a scheme supplies (private, with the engine as a friend):
//   * locate(la) -> Loc{pa, dom, ia}: where `la` lives now, the counter
//     domain its write advances (kNoDomain: none, e.g. the DFN spare
//     line), and its outer-level address;
//   * its counters, at most two levels. kDomainCounters: one counter per
//     domain (domain_counter(q), domain_interval()) whose step is
//     fire_domain(q, bank, moved). kGlobalCounter: one bank-wide counter
//     (global_counter(), global_interval()) whose step is
//     fire_global(bank, moved). Steps are the scheme's movement helpers;
//     they return the stall and count the movements they performed;
//   * note_data_writes(pa, n), optionally: bookkeeping the scheme keeps
//     beside the bank's wear (table WL's per-line write counts);
//   * for the epoch tier, kFold names the proof its fold carries, and
//     epoch_plan(w, remaining) / epoch_fold(...) implement it, with
//     optional epoch_segment() and for_each_stale_slot() (see EpochPlan).

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "pcm/bank.hpp"
#include "telemetry/telemetry.hpp"
#include "wl/batch.hpp"
#include "wl/epoch.hpp"
#include "wl/wear_leveler.hpp"

namespace srbsg::wl {

/// Where one logical line lives now, and which counter its write advances.
struct Loc {
  Pa pa;
  u64 dom{batch::kNoDomain};  ///< counter domain; kNoDomain advances none
  u64 ia{0};                  ///< outer-level address: the inner mapping's input
};

/// The proof obligation a scheme's epoch fold carries (DESIGN.md §15).
enum class Fold : u8 {
  kNone,         ///< no epoch fold: the epoch tier runs the windowed loop
  kUniform,      ///< closed form: every movement slot holds one content
                 ///< value (so folded movements are data no-ops of uniform
                 ///< latency) and a headroom budget bounds their wear
  kExactReplay,  ///< folded movements replay their data shifts exactly,
                 ///< so only the headroom budget is needed
};

/// One epoch jump as the scheme plans it from the current window.
///
/// Closed-form folds cover the jump in one segment. Every trigger inside
/// it is folded except the live ones at its last write — the boundary
/// trigger that would touch a pattern slot, wrap, or rekey. The fold
/// leaves a live counter due, and the engine fires it exactly after the
/// jump. Exact-replay folds walk the jump in segments (epoch_segment())
/// and replay their own boundary movements; `boundary` tells the fold
/// whether the jump's last write is one.
struct EpochPlan {
  u64 jump{0};                     ///< writes the jump covers (>= 1)
  u64 cost{0};                     ///< headroom units one segment spends (0: none)
  bool boundary{false};            ///< exact replay: the last write fires a boundary
  u64 live_dom{batch::kNoDomain};  ///< closed form: domain trigger fired live
  bool live_global{false};         ///< closed form: global trigger fired live
};

/// What a fold did over one segment.
struct FoldResult {
  u64 steps{0};      ///< remap steps folded or replayed inside the segment
  bool stop{false};  ///< a pattern line moved: end the jump and re-locate
};

template <typename S>
class BulkEngine : public WearLeveler {
 public:
  [[nodiscard]] Pa translate(La la) const final {
    check_address(la);
    return self().locate(la.value()).pa;
  }

  WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) final {
    check_address(la);
    return write_one(la.value(), data, bank);
  }

  BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data,
                          pcm::PcmBank& bank) final;

  BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data, u64 count,
                          pcm::PcmBank& bank) final;

  /// The attack detector's rate boost divides every interval by
  /// 2^log2_divisor (see boosted()).
  void set_rate_boost(u32 log2_divisor) final {
    check_lt(log2_divisor, u32{64}, "set_rate_boost: boost shifts past the interval width");
    boost_ = log2_divisor;
  }

 protected:
  /// `interval` divided by the current rate boost, at least 1: a
  /// scheme's effective remapping interval.
  [[nodiscard]] u64 boosted(u64 interval) const {
    const u64 iv = interval >> boost_;
    return iv == 0 ? 1 : iv;
  }

  // Defaults for the optional parts of the model; a scheme hides the
  // ones it supplies.
  static constexpr bool kDomainCounters = false;
  static constexpr bool kGlobalCounter = false;
  static constexpr Fold kFold = Fold::kNone;
  void note_data_writes(Pa /*pa*/, u64 /*writes*/) {}
  /// Closed form: slots besides the pattern's that the uniformity scan
  /// must skip (stale content) while the budget still covers their wear.
  template <typename Fn>
  void for_each_stale_slot(const batch::Window& /*w*/, Fn&& /*fn*/) const {}
  /// Length of the next segment of `p` after `done` of its writes.
  [[nodiscard]] u64 epoch_segment(const EpochPlan& p, u64 done) const { return p.jump - done; }

 private:
  [[nodiscard]] S& self() { return static_cast<S&>(*this); }
  [[nodiscard]] const S& self() const { return static_cast<const S&>(*this); }

  void check_address(La la) const {
    check(la.value() < self().logical_lines(), "wear leveler: address out of range");
  }

  /// The trigger rule, stated once for every path: a level whose counter
  /// has reached its interval resets and fires its step. `q` is the
  /// domain a write hit (kNoDomain: none); `global` says whether the
  /// global counter was hit. Domain steps fire before the global one.
  /// Returns the stall; `moved` counts the movements.
  Ns fire_due(u64 q, bool global, pcm::PcmBank& bank, u64& moved) {
    S& s = self();
    Ns stall{0};
    if constexpr (S::kDomainCounters) {
      if (q != batch::kNoDomain && s.domain_counter(q) >= s.domain_interval()) {
        s.domain_counter(q) = 0;
        stall += s.fire_domain(q, bank, moved);
      }
    }
    if constexpr (S::kGlobalCounter) {
      if (global && s.global_counter() >= s.global_interval()) {
        s.global_counter() = 0;
        stall += s.fire_global(bank, moved);
      }
    }
    return stall;
  }

  /// The per-write reference semantics, without the range check: the
  /// data write, then the write's due triggers. Always inlined, so
  /// write_batch()'s loop pays no call per write.
  [[gnu::always_inline]] WriteOutcome write_one(u64 la, const pcm::LineData& data,
                                                pcm::PcmBank& bank) {
    S& s = self();
    const Loc loc = s.locate(la);
    WriteOutcome out;
    out.total = bank.write(loc.pa, data);
    s.note_data_writes(loc.pa, 1);
    if constexpr (S::kDomainCounters) {
      if (loc.dom != batch::kNoDomain) ++s.domain_counter(loc.dom);
    }
    if constexpr (S::kGlobalCounter) ++s.global_counter();
    u64 moved = 0;
    out.stall = fire_due(loc.dom, true, bank, moved);
    out.movements = static_cast<u32>(moved);
    out.total += out.stall;
    return out;
  }

  /// Re-locates the pattern and rebuilds only the schedules whose inputs
  /// changed (batch::adopt_if_changed). Returns true when the line
  /// schedules were rebuilt.
  bool refresh(std::span<const La> pattern, const pcm::PcmBank& bank);

  /// Applies `writes` pattern writes from the window's phase as one bulk
  /// write per distinct line. The sum equals the per-write latencies
  /// because one call carries one data value.
  Ns write_lines(const pcm::LineData& data, u64 writes, pcm::PcmBank& bank);

  /// write_lines() for one windowed chunk, recorded as a BatchChunkApplied
  /// event (a = phase, b = writes) inside a BatchChunk span over the
  /// chunk's latency window; `base` is the op's latency at chunk entry.
  Ns apply_chunk(const pcm::LineData& data, u64 chunk, pcm::PcmBank& bank, Ns base);

  /// The windowed loop: continues the pattern from the window's phase for
  /// `count` more writes, accumulating into `out`.
  void cycle_windowed(std::span<const La> pattern, const pcm::LineData& data, u64 count,
                      pcm::PcmBank& bank, BulkOutcome& out);

  /// The epoch loop (DESIGN.md §15).
  BulkOutcome cycle_epoch(std::span<const La> pattern, const pcm::LineData& data, u64 count,
                          pcm::PcmBank& bank);

  u32 boost_{0};
  batch::Window window_;
  /// Cross-call proof cache for exact-replay folds: short bulk bursts
  /// (BPA's probes) re-enter the epoch loop without re-paying the
  /// O(physical lines) headroom scan.
  epoch::CallCache proof_cache_;
};

template <typename S>
BulkOutcome BulkEngine<S>::write_batch(std::span<const La> las, const pcm::LineData& data,
                                       pcm::PcmBank& bank) {
  for (const La la : las) check_address(la);
  if (tier_ == EngineTier::kReference) return WearLeveler::write_batch(las, data, bank);
  // One inlined per-write body per address. Only where the next address
  // repeats is the run measured: a run of kRunThreshold or more (a hammer
  // phase embedded in a mixed stream) takes the write_cycle() fast path.
  // Stops after the write that records a failure, exactly like the
  // per-write reference loop. `d` is a local, so the bank's stores cannot
  // make the loop re-read the data through its reference.
  const pcm::LineData d = data;
  BulkOutcome out;
  const u64 n = las.size();
  for (u64 i = 0; i < n && !bank.has_failure();) {
    const u64 la = las[i].value();
    if (i + 1 < n && las[i + 1].value() == la) {
      u64 run = 2;
      while (i + run < n && las[i + run].value() == la) ++run;
      if (run >= batch::kRunThreshold) {
        const BulkOutcome b = write_cycle(las.subspan(i, 1), d, run, bank);
        out.total += b.total;
        out.writes_applied += b.writes_applied;
        out.movements += b.movements;
        i += run;
        continue;
      }
    }
    const WriteOutcome w = write_one(la, d, bank);
    out.total += w.total;
    out.movements += w.movements;
    ++out.writes_applied;
    ++i;
  }
  return out;
}

template <typename S>
BulkOutcome BulkEngine<S>::write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                                       u64 count, pcm::PcmBank& bank) {
  if (count == 0) return {};
  check(!pattern.empty(), "write_cycle: empty pattern with writes requested");
  for (const La la : pattern) check_address(la);
  // Schemes without an epoch fold run the epoch tier as the windowed one.
  const EngineTier tier =
      S::kFold == Fold::kNone && tier_ == EngineTier::kEpoch ? EngineTier::kWindowed : tier_;
  bool long_pattern = false;
  if constexpr (S::kDomainCounters || S::kGlobalCounter) {
    u64 iv = batch::kUnbounded;
    if constexpr (S::kDomainCounters) iv = std::min(iv, self().domain_interval());
    if constexpr (S::kGlobalCounter) iv = std::min(iv, self().global_interval());
    long_pattern = pattern.size() > batch::kPatternFallbackFactor * iv;
  }
  if (tier == EngineTier::kReference || (long_pattern && tier == EngineTier::kWindowed)) {
    return WearLeveler::write_cycle(pattern, data, count, bank);
  }
  if (long_pattern) {
    epoch::span_fallback_begin(tel_, tel_id_, 0,
                               telemetry::FallbackReason::kNonPeriodicPattern);
    const BulkOutcome ref = WearLeveler::write_cycle(pattern, data, count, bank);
    epoch::span_fallback_end(tel_, tel_id_, ref.total.value(),
                             telemetry::FallbackReason::kNonPeriodicPattern);
    return ref;
  }
  window_.phase = 0;
  if constexpr (S::kFold != Fold::kNone) {
    // A closed-form fold opens with an O(physical lines) uniform-content
    // scan per call; bursts too short to amortize it (BPA's 256-write
    // probes) take the windowed loop instead — same outcomes, no scan.
    // Exact-replay folds amortize their scan across calls instead.
    if (tier == EngineTier::kEpoch &&
        (S::kFold == Fold::kExactReplay || count >= self().physical_lines())) {
      return cycle_epoch(pattern, data, count, bank);
    }
  }
  BulkOutcome out;
  cycle_windowed(pattern, data, count, bank, out);
  return out;
}

template <typename S>
bool BulkEngine<S>::refresh(std::span<const La> pattern, const pcm::PcmBank& bank) {
  batch::Window& w = window_;
  const u64 period = pattern.size();
  w.pas_fresh.resize(period);
  w.keys_fresh.resize(period);
  w.ias.resize(period);
  for (u64 i = 0; i < period; ++i) {
    const Loc loc = self().locate(pattern[i].value());
    w.pas_fresh[i] = loc.pa;
    w.keys_fresh[i] = loc.dom;
    w.ias[i] = loc.ia;
  }
  if constexpr (S::kDomainCounters) {
    if (batch::adopt_if_changed(w.keys, w.keys_fresh)) batch::build_domain_scheds(w);
  }
  if (!batch::adopt_if_changed(w.pas, w.pas_fresh)) return false;
  batch::build_line_scheds(w, bank);
  return true;
}

template <typename S>
Ns BulkEngine<S>::write_lines(const pcm::LineData& data, u64 writes, pcm::PcmBank& bank) {
  Ns total{0};
  for (auto& ls : window_.lines) {
    const u64 h = ls.hits.hits_in(window_.phase, writes);
    if (h == 0) continue;
    total += bank.bulk_write(ls.pa, data, h);
    self().note_data_writes(ls.pa, h);
    ls.remaining = ls.remaining > h ? ls.remaining - h : 0;
  }
  return total;
}

template <typename S>
Ns BulkEngine<S>::apply_chunk(const pcm::LineData& data, u64 chunk, pcm::PcmBank& bank,
                              Ns base) {
  const bool traced = tel_ != nullptr && chunk > 0;
  if (traced) {
    tel_->span_begin(telemetry::SpanKind::kBatchChunk, tel_id_, telemetry::kGlobalDomain,
                     base.value(), chunk);
    tel_->emit(telemetry::EventType::kBatchChunkApplied, tel_id_, telemetry::kGlobalDomain,
               window_.phase, chunk);
  }
  const Ns total = write_lines(data, chunk, bank);
  if (traced) {
    tel_->span_end(telemetry::SpanKind::kBatchChunk, tel_id_, telemetry::kGlobalDomain,
                   base.value() + total.value(), chunk);
  }
  return total;
}

template <typename S>
void BulkEngine<S>::cycle_windowed(std::span<const La> pattern, const pcm::LineData& data,
                                   u64 count, pcm::PcmBank& bank, BulkOutcome& out) {
  S& s = self();
  batch::Window& w = window_;
  const u64 period = pattern.size();
  w.invalidate();
  bool rebuild = true;
  u64 applied = 0;
  while (applied < count && !bank.has_failure()) {
    if (rebuild) {
      refresh(pattern, bank);
      rebuild = false;
    }
    // One maximal window: up to the earliest trigger of any level, then
    // cut at the exact write that crosses a line's endurance limit.
    u64 chunk = count - applied;
    if constexpr (S::kGlobalCounter) {
      const u64 iv = s.global_interval();
      const u64 c = s.global_counter();
      chunk = std::min(chunk, c >= iv ? 1 : iv - c);
    }
    if constexpr (S::kDomainCounters) {
      const u64 iv = s.domain_interval();
      for (const auto& d : w.doms) {
        const u64 c = s.domain_counter(d.key);
        chunk = std::min(chunk, d.hits.until_nth(w.phase, c >= iv ? 1 : iv - c));
      }
    }
    chunk = batch::cap_chunk_at_failure(w.lines, w.phase, chunk);
    out.total += apply_chunk(data, chunk, bank, out.total);
    applied += chunk;
    const u64 chunk_phase = w.phase;
    w.phase = (w.phase + chunk) % period;
    // Fire what the chunk made due, even when its last write recorded the
    // failure, exactly as write() would. A domain whose counter sits past
    // a shrunken interval (detector boost raised mid-stream) but took no
    // write in this chunk waits for its next write, like the per-write
    // path.
    u64 moved = 0;
    if constexpr (S::kDomainCounters) {
      for (const auto& d : w.doms) {
        const u64 h = d.hits.hits_in(chunk_phase, chunk);
        if (h == 0) continue;
        s.domain_counter(d.key) += h;
        out.total += fire_due(d.key, false, bank, moved);
      }
    }
    if constexpr (S::kGlobalCounter) {
      s.global_counter() += chunk;
      out.total += fire_due(batch::kNoDomain, true, bank, moved);
    }
    out.movements += moved;
    // Skipped steps move nothing and leave every schedule exact.
    rebuild = moved > 0;
  }
  out.writes_applied += applied;
}

template <typename S>
BulkOutcome BulkEngine<S>::cycle_epoch(std::span<const La> pattern, const pcm::LineData& data,
                                       u64 count, pcm::PcmBank& bank) {
  constexpr bool kExact = S::kFold == Fold::kExactReplay;
  S& s = self();
  batch::Window& w = window_;
  const u64 period = pattern.size();
  BulkOutcome out;

  // One proof authorizes every jump of the call. Closed-form folds need
  // (1) uniform content over the movement slots, so folded moves and
  // swaps neither change bank data nor vary in latency, and (2) a
  // headroom budget, so unchecked aggregate wear cannot push a movement
  // slot past its endurance limit. Exact-replay folds re-read every
  // source from the bank, so they need only (2).
  epoch::HeadroomBudget budget;
  pcm::LineData uniform{};

  const auto fold_headroom = [&](u64 slot) {
    const u64 limit = bank.line_endurance(Pa{slot});
    const u64 wear = bank.wear(Pa{slot});
    const u64 h = limit > wear ? limit - wear : 0;
    if (h < budget.remaining()) budget.seed(h);
  };
  // Scan exclusions: the pattern's slots, whose wear and content the
  // loop tracks exactly, plus the scheme's stale slots.
  const auto collect_slots = [&] {
    w.slots.clear();
    for (const auto& ls : w.lines) w.slots.push_back(ls.pa.value());
    s.for_each_stale_slot(w, [&](u64 slot) { w.slots.push_back(slot); });
    std::sort(w.slots.begin(), w.slots.end());
    w.slots.erase(std::unique(w.slots.begin(), w.slots.end()), w.slots.end());
  };
  // Exact-replay folds scan only headroom, which never fails: a polluted
  // or near-worn bank just gets a small budget and tails sooner.
  const auto prove = [&](telemetry::FallbackReason reason) {
    collect_slots();
    const epoch::ScanResult scan =
        epoch::scan_slots(bank, s.physical_lines(), w.slots, !kExact);
    if (!scan.uniform) return false;
    uniform = scan.content;
    budget.seed(scan.min_headroom);
    s.for_each_stale_slot(w, fold_headroom);
    epoch::emit_projection(tel_, tel_id_, telemetry::kGlobalDomain, out.total.value(),
                           count - out.writes_applied, reason);
    return true;
  };
  // Hands the rest of the call to the exact windowed loop.
  const auto windowed_tail = [&](telemetry::FallbackReason reason) {
    epoch::span_fallback_begin(tel_, tel_id_, out.total.value(), reason);
    cycle_windowed(pattern, data, count - out.writes_applied, bank, out);
    epoch::span_fallback_end(tel_, tel_id_, out.total.value(), reason);
  };
  // Endurance cap over the pattern lines: the writes, from the window's
  // phase, up to the one whose hit records the bank's first failure.
  // `until_nth` counts from a jump's phase, so one bound covers every
  // segment of the jump.
  const auto fail_cap = [&] {
    u64 cap = batch::kUnbounded;
    for (const auto& ls : w.lines) {
      cap = std::min(cap, ls.hits.until_nth(w.phase, ls.remaining));
    }
    return cap;
  };
  const auto overrun = [&] {  // an interval shrank below a carried counter
    if constexpr (S::kGlobalCounter) {
      if (s.global_counter() >= s.global_interval()) return true;
    }
    if constexpr (S::kDomainCounters) {
      for (const auto& d : w.doms) {
        if (s.domain_counter(d.key) >= s.domain_interval()) return true;
      }
    }
    return false;
  };

  w.invalidate();
  // An exact-replay proof survives across calls when nothing wrote to the
  // bank in between. Its exclusion set comes back with it, so the first
  // refresh folds in the headroom of every slot this call's pattern no
  // longer excludes.
  bool proven = kExact && proof_cache_.restore(bank, budget, w.slots);
  bool rebuild = true;
  while (out.writes_applied < count && !bank.has_failure()) {
    if (rebuild) {
      if (refresh(pattern, bank) && proven) {
        // Slots leaving the excluded set re-join the movement set with
        // their accumulated wear; fold their headroom into the budget.
        // New exclusions (fresh pattern slots, moved gaps) only shrink
        // the scanned set, which is always safe.
        w.prev_slots.swap(w.slots);
        collect_slots();
        for (const u64 slot : w.prev_slots) {
          if (!std::binary_search(w.slots.begin(), w.slots.end(), slot)) fold_headroom(slot);
        }
        s.for_each_stale_slot(w, fold_headroom);
      }
      rebuild = false;
    }
    if (!proven) {
      // A proof costs an O(physical lines) scan. A call that fails within
      // that many writes cannot amortize it (the closed form's dispatch
      // rule), so the exact tail takes it before any scan.
      if (fail_cap() <= std::min(count, s.physical_lines())) {
        windowed_tail(telemetry::FallbackReason::kNearFailure);
        return out;
      }
      // An exact-replay fold reaches here only on a cold cross-call cache.
      if (!prove(kExact ? telemetry::FallbackReason::kCacheMiss
                        : telemetry::FallbackReason::kNone)) {
        windowed_tail(telemetry::FallbackReason::kNonUniformContent);
        return out;
      }
      proven = true;
    }
    if (overrun()) {
      windowed_tail(telemetry::FallbackReason::kPsiChange);
      return out;
    }
    const EpochPlan plan = s.epoch_plan(w, count - out.writes_applied);
    const u64 lfail = fail_cap();
    const u64 jump_t0 = out.total.value();
    u64 done = 0;
    u64 steps = 0;
    bool near_failure = false;
    while (done < plan.jump) {
      const u64 seg = s.epoch_segment(plan, done);
      // A pattern line fails inside the segment, or a movement slot is
      // genuinely near failure: the exact tail takes over.
      if (lfail <= done + seg ||
          (plan.cost > 0 && !budget.spend(plan.cost) &&
           !(prove(telemetry::FallbackReason::kNone) && budget.spend(plan.cost)))) {
        near_failure = true;
        break;
      }
      // Pattern wear/data: one failure-checked bulk write per distinct PA.
      out.total += write_lines(data, seg, bank);
      const FoldResult f = s.epoch_fold(plan, w, done, seg, uniform, bank, out);
      steps += f.steps;
      done += seg;
      w.phase = (w.phase + seg) % period;
      if (f.stop) {
        rebuild = true;
        break;
      }
    }
    out.writes_applied += done;
    if (done > 0) {
      const u64 live = u64{plan.live_dom != batch::kNoDomain} + u64{plan.live_global};
      epoch::emit_jump(tel_, tel_id_, telemetry::kGlobalDomain, done, steps + live, jump_t0,
                       out.total.value());
    }
    if (near_failure) {
      windowed_tail(telemetry::FallbackReason::kNearFailure);
      return out;
    }
    // The live trigger(s) at the jump's last write replay exactly, in
    // write()'s order; the fold left their counters due.
    u64 moved = 0;
    out.total += fire_due(plan.live_dom, plan.live_global, bank, moved);
    out.movements += moved;
    if (moved > 0) rebuild = true;
  }
  if (kExact && proven && !bank.has_failure()) proof_cache_.save(bank, budget, w.slots);
  return out;
}

}  // namespace srbsg::wl
