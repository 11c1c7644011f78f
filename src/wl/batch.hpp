#pragma once
// Hit schedules for the bulk-write engine (wl/engine.hpp).
//
// A periodic pattern of L addresses is described by *hit schedules*: for
// each distinct physical line (and each remap-counter domain) the sorted
// pattern offsets it occupies. Closed-form circular-range counting then
// answers, in O(log L), the two questions the windowed engine needs:
//   * how many of the next `writes` writes hit this line/domain, and
//   * after how many writes does the n-th hit land.
// Windows end at the earliest remap trigger or at the exact write that
// crosses a line's endurance limit, so the engine applies bulk writes
// with zero overshoot and fires triggers precisely where the per-write
// reference loop would — the bit-identity contract of DESIGN.md §11.

#include <span>
#include <vector>

#include "common/types.hpp"
#include "pcm/bank.hpp"

namespace srbsg::wl::batch {

/// "No bound" sentinel for until_nth() when the schedule is empty.
inline constexpr u64 kUnbounded = ~u64{0};

/// Domain key marking a pattern position that advances no remap counter
/// (e.g. the Security-RBSG outer spare line).
inline constexpr u64 kNoDomain = ~u64{0};

/// Minimum run of identical addresses for which write_batch() delegates
/// to the event-driven write_cycle() fast path.
inline constexpr u64 kRunThreshold = 16;

/// A pattern whose period exceeds this multiple of the smallest effective
/// remapping interval gains nothing from windowing (every window would
/// rescan O(L) schedules); the engine falls back to the generic per-write
/// loop beyond it.
inline constexpr u64 kPatternFallbackFactor = 4;

/// Sorted pattern offsets (subset of [0, period)) hit by one line/domain.
class HitSet {
 public:
  /// Refills the set in place, keeping its storage: `offsets` strictly
  /// increasing, all < `period`.
  void assign(std::span<const u64> offsets, u64 period);

  [[nodiscard]] std::span<const u64> offsets() const { return offs_; }
  [[nodiscard]] u64 period() const { return period_; }
  [[nodiscard]] u64 per_period() const { return offs_.size(); }
  [[nodiscard]] bool empty() const { return offs_.empty(); }

  /// Hits among the next `writes` writes when the cycle is at `start`.
  [[nodiscard]] u64 hits_in(u64 start, u64 writes) const;

  /// Writes needed (from phase `start`) so that the n-th hit (n >= 1) has
  /// just been applied; kUnbounded when the set is empty or the value
  /// would overflow.
  [[nodiscard]] u64 until_nth(u64 start, u64 n) const;

 private:
  std::vector<u64> offs_;  ///< strictly increasing, all < period_
  u64 period_{1};
};

/// Per-distinct-physical-line schedule plus the writes this line can
/// still absorb before it records the bank's first endurance failure.
struct LineSched {
  Pa pa{0};
  HitSet hits;
  u64 remaining{0};
};

/// Per-remap-counter-domain schedule (domain = whatever unit owns one
/// write counter: an RBSG region, an SR sub-region, the global counter).
struct DomainSched {
  u64 key{0};
  HitSet hits;
};

/// Movement-triggered rebuild guard. Recompute the pattern's mapping into
/// `fresh` (sized to the period) and call this; it adopts `fresh` by swap
/// and returns true when the cached values differ or `cached` is empty
/// (first build). Most movements relocate lines outside the pattern:
/// translations are unchanged, and since a movement only writes slots it
/// remapped (or the previously empty gap/spare slot), unchanged
/// translations also mean the pattern's physical lines took no wear from
/// it — every schedule, including the incrementally maintained
/// `remaining`, stays exact and need not be rebuilt.
template <typename T>
[[nodiscard]] bool adopt_if_changed(std::vector<T>& cached, std::vector<T>& fresh) {
  if (!cached.empty() && cached == fresh) return false;
  cached.swap(fresh);
  return true;
}

/// Largest prefix of `chunk` writes (from phase `start`) that stops
/// exactly at the first write crossing any line's endurance limit — the
/// same write the per-write reference loop would stop after.
[[nodiscard]] u64 cap_chunk_at_failure(std::span<const LineSched> lines, u64 start, u64 chunk);

/// A periodic pattern's current mapping and hit schedules: the state the
/// engine's windowed and epoch loops share, and the view a scheme's epoch
/// plan/fold reads. Owned by the engine and reused across calls, so the
/// buffers keep their capacity and schedule rebuilds allocate nothing
/// once they have; invalidate() on entry forces the first refresh to
/// rebuild every schedule from the bank's current wear.
struct Window {
  u64 phase{0};                   ///< pattern offset of the next write
  std::vector<Pa> pas;            ///< current PA per pattern position
  std::vector<u64> keys;          ///< counter domain per position (kNoDomain: none)
  std::vector<u64> ias;           ///< outer-level (intermediate) address per position
  std::vector<DomainSched> doms;  ///< per-domain hit schedules
  std::vector<LineSched> lines;   ///< per-distinct-PA hit schedules
  // Working buffers for refreshes, schedule grouping and the epoch
  // loop's scan-exclusion sets.
  std::vector<Pa> pas_fresh;
  std::vector<u64> keys_fresh;
  std::vector<u64> order;
  std::vector<u64> slots;
  std::vector<u64> prev_slots;

  void invalidate() {
    pas.clear();
    keys.clear();
    ias.clear();
    slots.clear();
  }
};

/// Groups the positions of `w.pas` by physical line into `w.lines`, in
/// ascending PA order, with `remaining` from the bank's current wear.
/// Reuses the existing schedules' storage.
void build_line_scheds(Window& w, const pcm::PcmBank& bank);

/// Groups the positions of `w.keys` by domain into `w.doms`, in ascending
/// key order; positions keyed kNoDomain are excluded. Reuses the existing
/// schedules' storage.
void build_domain_scheds(Window& w);

}  // namespace srbsg::wl::batch
