#pragma once
// Proof machinery for the engine's epoch tier (wl/engine.hpp, DESIGN.md
// §15): the movement-slot scan, the headroom budget it seeds, the
// cross-call proof cache, and the tier's telemetry.

#include <span>
#include <vector>

#include "common/types.hpp"
#include "pcm/bank.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::wl::epoch {

/// Result of one scan over the movement slots.
struct ScanResult {
  bool uniform{false};      ///< every scanned slot holds `content` (or none was asked)
  pcm::LineData content{};  ///< the shared content V; valid iff `uniform`
  u64 min_headroom{0};      ///< smallest limit−wear margin over scanned slots
};

/// Scans physical lines [0, phys_lines) minus the strictly increasing
/// `exclude_sorted` slots (pattern lines and stale gaps — the slots the
/// engine tracks exactly) for their smallest headroom. With
/// `need_uniform` it also proves that every scanned slot holds one
/// content value, and stops at the first that differs (`uniform` stays
/// false). Without, it never fails: a tiny result simply exhausts the
/// budget sooner. O(lines), run once per bulk call and amortized over
/// every jump inside it.
[[nodiscard]] ScanResult scan_slots(const pcm::PcmBank& bank, u64 phys_lines,
                                    std::span<const u64> exclude_sorted, bool need_uniform);

/// Writes-to-failure budget for movement slots. Seeded from a min-headroom
/// scan and spent conservatively (worst-case wear per jump); when a spend
/// would leave no margin the caller re-scans or falls back. record_wear()
/// fails a line when wear *reaches* its limit, so `spend` succeeds only
/// while at least one write of margin remains after the cost.
class HeadroomBudget {
 public:
  void seed(u64 min_headroom) { budget_ = min_headroom; }
  [[nodiscard]] bool spend(u64 cost) {
    if (budget_ <= cost) return false;
    budget_ -= cost;
    return true;
  }
  [[nodiscard]] u64 remaining() const { return budget_; }

 private:
  u64 budget_{0};
};

/// Cross-call proof cache. A fully-epoch call leaves the bank in a
/// settled state whose headroom proof — the remaining conservative budget
/// and the slots it excluded — is still valid when the next bulk call
/// arrives, unless anything wrote to the bank in between. Validity is
/// established with the bank's (address, incarnation, mutation_seq)
/// stamp, so attack loops probing in short write_cycle bursts (BPA's
/// 256-write chunks) pay the O(lines) headroom scan once instead of per
/// call, while any out-of-band mutation (other entry points, direct pokes
/// in tests) changes the stamp and forces a fresh scan. The exclusion set
/// travels with the budget: a new pattern returns the previous pattern's
/// slots to the movement pool, so the caller must fold their headroom in
/// before spending the budget on them.
class CallCache {
 public:
  /// Adopt the saved proof iff `bank` is bit-for-bit the state save()
  /// saw: the budget, and in `excluded` the sorted slots it does not cover.
  [[nodiscard]] bool restore(const pcm::PcmBank& bank, HeadroomBudget& budget,
                             std::vector<u64>& excluded);
  /// Record the proof after the final write of a fully-epoch call.
  void save(const pcm::PcmBank& bank, const HeadroomBudget& budget,
            std::span<const u64> excluded);

 private:
  const pcm::PcmBank* bank_{nullptr};
  u64 incarnation_{0};
  u64 seq_{0};
  u64 budget_{0};
  std::vector<u64> excluded_;
};

/// Emit one kEpochApplied event (a = writes jumped, b = remap steps
/// folded into the jump) bracketed by a RemapEpoch span over the jump's
/// intra-op latency window [t0_ns, t1_ns] (offsets from op entry).
/// Null-recorder safe, like every scheme emission.
void emit_jump(telemetry::Recorder* tel, u16 scheme, u32 domain, u64 writes, u64 steps,
               u64 t0_ns, u64 t1_ns);

/// Emit a zero-duration EpochProjection span at latency offset
/// `offset_ns`: the epoch tier just (re)proved its analytic projection
/// over the remaining `writes`. `reason` is kNone for a scheduled scan,
/// kCacheMiss when a cold cross-call cache forced it.
void emit_projection(telemetry::Recorder* tel, u16 scheme, u32 domain, u64 offset_ns,
                     u64 writes, telemetry::FallbackReason reason);

/// ExactReplayFallback span delimiters: the epoch tier hands the rest of
/// the call to the exact windowed/reference engine for `reason`. Both
/// take intra-op latency offsets; schemes must call them in matched
/// pairs on every path (the a11-span check enforces post-domination).
void span_fallback_begin(telemetry::Recorder* tel, u16 scheme, u64 offset_ns,
                         telemetry::FallbackReason reason);
void span_fallback_end(telemetry::Recorder* tel, u16 scheme, u64 offset_ns,
                       telemetry::FallbackReason reason);

}  // namespace srbsg::wl::epoch
