#pragma once
// Common interface for wear-leveling schemes.
//
// A scheme owns the logical→physical translation state and the remapping
// triggers; the PCM bank is passed into every operation so schemes stay
// decoupled from storage. The `WriteOutcome::stall` field is the timing
// side channel the Remapping Timing Attack observes: remap movements halt
// the triggering request (paper §III), so their latency is added to it.

#include <span>
#include <string_view>
#include <utility>

#include "common/types.hpp"
#include "pcm/bank.hpp"
#include "pcm/timing.hpp"

namespace srbsg::telemetry {
class Recorder;
}

namespace srbsg::wl {

/// Which bulk-write engine a scheme runs under (DESIGN.md §15). All
/// tiers are bit-identical in outcome; they differ only in cost. The
/// epoch tier is the default.
enum class EngineTier : u8 {
  kReference,  ///< per-write loop — the ground-truth semantics
  kWindowed,   ///< windowed engine: O(remap triggers) chunks
  kEpoch,      ///< epoch fast-forward: analytic jumps over whole remap
               ///< epochs, falling back to the windowed tier near
               ///< failure, boundaries, and inexpressible state
};

[[nodiscard]] std::string_view to_string(EngineTier tier);
/// Parses "reference|windowed|epoch"; throws on unknown names.
[[nodiscard]] EngineTier parse_engine_tier(std::string_view name);

struct WriteOutcome {
  /// Latency observed by the requester (data write + remap stall).
  Ns total{0};
  /// Extra latency contributed by remap movements triggered by this write.
  Ns stall{0};
  /// Number of remap movements this write triggered (usually 0 or 1).
  u32 movements{0};
};

struct BulkOutcome {
  /// Total simulated time for the applied writes (including remap stalls).
  Ns total{0};
  /// Writes actually applied (< requested when the bank failed mid-bulk).
  u64 writes_applied{0};
  /// Remap movements performed during the bulk.
  u64 movements{0};
};

class WearLeveler {
 public:
  virtual ~WearLeveler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Number of logical lines exposed to software.
  [[nodiscard]] virtual u64 logical_lines() const = 0;

  /// Physical lines the backing bank must provide (logical + spares).
  [[nodiscard]] virtual u64 physical_lines() const = 0;

  /// Current logical→physical translation (inspection/testing only; the
  /// attack code never calls this — it works from observed latencies).
  [[nodiscard]] virtual Pa translate(La la) const = 0;

  /// One write of `data` to `la`: performs the data write, advances the
  /// remap counters, and executes any triggered remap movement(s).
  virtual WriteOutcome write(La la, const pcm::LineData& data, pcm::PcmBank& bank) = 0;

  /// `count` consecutive writes of identical data to `la`: write_cycle()
  /// with a one-element pattern, under the same bit-identity contract —
  /// it stops right after the write that records a failure.
  virtual BulkOutcome write_repeated(La la, const pcm::LineData& data, u64 count,
                                     pcm::PcmBank& bank);

  /// One write of `data` to each address in `las`, in order. Bit-identical
  /// to the per-write reference loop
  ///   `for (la : las) { if (bank.has_failure()) break; write(la, ...); }`
  /// in wear counts, movements and total latency — including the exact
  /// stop after the write that records the failure (whose due remap
  /// movement still fires, as in write()). The base class is that loop;
  /// the schemes' engine (wl/engine.hpp) validates every address
  /// up-front, inlines the per-write body and sends runs of >= 16
  /// identical addresses through write_cycle(). Partial application
  /// before an out-of-range throw is unspecified.
  virtual BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data,
                                  pcm::PcmBank& bank);

  /// `count` writes of `data` cycling through `pattern`: write #k targets
  /// pattern[k % pattern.size()], and the final cycle may be partial.
  /// Same bit-identity contract as write_batch() versus the per-write
  /// reference loop. The engine applies per-line bulk writes between
  /// remap triggers (or jumps whole epochs), so periodic hammer loops
  /// cost O(remap events + pattern length) instead of O(count); patterns
  /// much longer than the remapping interval fall back to the per-write
  /// loop (see batch::kPatternFallbackFactor).
  virtual BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                                  u64 count, pcm::PcmBank& bank);

  /// Read through the translation (no wear, no counter advance).
  [[nodiscard]] std::pair<pcm::LineData, Ns> read(La la, const pcm::PcmBank& bank) const;

  /// Online-attack-detector hook (Qureshi et al., HPCA'11): divide the
  /// remapping interval(s) by 2^log2_divisor, speeding up wear leveling
  /// while a suspicious write stream is active. Schemes that support
  /// adaptive rates override this; the default ignores it.
  virtual void set_rate_boost(u32 log2_divisor) { (void)log2_divisor; }

  /// Scheme-specific invariant audit: throws CheckFailure when internal
  /// state (gap bounds, key/round consistency, table inversions, ...) is
  /// corrupt. Called by the audit::AuditingWearLeveler on its cadence and
  /// free to be O(lines) — it never runs on the simulation fast path.
  virtual void validate_state() const {}

  /// Physical line writes one remap movement costs on the bank: 1 for
  /// move-based schemes (Start-Gap family), 2 for swap-based schemes
  /// (Security Refresh family, table WL). The auditor uses this for the
  /// wear-conservation identity
  ///   bank writes == data writes issued + movements * writes_per_movement.
  [[nodiscard]] virtual u32 writes_per_movement() const { return 1; }

  /// Select the bulk-write engine for write_repeated/write_batch/
  /// write_cycle. Virtual so wrappers (audit, verify mutants) forward to
  /// the scheme they decorate. Schemes without an epoch fold treat
  /// kEpoch as kWindowed — every tier keeps the bit-identity contract.
  virtual void set_engine_tier(EngineTier tier) { tier_ = tier; }
  [[nodiscard]] EngineTier engine_tier() const { return tier_; }

  /// Attach (or detach, with nullptr) a telemetry recorder. Recording is
  /// observation-only: it never changes translations, counters, timing
  /// or RNG consumption, and the disabled cost is one null check per
  /// remap event. Virtual so wrappers (audit) can forward to the scheme
  /// they decorate.
  virtual void attach_telemetry(telemetry::Recorder* recorder);

 protected:
  /// Null when telemetry is off; schemes guard every emission on it.
  telemetry::Recorder* tel_{nullptr};
  /// Recorder intern id of name(), valid while `tel_` is non-null.
  u16 tel_id_{0};
  /// Engine tier for the bulk-write entry points.
  EngineTier tier_{EngineTier::kEpoch};
};

}  // namespace srbsg::wl
