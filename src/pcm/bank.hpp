#pragma once
// Line-granularity PCM bank: data classes, per-line wear counters,
// endurance tracking, and the bulk-write fast path that makes exact
// to-failure simulation feasible.

#include <optional>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "pcm/config.hpp"
#include "pcm/timing.hpp"

namespace srbsg::pcm {

/// A PCM bank of `total_lines` physical lines. The bank does not know
/// about address translation — all addresses here are physical. Writes
/// past the endurance limit are recorded (first failed line + the wear
/// overshoot) rather than thrown, so the harness can pinpoint the exact
/// failure instant inside a bulk write.
///
/// Banks are heavy (paper scale is ~100 MB of vectors) and recyclable:
/// reset(cfg, total_lines) re-targets an existing bank at a new
/// configuration without reallocating, which is what sim::WorkerArena
/// builds on. Copying is disabled — a silent 100 MB copy is never what a
/// caller wants; moves are cheap and re-sync the endurance lookup.
class PcmBank {
 public:
  PcmBank(const PcmConfig& cfg, u64 total_lines);

  PcmBank(const PcmBank&) = delete;
  PcmBank& operator=(const PcmBank&) = delete;
  PcmBank(PcmBank&& other) noexcept;
  PcmBank& operator=(PcmBank&& other) noexcept;

  [[nodiscard]] const PcmConfig& config() const { return cfg_; }
  [[nodiscard]] u64 total_lines() const { return data_.size(); }

  /// Write `data` into line `pa`; returns data-dependent latency.
  Ns write(Pa pa, const LineData& data) {
    record_wear(pa, 1);
    data_[pa.value()] = data;
    return write_latency(cfg_, data.cls);
  }

  /// `count` consecutive writes of the same data to the same line.
  /// Equivalent to calling write() `count` times; O(1).
  Ns bulk_write(Pa pa, const LineData& data, u64 count) {
    if (count == 0) return Ns{0};
    record_wear(pa, count);
    data_[pa.value()] = data;
    return write_latency(cfg_, data.cls) * count;
  }

  /// Read the line; returns {data, latency}.
  [[nodiscard]] std::pair<LineData, Ns> read(Pa pa) const;

  /// Remap movement: copy line `from` into line `to` (read + write).
  /// `from` keeps its data (the algorithms treat the source as the new
  /// gap; its stale content is never read again).
  Ns move_line(Pa from, Pa to);

  /// Security-Refresh movement: swap the contents of two lines
  /// (two reads + two writes, both destinations wear by one).
  Ns swap_lines(Pa a, Pa b);

  // --- Epoch-engine aggregate primitives (DESIGN.md §15) ------------
  // The epoch fast-forward engine proves, before each jump, that no line
  // the jump touches can reach its endurance limit inside it; it then
  // applies the jump's wear without per-write failure checks and settles
  // total_writes in one add. All other callers use the checked
  // write/move/swap entry points above.

  /// Smallest writes-to-failure margin over `count` lines from `base`
  /// (limit - wear, floored at 0 for lines at or past their limit).
  [[nodiscard]] u64 min_headroom(Pa base, u64 count) const;

  /// Contiguous unchecked wear: lines [base, base+count) each gain
  /// `per_line`; total_writes advances by count * per_line.
  void add_wear_range_unchecked(Pa base, u64 count, u64 per_line);

  /// Raw wear counters for scattered unchecked adds (SR swap sweeps);
  /// pair with note_writes_unchecked() so total_writes stays exact.
  [[nodiscard]] std::span<u64> wear_mut() {
    ++mut_seq_;
    return wear_;
  }
  void note_writes_unchecked(u64 count) {
    ++mut_seq_;
    total_writes_ += count;
  }

  /// Set a line's content without wear or latency — settles the one slot
  /// whose content a fully aggregated gap sweep actually changes.
  void poke_data(Pa pa, const LineData& data) {
    ++mut_seq_;
    data_[pa.value()] = data;
  }

  [[nodiscard]] u64 wear(Pa pa) const { return wear_[pa.value()]; }
  [[nodiscard]] std::span<const u64> wear_counts() const { return wear_; }
  [[nodiscard]] const LineData& data(Pa pa) const { return data_[pa.value()]; }
  /// Endurance limit of one line (constant unless variation is enabled).
  [[nodiscard]] u64 line_endurance(Pa pa) const;

  [[nodiscard]] bool has_failure() const { return first_failure_.has_value(); }
  /// Physical line that first reached the endurance limit.
  [[nodiscard]] Pa first_failed_line() const;
  /// How many writes past the failure instant the failing line received
  /// during the operation that killed it (0 when it failed exactly on its
  /// last write). Lets callers rewind simulated time to the true instant.
  [[nodiscard]] u64 failure_overshoot() const { return failure_overshoot_; }

  [[nodiscard]] u64 total_writes() const { return total_writes_; }
  [[nodiscard]] u64 max_wear() const;

  /// Reset wear, data and failure state (config unchanged).
  void reset();

  /// Re-target the bank at (cfg, total_lines) in place. Buffers are
  /// reused — no reallocation when the existing capacity suffices — and
  /// the per-line endurance-variation table is kept when the draw would
  /// be identical (same endurance mean, variation coefficient, variation
  /// seed and line count). The result is indistinguishable from a
  /// freshly constructed PcmBank(cfg, total_lines).
  void reset(const PcmConfig& cfg, u64 total_lines);

  /// Times the endurance-variation table has been (re)generated over this
  /// bank's lifetime — lets the sweep arena assert table reuse.
  [[nodiscard]] u64 endurance_rebuilds() const { return endurance_rebuilds_; }

  /// Identity/mutation stamp for content-dependent caches (the epoch
  /// engines' cross-call scan cache, DESIGN.md §15). `incarnation` is
  /// unique per (re)configuration — no two bank incarnations in the
  /// process ever share one — and `mutation_seq` advances on every
  /// mutating entry point, unchecked wear adds and data pokes included.
  /// State recorded at (address, incarnation, mutation_seq) is therefore
  /// bit-identical iff all three still match.
  [[nodiscard]] u64 incarnation() const { return incarnation_; }
  [[nodiscard]] u64 mutation_seq() const { return mut_seq_; }

 private:
  void reconfigure(const PcmConfig& cfg, u64 total_lines);
  void regenerate_endurance(u64 total_lines);
  /// The wear every write path records: `count` writes to `pa`, and the
  /// first failure with its overshoot when the line reaches its limit.
  void record_wear(Pa pa, u64 count) {
    SRBSG_DCHECK(pa.value() < wear_.size(), "PcmBank: physical address out of range");
    ++mut_seq_;
    u64& w = wear_[pa.value()];
    w += count;
    total_writes_ += count;
    const u64 limit = endurance_lut_ ? endurance_lut_[pa.value()] : uniform_endurance_;
    if (!first_failure_ && w >= limit) [[unlikely]] {
      first_failure_ = pa;
      // Writes applied after the one that hit the endurance limit.
      failure_overshoot_ = w - limit;
    }
  }

  PcmConfig cfg_;
  std::vector<LineData> data_;
  std::vector<u64> wear_;
  std::vector<u64> endurance_;  ///< per-line limits; empty when uniform
  /// Hot-path endurance lookup: null means every line shares
  /// `uniform_endurance_`, otherwise points at endurance_.data(). Kept
  /// out of the vector so record_wear() issues one predictable load.
  const u64* endurance_lut_{nullptr};
  u64 uniform_endurance_{0};
  u64 endurance_rebuilds_{0};
  u64 incarnation_{0};
  u64 mut_seq_{0};
  u64 total_writes_{0};
  std::optional<Pa> first_failure_;
  u64 failure_overshoot_{0};
};

}  // namespace srbsg::pcm
