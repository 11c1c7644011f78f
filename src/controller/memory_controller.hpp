#pragma once
// Memory controller: glues a wear-leveling scheme to a PCM bank, keeps
// the simulated clock, and exposes exactly what a software attacker can
// observe — per-request latencies. Remap movements stall the triggering
// request (paper §III), which is the RTA side channel.

#include <memory>
#include <optional>
#include <span>

#include "common/types.hpp"
#include "pcm/bank.hpp"
#include "wl/attack_detector.hpp"
#include "wl/wear_leveler.hpp"

namespace srbsg::telemetry {
class Recorder;
}  // namespace srbsg::telemetry

namespace srbsg::ctl {

struct FailureInfo {
  Ns time{0};         ///< simulated instant of the first line failure
  Pa line{0};         ///< physical line that failed
  u64 total_writes{0};  ///< logical writes issued up to the failure
};

class MemoryController {
 public:
  MemoryController(const pcm::PcmConfig& cfg, std::unique_ptr<wl::WearLeveler> scheme);

  /// Arena path: adopt an already-sized, freshly reset bank (see
  /// sim::WorkerArena) instead of constructing one. The bank must match
  /// the scheme's logical/physical line counts.
  MemoryController(pcm::PcmBank&& bank, std::unique_ptr<wl::WearLeveler> scheme);

  /// Move the bank back out for recycling. The controller is unusable
  /// afterwards; call only once the run is over and its wear state has
  /// been harvested.
  [[nodiscard]] pcm::PcmBank release_bank() { return std::move(bank_); }

  /// One write; returns the latency the requester observes (data write +
  /// any remap stall) — this is the timing oracle.
  wl::WriteOutcome write(La la, const pcm::LineData& data);

  /// `count` identical writes to `la`: write_cycle() with a one-element
  /// pattern.
  wl::BulkOutcome write_repeated(La la, const pcm::LineData& data, u64 count) {
    return write_cycle(std::span<const La>(&la, 1), data, count);
  }

  /// Applies `las` in order through the scheme's batched path;
  /// bit-identical to per-write issue except that an attached detector
  /// sees the whole block up-front (same convention as write_cycle — a
  /// boost applies from the start of the block, which only makes the
  /// defense stronger).
  wl::BulkOutcome write_batch(std::span<const La> las, const pcm::LineData& data);

  /// `count` writes cycling through `pattern` (event-driven fast path
  /// for periodic probe/hammer loops).
  wl::BulkOutcome write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                              u64 count);

  /// Read through the translation.
  std::pair<pcm::LineData, Ns> read(La la);

  [[nodiscard]] Ns now() const { return now_; }
  [[nodiscard]] u64 total_writes() const { return writes_issued_; }
  [[nodiscard]] u64 logical_lines() const { return scheme_->logical_lines(); }

  [[nodiscard]] bool failed() const { return failure_.has_value(); }
  [[nodiscard]] const FailureInfo& failure() const;

  [[nodiscard]] pcm::PcmBank& bank() { return bank_; }
  [[nodiscard]] const pcm::PcmBank& bank() const { return bank_; }
  [[nodiscard]] wl::WearLeveler& scheme() { return *scheme_; }
  [[nodiscard]] const wl::WearLeveler& scheme() const { return *scheme_; }

  /// Select the scheme's write_cycle engine tier (reference / windowed /
  /// epoch). All tiers are bit-identical on the simulated state; the
  /// choice only trades wall-clock for generality.
  void set_engine_tier(wl::EngineTier tier) { scheme_->set_engine_tier(tier); }

  /// Attach an online attack detector (Qureshi HPCA'11, reference [15]):
  /// suspicious write concentration boosts the scheme's remapping rate.
  void enable_detector(const wl::AttackDetectorConfig& cfg);
  [[nodiscard]] const wl::AttackDetector* detector() const { return detector_.get(); }

  /// Opt-in telemetry: attaches the recorder to the controller and the
  /// scheme (nullptr detaches both). Observation-only — counters and
  /// events never feed back into scheme or detector decisions, so the
  /// simulated timeline is bit-identical with or without a recorder.
  /// The recorder must outlive the controller or be detached first.
  void set_telemetry(telemetry::Recorder* recorder);
  [[nodiscard]] telemetry::Recorder* telemetry() const { return tel_; }

 private:
  /// Captures failure info the first time the bank reports one. The bank
  /// records how many writes overshot the endurance limit inside a bulk
  /// op; the failure instant is rewound by that amount.
  void maybe_record_failure(Ns per_write_latency);

  void feed_detector(La la, u64 count);

  /// Telemetry bookkeeping shared by every write path: advances the
  /// recorder clock, bumps the core counters, splits the observed bulk
  /// latency into service vs. remap stall for the latency histograms,
  /// and takes a wear snapshot when the configured write cadence is
  /// due. `service` is the scheme-independent per-write data latency
  /// (pcm::write_latency for the op's data class); everything above
  /// `writes * service` is attributed to remap stalls, spread evenly
  /// over `min(max(movements,1), writes)` stalled writes. No-op without
  /// a recorder.
  void note_writes(u64 writes, Ns total, u64 movements, Ns service);

  pcm::PcmBank bank_;
  std::unique_ptr<wl::WearLeveler> scheme_;
  std::unique_ptr<wl::AttackDetector> detector_;
  Ns now_{0};
  u64 writes_issued_{0};
  std::optional<FailureInfo> failure_;
  telemetry::Recorder* tel_{nullptr};
  u16 tel_id_{0};
};

}  // namespace srbsg::ctl
