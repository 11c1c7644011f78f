#pragma once
// Forwarding timing decorator over the wl::WearLeveler virtual interface.
//
// Every virtual is forwarded to the wrapped scheme: a missing override
// would let the base class's per-write fallback silently replace the
// scheme's fast path. The write entry points and translate() are timed
// on the host clock and their simulated work (writes applied, remap
// movements) is summed from the outcomes they return. Nothing the
// scheme, bank or controller sees changes, so a run's simulated outcome
// is bit-identical with and without the decorator.
//
// The per-write entry points (write, translate) run up to ~10^8 times a
// pass at 10-250 ns each. They are timed on about one call in 64, at
// pseudo-random gaps, and their busy time is scaled up from the sample;
// untimed calls cost a counter and a branch. The bulk entry points are
// timed on every call. Timing uses the x86 time-stamp counter where there
// is one: a steady_clock read costs ~40 ns and serializes the call it
// brackets, so it read a ~23 ns two-level SR write() as 42 ns, where the
// TSC reads 25-33 ns. Every timed region has the cost of an empty timed
// region subtracted. A timed short call still loses the overlap with
// surrounding code it has in flow, so for calls of a few tens of ns the
// busy time is an upper bound.

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "wl/wear_leveler.hpp"

namespace repobench {

using srbsg::u64;

inline u64 host_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Raw tick counter of the decorator's timed regions.
inline u64 ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return host_ns();
#endif
}

/// Tick rate, and the median ticks of an empty timed region, measured
/// once per process against the steady clock.
struct TickClock {
  double ticks_per_ns{1.0};
  u64 empty_ticks{0};
};

inline const TickClock& tick_clock() {
  static const TickClock clock = [] {
    const u64 n0 = host_ns();
    const u64 c0 = ticks();
    while (host_ns() - n0 < 20'000'000) {
    }
    TickClock c;
    c.ticks_per_ns = static_cast<double>(ticks() - c0) / static_cast<double>(host_ns() - n0);
    std::vector<u64> empty(4001);
    for (auto& e : empty) {
      const u64 t0 = ticks();
      e = ticks() - t0;
    }
    std::nth_element(empty.begin(), empty.begin() + 2000, empty.end());
    c.empty_ticks = empty[2000];
    return c;
  }();
  return clock;
}

/// Host time and simulated work of one entry point.
struct EntryTimes {
  u64 calls{0};
  u64 timed{0};        ///< calls whose host time was taken
  u64 timed_ticks{0};  ///< host time of those calls
  u64 writes{0};       ///< logical writes applied (bulk entry points)

  /// Host ns of all calls, scaled up from the timed ones.
  [[nodiscard]] double busy_ns() const {
    if (timed == 0) return 0.0;
    return static_cast<double>(timed_ticks) / tick_clock().ticks_per_ns *
           static_cast<double>(calls) / static_cast<double>(timed);
  }
  void add(const EntryTimes& o) {
    calls += o.calls;
    timed += o.timed;
    timed_ticks += o.timed_ticks;
    writes += o.writes;
  }
};

struct SchemeTimes {
  EntryTimes write, write_repeated, write_batch, write_cycle, translate;
  u64 movements{0};

  [[nodiscard]] u64 writes_applied() const {
    return write.calls + write_repeated.writes + write_batch.writes + write_cycle.writes;
  }
};

class TimedScheme final : public srbsg::wl::WearLeveler {
 public:
  explicit TimedScheme(std::unique_ptr<srbsg::wl::WearLeveler> inner)
      : inner_(std::move(inner)) {
    tier_ = inner_->engine_tier();
  }

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] u64 logical_lines() const override { return inner_->logical_lines(); }
  [[nodiscard]] u64 physical_lines() const override { return inner_->physical_lines(); }

  [[nodiscard]] srbsg::Pa translate(srbsg::La la) const override {
    ++times_.translate.calls;
    if (!sampled()) return inner_->translate(la);
    const u64 t0 = ticks();
    const srbsg::Pa pa = inner_->translate(la);
    time_since(times_.translate, t0);
    return pa;
  }

  srbsg::wl::WriteOutcome write(srbsg::La la, const srbsg::pcm::LineData& data,
                                srbsg::pcm::PcmBank& bank) override {
    ++times_.write.calls;
    srbsg::wl::WriteOutcome out;
    if (sampled()) {
      const u64 t0 = ticks();
      out = inner_->write(la, data, bank);
      time_since(times_.write, t0);
    } else {
      out = inner_->write(la, data, bank);
    }
    times_.movements += out.movements;
    return out;
  }

  srbsg::wl::BulkOutcome write_repeated(srbsg::La la, const srbsg::pcm::LineData& data,
                                        u64 count, srbsg::pcm::PcmBank& bank) override {
    const u64 t0 = ticks();
    const srbsg::wl::BulkOutcome out = inner_->write_repeated(la, data, count, bank);
    note_bulk(times_.write_repeated, t0, out);
    return out;
  }

  srbsg::wl::BulkOutcome write_batch(std::span<const srbsg::La> las,
                                     const srbsg::pcm::LineData& data,
                                     srbsg::pcm::PcmBank& bank) override {
    const u64 t0 = ticks();
    const srbsg::wl::BulkOutcome out = inner_->write_batch(las, data, bank);
    note_bulk(times_.write_batch, t0, out);
    return out;
  }

  srbsg::wl::BulkOutcome write_cycle(std::span<const srbsg::La> pattern,
                                     const srbsg::pcm::LineData& data, u64 count,
                                     srbsg::pcm::PcmBank& bank) override {
    const u64 t0 = ticks();
    const srbsg::wl::BulkOutcome out = inner_->write_cycle(pattern, data, count, bank);
    note_bulk(times_.write_cycle, t0, out);
    return out;
  }

  void set_rate_boost(srbsg::u32 log2_divisor) override {
    inner_->set_rate_boost(log2_divisor);
  }
  void validate_state() const override { inner_->validate_state(); }
  [[nodiscard]] srbsg::u32 writes_per_movement() const override {
    return inner_->writes_per_movement();
  }
  void set_engine_tier(srbsg::wl::EngineTier tier) override {
    srbsg::wl::WearLeveler::set_engine_tier(tier);
    inner_->set_engine_tier(tier);
  }
  void attach_telemetry(srbsg::telemetry::Recorder* recorder) override {
    srbsg::wl::WearLeveler::attach_telemetry(recorder);
    inner_->attach_telemetry(recorder);
  }

  [[nodiscard]] const SchemeTimes& times() const { return times_; }

 private:
  /// True on about one call in kSampleEvery. The gaps are drawn uniformly
  /// from [1, 2 * kSampleEvery] so a periodic write pattern cannot alias
  /// with the sample. Host-side only; the simulation never sees it.
  bool sampled() const {
    if (--countdown_ != 0) return false;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    countdown_ = 1 + (rng_ & (2 * kSampleEvery - 1));
    return true;
  }
  void time_since(EntryTimes& e, u64 t0) const {
    const u64 t1 = ticks();
    const u64 dt = t1 > t0 ? t1 - t0 : 0;
    e.timed_ticks += dt - std::min(dt, empty_ticks_);
    ++e.timed;
  }
  void note_bulk(EntryTimes& e, u64 t0, const srbsg::wl::BulkOutcome& out) {
    time_since(e, t0);
    ++e.calls;
    e.writes += out.writes_applied;
    times_.movements += out.movements;
  }

  std::unique_ptr<srbsg::wl::WearLeveler> inner_;
  static constexpr u64 kSampleEvery = 64;  // a power of two
  u64 empty_ticks_{tick_clock().empty_ticks};
  mutable u64 rng_{0x9E3779B97F4A7C15ULL};
  mutable u64 countdown_{1};
  mutable SchemeTimes times_;
};

}  // namespace repobench
