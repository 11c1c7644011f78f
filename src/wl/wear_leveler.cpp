#include "wl/wear_leveler.hpp"

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::wl {

std::string_view to_string(EngineTier tier) {
  switch (tier) {
    case EngineTier::kReference:
      return "reference";
    case EngineTier::kWindowed:
      return "windowed";
    case EngineTier::kEpoch:
      return "epoch";
  }
  return "?";
}

EngineTier parse_engine_tier(std::string_view name) {
  if (name == "reference") return EngineTier::kReference;
  if (name == "windowed") return EngineTier::kWindowed;
  if (name == "epoch") return EngineTier::kEpoch;
  throw CheckFailure("unknown engine tier: " + std::string(name));
}

void WearLeveler::attach_telemetry(telemetry::Recorder* recorder) {
  // srbsg-analyze: suppress(a10-lifetime) harness-owned recorder outlives every scheme
  tel_ = recorder;
  tel_id_ = recorder ? recorder->intern_scheme(name()) : u16{0};
}

BulkOutcome WearLeveler::write_repeated(La la, const pcm::LineData& data, u64 count,
                                        pcm::PcmBank& bank) {
  return write_cycle(std::span<const La>(&la, 1), data, count, bank);
}

BulkOutcome WearLeveler::write_batch(std::span<const La> las, const pcm::LineData& data,
                                     pcm::PcmBank& bank) {
  // The reference loop: one write at a time, stopping after the write
  // that records a failure — the semantics every engine tier reproduces
  // bit-identically.
  BulkOutcome out;
  for (const La la : las) {
    if (bank.has_failure()) break;
    const WriteOutcome w = write(la, data, bank);
    out.total += w.total;
    out.movements += w.movements;
    ++out.writes_applied;
  }
  return out;
}

BulkOutcome WearLeveler::write_cycle(std::span<const La> pattern, const pcm::LineData& data,
                                     u64 count, pcm::PcmBank& bank) {
  BulkOutcome out;
  if (count == 0) return out;
  check(!pattern.empty(), "write_cycle: empty pattern with writes requested");
  const u64 period = pattern.size();
  for (u64 i = 0; i < count && !bank.has_failure(); ++i) {
    const WriteOutcome w = write(pattern[i % period], data, bank);
    out.total += w.total;
    out.movements += w.movements;
    ++out.writes_applied;
  }
  return out;
}

std::pair<pcm::LineData, Ns> WearLeveler::read(La la, const pcm::PcmBank& bank) const {
  return bank.read(translate(la));
}

}  // namespace srbsg::wl
