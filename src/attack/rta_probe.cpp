#include "attack/rta_probe.hpp"

#include <algorithm>

#include "attack/pattern_writer.hpp"
#include "common/bitops.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::attack {

using pcm::DataClass;
using pcm::LineData;

RtaProbeAttacker::RtaProbeAttacker(const RtaProbeParams& p) : p_(p) {
  check(p.lines > 0 && is_pow2(p.lines), "RtaProbe: lines must be a power of two");
  check(p.outer_interval > 0, "RtaProbe: bad interval");
  check(p.probe_bit < log2_floor(p.lines), "RtaProbe: probe bit out of range");
}

void RtaProbeAttacker::run(ctl::MemoryController& mc, u64 write_budget) {
  const auto& cfg = mc.bank().config();
  const Ns mv1 = pcm::move_latency(cfg, DataClass::kAllOne);
  const Ns mv0 = pcm::move_latency(cfg, DataClass::kAllZero);
  u64 issued = 0;
  auto exhausted = [&] { return mc.failed() || issued >= write_budget; };

  // Pattern the space by the probe bit (doubles as the blanket pass).
  issued += PatternWriter(p_.lines).pass(mc, u64{1} << p_.probe_bit, write_budget, {});

  // Harvest the DFN migration-bit stream: hammer LA 0 (pattern-consistent
  // — all of LA 0's bits are zero) and classify movements that fire at an
  // outer boundary. The attacker mirrors the outer schedule from boot
  // (every ψ_out-th write, and it is the only writer); boundary writes
  // whose stall is not a clean single movement are inner coincidences and
  // are skipped.
  std::vector<u8> stream;
  stream.reserve(p_.probe_movements);
  telemetry::Recorder* tel = mc.telemetry();
  const u16 probe_id = tel != nullptr ? tel->intern_scheme(name()) : u16{0};
  while (stream.size() < p_.probe_movements && !exhausted()) {
    issued += 1;
    const bool outer_boundary = issued % p_.outer_interval == 0;
    const auto out = mc.write(La{0}, LineData::all_zero());
    if (outer_boundary && out.movements == 1) {
      if (out.stall == mv1) {
        stream.push_back(1);
      } else if (out.stall == mv0) {
        stream.push_back(0);
      }
      if (tel != nullptr && (out.stall == mv0 || out.stall == mv1)) {
        // Forensics hook: each harvested migration bit, with the stall
        // that classified it, timestamped against the remap timeline.
        tel->emit(telemetry::EventType::kProbeClassified, probe_id, telemetry::kGlobalDomain,
                  stream.back(), out.stall.value());
      }
    }
  }

  u64 ones = 0;
  for (u8 b : stream) ones += b;
  bias_ = stream.empty() ? 0.0 : static_cast<double>(ones) / static_cast<double>(stream.size());

  // Cross-round replay test: compare the first and second halves of the
  // stream at equal offsets. For a static mapping the migration order
  // repeats each rotation, pushing agreement toward 1; a re-keyed DFN
  // keeps it near 0.5.
  const std::size_t half = stream.size() / 2;
  u64 agree = 0;
  for (std::size_t i = 0; i < half; ++i) {
    agree += stream[i] == stream[i + half] ? u64{1} : u64{0};
  }
  agreement_ = half == 0 ? 0.0 : static_cast<double>(agree) / static_cast<double>(half);

  // Fallback: the timing stream carried no exploitable structure, so the
  // strongest remaining attack is birthday-paradox hammering.
  Rng rng(p_.seed);
  u64 addresses_tried = 0;
  while (!exhausted()) {
    const La la{rng.next_below(p_.lines)};
    ++addresses_tried;
    const Pa original = mc.scheme().translate(la);
    u64 hammered = 0;
    while (!exhausted() && hammered < p_.hammer_cap &&
           mc.scheme().translate(la) == original) {
      const u64 chunk = std::min<u64>({1024, write_budget - issued, p_.hammer_cap - hammered});
      const La hammer[] = {la};
      const auto out = mc.write_cycle(hammer, LineData::all_one(), chunk);
      issued += out.writes_applied;
      hammered += out.writes_applied;
      if (out.writes_applied == 0) return;
    }
  }

  notes_ = "samples=" + std::to_string(stream.size()) +
           " bias=" + std::to_string(bias_) +
           " agreement=" + std::to_string(agreement_) +
           " bpa_addresses=" + std::to_string(addresses_tried);
}

}  // namespace srbsg::attack
