#include "wl/epoch.hpp"

#include "telemetry/telemetry.hpp"

namespace srbsg::wl::epoch {

ScanResult scan_slots(const pcm::PcmBank& bank, u64 phys_lines,
                      std::span<const u64> exclude_sorted, bool need_uniform) {
  ScanResult r;
  r.min_headroom = ~u64{0};
  std::size_t x = 0;
  bool have_content = false;
  for (u64 pa = 0; pa < phys_lines; ++pa) {
    if (x < exclude_sorted.size() && exclude_sorted[x] == pa) {
      ++x;
      continue;
    }
    const Pa p{pa};
    if (need_uniform) {
      const pcm::LineData& d = bank.data(p);
      if (!have_content) {
        r.content = d;
        have_content = true;
      } else if (!(d == r.content)) {
        return r;  // not uniform; r.uniform stays false
      }
    }
    const u64 limit = bank.line_endurance(p);
    const u64 w = bank.wear(p);
    const u64 h = limit > w ? limit - w : 0;
    if (h < r.min_headroom) r.min_headroom = h;
  }
  r.uniform = have_content || !need_uniform;
  return r;
}

bool CallCache::restore(const pcm::PcmBank& bank, HeadroomBudget& budget,
                        std::vector<u64>& excluded) {
  if (bank_ != &bank || incarnation_ != bank.incarnation() ||
      seq_ != bank.mutation_seq()) {
    return false;
  }
  budget.seed(budget_);
  excluded.assign(excluded_.begin(), excluded_.end());
  return true;
}

void CallCache::save(const pcm::PcmBank& bank, const HeadroomBudget& budget,
                     std::span<const u64> excluded) {
  bank_ = &bank;
  incarnation_ = bank.incarnation();
  seq_ = bank.mutation_seq();
  budget_ = budget.remaining();
  excluded_.assign(excluded.begin(), excluded.end());
}

void emit_jump(telemetry::Recorder* tel, u16 scheme, u32 domain, u64 writes, u64 steps,
               u64 t0_ns, u64 t1_ns) {
  if (tel != nullptr) {
    tel->span_begin(telemetry::SpanKind::kRemapEpoch, scheme, domain, t0_ns, writes);
    tel->emit_at(tel->now().value() + t0_ns, telemetry::EventType::kEpochApplied, scheme,
                 domain, writes, steps);
    tel->span_end(telemetry::SpanKind::kRemapEpoch, scheme, domain, t1_ns, steps);
  }
}

void emit_projection(telemetry::Recorder* tel, u16 scheme, u32 domain, u64 offset_ns,
                     u64 writes, telemetry::FallbackReason reason) {
  if (tel != nullptr) {
    // Zero-duration: the scan/projection proof is free in simulated time
    // (it models controller-side bookkeeping, not a bank access).
    tel->span_begin(telemetry::SpanKind::kEpochProjection, scheme, domain, offset_ns, writes);
    tel->span_end(telemetry::SpanKind::kEpochProjection, scheme, domain, offset_ns,
                  static_cast<u64>(reason));
  }
}

void span_fallback_begin(telemetry::Recorder* tel, u16 scheme, u64 offset_ns,
                         telemetry::FallbackReason reason) {
  if (tel != nullptr) {
    tel->span_begin(telemetry::SpanKind::kExactReplayFallback, scheme,
                    telemetry::kGlobalDomain, offset_ns, static_cast<u64>(reason));
  }
}

void span_fallback_end(telemetry::Recorder* tel, u16 scheme, u64 offset_ns,
                       telemetry::FallbackReason reason) {
  if (tel != nullptr) {
    tel->span_end(telemetry::SpanKind::kExactReplayFallback, scheme,
                  telemetry::kGlobalDomain, offset_ns, static_cast<u64>(reason));
  }
}

}  // namespace srbsg::wl::epoch
