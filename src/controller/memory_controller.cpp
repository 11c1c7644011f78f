#include "controller/memory_controller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::ctl {

MemoryController::MemoryController(const pcm::PcmConfig& cfg,
                                   std::unique_ptr<wl::WearLeveler> scheme)
    : bank_(cfg, scheme->physical_lines()), scheme_(std::move(scheme)) {
  check(scheme_ != nullptr, "MemoryController: null scheme");
  check(cfg.line_count == scheme_->logical_lines(),
        "MemoryController: scheme sized for a different bank");
}

MemoryController::MemoryController(pcm::PcmBank&& bank, std::unique_ptr<wl::WearLeveler> scheme)
    : bank_(std::move(bank)), scheme_(std::move(scheme)) {
  check(scheme_ != nullptr, "MemoryController: null scheme");
  check(bank_.config().line_count == scheme_->logical_lines(),
        "MemoryController: scheme sized for a different bank");
  check(bank_.total_lines() == scheme_->physical_lines(),
        "MemoryController: adopted bank has the wrong physical size");
  check(!bank_.has_failure() && bank_.total_writes() == 0,
        "MemoryController: adopted bank is not freshly reset");
}

void MemoryController::maybe_record_failure(Ns per_write_latency) {
  if (failure_ || !bank_.has_failure()) return;
  const u64 overshoot = bank_.failure_overshoot();
  FailureInfo info;
  info.line = bank_.first_failed_line();
  // Writes past the crossing (bulk overshoot) happened "after" the
  // failure; rewind both the write count and the clock.
  info.total_writes = writes_issued_ > overshoot ? writes_issued_ - overshoot : 0;
  // Rewind to the instant the endurance limit was crossed: overshoot
  // writes of this op's per-write latency happened after it.
  const u64 rewind = overshoot * per_write_latency.value();
  info.time = Ns{now_.value() > rewind ? now_.value() - rewind : 0};
  failure_ = info;
  if (tel_ != nullptr) {
    // Stamped with the rewound failure instant, not the op-entry clock.
    tel_->emit_at(info.time.value(), telemetry::EventType::kLineFailed, tel_id_,
                  telemetry::kGlobalDomain, info.line.value(), info.total_writes);
  }
}

void MemoryController::set_telemetry(telemetry::Recorder* recorder) {
  // srbsg-analyze: suppress(a10-lifetime) harness-owned recorder outlives the controller
  tel_ = recorder;
  scheme_->attach_telemetry(recorder);
  if (recorder != nullptr) {
    tel_id_ = recorder->intern_scheme(scheme_->name());
    recorder->set_now(now_);
  } else {
    tel_id_ = 0;
  }
}

void MemoryController::note_writes(u64 writes, Ns total, u64 movements, Ns service) {
  if (tel_ == nullptr) return;
  tel_->set_now(now_);
  const auto& core = telemetry::CoreCounters::get();
  tel_->count(core.writes, writes);
  tel_->count(core.service_ns, total.value());
  tel_->count(core.movements, movements);
  if (writes > 0) {
    // Deterministic stall attribution: the data-service share of the op
    // is writes * service; the remainder is remap stall, charged evenly
    // to the writes that triggered movements. The split depends only on
    // the op outcome (identical across engine tiers and worker counts).
    const u64 base = service.value();
    const u64 service_total = writes * base;
    const u64 stall = total.value() > service_total ? total.value() - service_total : 0;
    const u64 stalled = stall > 0 ? std::min(std::max<u64>(movements, 1), writes) : 0;
    const u64 per = stalled > 0 ? stall / stalled : 0;
    if (writes > stalled) tel_->record_write_ns(base, writes - stalled);
    if (stalled > 0) {
      tel_->record_write_ns(base + per, stalled);
      tel_->record_stall_ns(per, stalled);
    }
    tel_->count(core.stall_ns, stall);
  }
  if (tel_->snapshot_due(writes_issued_)) {
    tel_->take_snapshot(writes_issued_, bank_.wear_counts());
  }
}

void MemoryController::enable_detector(const wl::AttackDetectorConfig& cfg) {
  detector_ = std::make_unique<wl::AttackDetector>(cfg, scheme_->logical_lines());
}

void MemoryController::feed_detector(La la, u64 count) {
  if (detector_ && detector_->record(la, count)) {
    scheme_->set_rate_boost(detector_->boost());
    if (tel_ != nullptr) {
      tel_->emit(telemetry::EventType::kDetectorStateChange, tel_id_, telemetry::kGlobalDomain,
                 detector_->boost(), detector_->trips());
    }
  }
}

wl::WriteOutcome MemoryController::write(La la, const pcm::LineData& data) {
  // The recorder clock is pinned to the op-entry instant; events emitted
  // inside the scheme all carry this timestamp, which is what makes the
  // RemapTriggered → GapMoved attribution rule checkable downstream.
  if (tel_ != nullptr) tel_->set_now(now_);
  feed_detector(la, 1);
  const wl::WriteOutcome out = scheme_->write(la, data, bank_);
  now_ += out.total;
  ++writes_issued_;
  maybe_record_failure(pcm::write_latency(bank_.config(), data.cls));
  note_writes(1, out.total, out.movements, pcm::write_latency(bank_.config(), data.cls));
  if (tel_ != nullptr) {
    tel_->gauge_max(telemetry::CoreCounters::get().max_write_ns, out.total.value());
  }
  return out;
}

wl::BulkOutcome MemoryController::write_batch(std::span<const La> las,
                                              const pcm::LineData& data) {
  // The detector sees the whole block before any write lands (a boost
  // therefore applies from the start of the block, which only makes the
  // defense stronger); the record sequence matches the per-write loop.
  if (tel_ != nullptr) tel_->set_now(now_);
  if (detector_) {
    const bool traced_eval = tel_ != nullptr;
    if (traced_eval) {
      tel_->span_begin(telemetry::SpanKind::kDetectorEval, tel_id_, telemetry::kGlobalDomain, 0,
                       las.size());
    }
    for (const La la : las) feed_detector(la, 1);
    if (traced_eval) {
      tel_->span_end(telemetry::SpanKind::kDetectorEval, tel_id_, telemetry::kGlobalDomain, 0,
                     las.size());
    }
  }
  const wl::BulkOutcome out = scheme_->write_batch(las, data, bank_);
  now_ += out.total;
  writes_issued_ += out.writes_applied;
  maybe_record_failure(pcm::write_latency(bank_.config(), data.cls));
  note_writes(out.writes_applied, out.total, out.movements,
              pcm::write_latency(bank_.config(), data.cls));
  return out;
}

wl::BulkOutcome MemoryController::write_cycle(std::span<const La> pattern,
                                              const pcm::LineData& data, u64 count) {
  if (tel_ != nullptr) tel_->set_now(now_);
  if (detector_ && !pattern.empty()) {
    const bool traced_eval = tel_ != nullptr;
    if (traced_eval) {
      tel_->span_begin(telemetry::SpanKind::kDetectorEval, tel_id_, telemetry::kGlobalDomain, 0,
                       count);
    }
    const u64 period = pattern.size();
    for (u64 i = 0; i < period; ++i) {
      const u64 hits = count / period + (i < count % period ? 1 : 0);
      if (hits > 0) feed_detector(pattern[i], hits);
    }
    if (traced_eval) {
      tel_->span_end(telemetry::SpanKind::kDetectorEval, tel_id_, telemetry::kGlobalDomain, 0,
                     count);
    }
  }
  const wl::BulkOutcome out = scheme_->write_cycle(pattern, data, count, bank_);
  now_ += out.total;
  writes_issued_ += out.writes_applied;
  maybe_record_failure(pcm::write_latency(bank_.config(), data.cls));
  note_writes(out.writes_applied, out.total, out.movements,
              pcm::write_latency(bank_.config(), data.cls));
  return out;
}

std::pair<pcm::LineData, Ns> MemoryController::read(La la) {
  auto res = scheme_->read(la, bank_);
  now_ += res.second;
  return res;
}

const FailureInfo& MemoryController::failure() const {
  check(failure_.has_value(), "MemoryController: no failure recorded");
  return *failure_;
}

}  // namespace srbsg::ctl
