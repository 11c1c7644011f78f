#include "wl/table_wl.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace srbsg::wl {

void TableWlConfig::validate() const {
  check(lines >= 2, "TableWlConfig: need at least two lines");
  check(interval >= 1, "TableWlConfig: interval must be positive");
}

TableWearLeveling::TableWearLeveling(const TableWlConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  la_to_pa_.resize(cfg_.lines);
  pa_to_la_.resize(cfg_.lines);
  for (u64 i = 0; i < cfg_.lines; ++i) {
    la_to_pa_[i] = i;
    pa_to_la_[i] = i;
  }
  residual_.assign(cfg_.lines, 0);
  total_.assign(cfg_.lines, 0);
}

TableWearLeveling::SwapPrediction TableWearLeveling::predict_next_swap() const {
  u64 hot = 0, cold = 0;
  for (u64 pa = 1; pa < cfg_.lines; ++pa) {
    if (residual_[pa] > residual_[hot]) hot = pa;
    if (total_[pa] < total_[cold]) cold = pa;
  }
  return {hot, cold};
}

Ns TableWearLeveling::fire_global(pcm::PcmBank& bank, u64& moved) {
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kRemapTriggered, tel_id_, telemetry::kGlobalDomain,
               telemetry::kLevelInner, 0);
  }
  const auto pred = predict_next_swap();
  if (pred.hot_pa == pred.cold_pa) return Ns{0};
  if (tel_ != nullptr) {
    tel_->emit(telemetry::EventType::kGapMoved, tel_id_, telemetry::kGlobalDomain, pred.hot_pa,
               pred.cold_pa);
  }
  const u64 la_hot = pa_to_la_[pred.hot_pa];
  const u64 la_cold = pa_to_la_[pred.cold_pa];
  const Ns lat = bank.swap_lines(Pa{pred.hot_pa}, Pa{pred.cold_pa});
  std::swap(la_to_pa_[la_hot], la_to_pa_[la_cold]);
  std::swap(pa_to_la_[pred.hot_pa], pa_to_la_[pred.cold_pa]);
  residual_[pred.hot_pa] = 0;
  residual_[pred.cold_pa] = 0;
  ++total_[pred.hot_pa];  // the swap itself writes both lines
  ++total_[pred.cold_pa];
  ++moved;
  return lat;
}

void TableWearLeveling::validate_state() const {
  check_le(counter_, cfg_.interval, "TableWearLeveling: write counter overran ψ");
  for (u64 la = 0; la < cfg_.lines; ++la) {
    const u64 pa = la_to_pa_[la];
    check_lt(pa, cfg_.lines, "TableWearLeveling: LA→PA entry out of range");
    check_eq(pa_to_la_[pa], la, "TableWearLeveling: LA→PA and PA→LA tables diverged");
  }
  for (u64 pa = 0; pa < cfg_.lines; ++pa) {
    check_le(residual_[pa], total_[pa],
             "TableWearLeveling: residual wear exceeds lifetime wear");
  }
}

}  // namespace srbsg::wl
