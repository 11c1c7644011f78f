#include "pcm/bank.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace srbsg::pcm {

namespace {
// Process-wide incarnation counter: two bank (re)configurations never
// share a stamp, even across worker threads recycling arena banks.
std::atomic<u64> g_bank_incarnation{0};
}  // namespace

PcmBank::PcmBank(const PcmConfig& cfg, u64 total_lines) : cfg_(cfg) {
  reconfigure(cfg, total_lines);
}

PcmBank::PcmBank(PcmBank&& other) noexcept
    : cfg_(other.cfg_),
      data_(std::move(other.data_)),
      wear_(std::move(other.wear_)),
      endurance_(std::move(other.endurance_)),
      endurance_lut_(endurance_.empty() ? nullptr : endurance_.data()),
      uniform_endurance_(other.uniform_endurance_),
      endurance_rebuilds_(other.endurance_rebuilds_),
      incarnation_(other.incarnation_),
      mut_seq_(other.mut_seq_),
      total_writes_(other.total_writes_),
      first_failure_(other.first_failure_),
      failure_overshoot_(other.failure_overshoot_) {
  other.endurance_lut_ = nullptr;
}

PcmBank& PcmBank::operator=(PcmBank&& other) noexcept {
  if (this == &other) return *this;
  cfg_ = other.cfg_;
  data_ = std::move(other.data_);
  wear_ = std::move(other.wear_);
  endurance_ = std::move(other.endurance_);
  endurance_lut_ = endurance_.empty() ? nullptr : endurance_.data();
  uniform_endurance_ = other.uniform_endurance_;
  endurance_rebuilds_ = other.endurance_rebuilds_;
  incarnation_ = other.incarnation_;
  mut_seq_ = other.mut_seq_;
  total_writes_ = other.total_writes_;
  first_failure_ = other.first_failure_;
  failure_overshoot_ = other.failure_overshoot_;
  other.endurance_lut_ = nullptr;
  return *this;
}

void PcmBank::regenerate_endurance(u64 total_lines) {
  // Truncated-Gaussian per-line limits (sum of 12 uniforms ≈ N(0,1)),
  // clamped to ±3σ so no line is pathological in either direction.
  Rng rng(cfg_.variation_seed);
  endurance_.resize(total_lines);
  const double mu = static_cast<double>(cfg_.endurance);
  const double sigma = cfg_.endurance_variation * mu;
  for (auto& e : endurance_) {
    double z = -6.0;
    for (int i = 0; i < 12; ++i) z += rng.next_double();
    z = std::clamp(z, -3.0, 3.0);
    e = static_cast<u64>(std::max(1.0, mu + sigma * z));
  }
  ++endurance_rebuilds_;
}

void PcmBank::reconfigure(const PcmConfig& cfg, u64 total_lines) {
  cfg.validate();
  check(total_lines >= cfg.line_count, "PcmBank: fewer physical than logical lines");
  const bool variation_on = cfg.endurance_variation > 0.0;
  // The table depends only on (size, mean, coefficient, seed); when all
  // four match the previous configuration, the draw would be bit-identical
  // and the table is reused instead of re-sampled (12 RNG draws per line).
  const bool table_reusable = variation_on && endurance_.size() == total_lines &&
                              cfg_.endurance == cfg.endurance &&
                              cfg_.endurance_variation == cfg.endurance_variation &&
                              cfg_.variation_seed == cfg.variation_seed;
  cfg_ = cfg;
  data_.assign(total_lines, LineData::all_zero());
  wear_.assign(total_lines, 0);
  uniform_endurance_ = cfg_.endurance;
  if (!variation_on) {
    endurance_.clear();
  } else if (!table_reusable) {
    regenerate_endurance(total_lines);
  }
  endurance_lut_ = endurance_.empty() ? nullptr : endurance_.data();
  incarnation_ = g_bank_incarnation.fetch_add(1, std::memory_order_relaxed) + 1;
  total_writes_ = 0;
  first_failure_.reset();
  failure_overshoot_ = 0;
}

u64 PcmBank::line_endurance(Pa pa) const {
  check(pa.value() < wear_.size(), "PcmBank: physical address out of range");
  return endurance_lut_ ? endurance_lut_[pa.value()] : uniform_endurance_;
}

std::pair<LineData, Ns> PcmBank::read(Pa pa) const {
  SRBSG_DCHECK(pa.value() < data_.size(), "PcmBank: physical address out of range");
  return {data_[pa.value()], read_latency(cfg_)};
}

Ns PcmBank::move_line(Pa from, Pa to) {
  SRBSG_DCHECK(from.value() < data_.size() && to.value() < data_.size(),
               "PcmBank: physical address out of range");
  const LineData moved = data_[from.value()];
  record_wear(to, 1);
  data_[to.value()] = moved;
  return move_latency(cfg_, moved.cls);
}

Ns PcmBank::swap_lines(Pa a, Pa b) {
  SRBSG_DCHECK(a.value() < data_.size() && b.value() < data_.size(),
               "PcmBank: physical address out of range");
  const LineData da = data_[a.value()];
  const LineData db = data_[b.value()];
  record_wear(a, 1);
  record_wear(b, 1);
  data_[a.value()] = db;
  data_[b.value()] = da;
  return swap_latency(cfg_, da.cls, db.cls);
}

u64 PcmBank::min_headroom(Pa base, u64 count) const {
  SRBSG_DCHECK(base.value() + count <= wear_.size(),
               "PcmBank: headroom scan out of range");
  u64 min = ~u64{0};
  for (u64 i = base.value(); i < base.value() + count; ++i) {
    const u64 limit = endurance_lut_ ? endurance_lut_[i] : uniform_endurance_;
    const u64 h = limit > wear_[i] ? limit - wear_[i] : 0;
    if (h < min) min = h;
  }
  return min;
}

void PcmBank::add_wear_range_unchecked(Pa base, u64 count, u64 per_line) {
  SRBSG_DCHECK(base.value() + count <= wear_.size(),
               "PcmBank: wear range out of range");
  ++mut_seq_;
  for (u64 i = base.value(); i < base.value() + count; ++i) wear_[i] += per_line;
  total_writes_ += count * per_line;
}

Pa PcmBank::first_failed_line() const {
  check(first_failure_.has_value(), "PcmBank: no failure recorded");
  return *first_failure_;
}

u64 PcmBank::max_wear() const {
  return wear_.empty() ? 0 : *std::max_element(wear_.begin(), wear_.end());
}

void PcmBank::reset() {
  ++mut_seq_;
  std::fill(data_.begin(), data_.end(), LineData::all_zero());
  std::fill(wear_.begin(), wear_.end(), u64{0});
  total_writes_ = 0;
  first_failure_.reset();
  failure_overshoot_ = 0;
}

void PcmBank::reset(const PcmConfig& cfg, u64 total_lines) { reconfigure(cfg, total_lines); }

}  // namespace srbsg::pcm
