#include "wl/batch.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace srbsg::wl::batch {

HitSet::HitSet(std::vector<u64> offsets, u64 period)
    : offs_(std::move(offsets)), period_(period) {
  SRBSG_DCHECK(period_ >= 1, "HitSet: empty period");
  SRBSG_DCHECK(std::is_sorted(offs_.begin(), offs_.end()), "HitSet: offsets not sorted");
  SRBSG_DCHECK(offs_.empty() || offs_.back() < period_, "HitSet: offset past the period");
}

u64 HitSet::hits_in(u64 start, u64 writes) const {
  const u64 m = offs_.size();
  if (m == 0 || writes == 0) return 0;
  u64 hits = (writes / period_) * m;
  const u64 rem = writes % period_;
  if (rem > 0) {
    // Circular range [start, start + rem) over the sorted offsets.
    const u64 end = start + rem;  // start < period, rem < period => end < 2*period
    const auto lo = std::lower_bound(offs_.begin(), offs_.end(), start);
    if (end <= period_) {
      hits += static_cast<u64>(std::lower_bound(lo, offs_.end(), end) - lo);
    } else {
      hits += static_cast<u64>(offs_.end() - lo);
      hits += static_cast<u64>(
          std::lower_bound(offs_.begin(), offs_.end(), end - period_) - offs_.begin());
    }
  }
  return hits;
}

u64 HitSet::until_nth(u64 start, u64 n) const {
  const u64 m = offs_.size();
  if (m == 0) return kUnbounded;
  SRBSG_DCHECK(n >= 1, "HitSet: until_nth needs n >= 1");
  const u64 cycles = (n - 1) / m;
  const u64 rank = (n - 1) % m;
  // Offset of the rank-th hit in rotated order (positions >= start first).
  const auto lo = std::lower_bound(offs_.begin(), offs_.end(), start);
  const u64 ge = static_cast<u64>(offs_.end() - lo);
  const u64 off = rank < ge ? lo[static_cast<std::ptrdiff_t>(rank)] - start
                            : offs_[rank - ge] + period_ - start;
  if (cycles > (kUnbounded - off - 1) / period_) return kUnbounded;
  return cycles * period_ + off + 1;
}

namespace {

/// Groups pattern positions [0, period) by `key_of(position)`, skipping
/// kNoDomain keys, and calls `emit(key, hits)` once per distinct key in
/// ascending key order.
template <typename KeyOf, typename Emit>
void group_positions(u64 period, KeyOf&& key_of, Emit&& emit) {
  std::vector<std::pair<u64, u64>> keyed;  // (key, position), lexicographic
  keyed.reserve(period);
  for (u64 i = 0; i < period; ++i) {
    if (key_of(i) != kNoDomain) keyed.emplace_back(key_of(i), i);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < keyed.size();) {
    std::vector<u64> offs;
    std::size_t j = i;
    for (; j < keyed.size() && keyed[j].first == keyed[i].first; ++j) {
      offs.push_back(keyed[j].second);
    }
    emit(keyed[i].first, HitSet(std::move(offs), period));
    i = j;
  }
}

}  // namespace

void build_line_scheds(std::span<const Pa> pas, const pcm::PcmBank& bank,
                       std::vector<LineSched>& out) {
  out.clear();
  const auto pa_of = [&](u64 i) { return pas[i].value(); };
  group_positions(pas.size(), pa_of, [&](u64 pa, HitSet hits) {
    // Writes this line can absorb until it records the first failure; the
    // engine only runs while the bank has none, so wear < limit here.
    const u64 limit = bank.line_endurance(Pa{pa});
    const u64 wear = bank.wear(Pa{pa});
    out.push_back(LineSched{Pa{pa}, std::move(hits), limit > wear ? limit - wear : 1});
  });
}

void build_domain_scheds(std::span<const u64> keys, std::vector<DomainSched>& out) {
  out.clear();
  const auto key_of = [&](u64 i) { return keys[i]; };
  group_positions(keys.size(), key_of, [&](u64 key, HitSet hits) {
    out.push_back(DomainSched{key, std::move(hits)});
  });
}

u64 cap_chunk_at_failure(std::span<const LineSched> lines, u64 start, u64 chunk) {
  u64 cap = chunk;
  for (const auto& ls : lines) {
    // until_nth(remaining) <= cap exactly when the window holds enough
    // hits to cross the limit, so the min lands on the failing write.
    if (ls.hits.hits_in(start, cap) >= ls.remaining) {
      cap = std::min(cap, ls.hits.until_nth(start, ls.remaining));
    }
  }
  return cap;
}

}  // namespace srbsg::wl::batch
