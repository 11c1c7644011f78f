#include "wl/batch.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace srbsg::wl::batch {

void HitSet::assign(std::span<const u64> offsets, u64 period) {
  offs_.assign(offsets.begin(), offsets.end());
  period_ = period;
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
/// kNoDomain keys, into `out`: one schedule per distinct key in ascending
/// key order, its hit set refilled in place and `set_key(sched, key)`
/// called on it. `order` is the sort buffer.
template <typename Sched, typename KeyOf, typename SetKey>
void group_positions(u64 period, KeyOf&& key_of, std::vector<u64>& order,
                     std::vector<Sched>& out, SetKey&& set_key) {
  // Positions in (key, position) order: each key's offsets are then one
  // increasing, contiguous stretch of `order`. A period-1 pattern has at
  // most one position and needs no sort.
  order.clear();
  for (u64 i = 0; i < period; ++i) {
    if (key_of(i) != kNoDomain) order.push_back(i);
  }
  if (order.size() > 1) {
    std::sort(order.begin(), order.end(), [&](u64 a, u64 b) {
      const u64 ka = key_of(a);
      const u64 kb = key_of(b);
      return ka < kb || (ka == kb && a < b);
    });
  }
  const std::span<const u64> sorted(order);
  std::size_t g = 0;
  for (std::size_t i = 0; i < sorted.size(); ++g) {
    const u64 key = key_of(sorted[i]);
    std::size_t j = i + 1;
    while (j < sorted.size() && key_of(sorted[j]) == key) ++j;
    if (g == out.size()) out.emplace_back();
    out[g].hits.assign(sorted.subspan(i, j - i), period);
    set_key(out[g], key);
    i = j;
  }
  out.resize(g);
}

}  // namespace

void build_line_scheds(Window& w, const pcm::PcmBank& bank) {
  const auto pa_of = [&](u64 i) { return w.pas[i].value(); };
  group_positions(w.pas.size(), pa_of, w.order, w.lines, [&](LineSched& ls, u64 pa) {
    // Writes this line can absorb until it records the first failure; the
    // engine only runs while the bank has none, so wear < limit here.
    const u64 limit = bank.line_endurance(Pa{pa});
    const u64 wear = bank.wear(Pa{pa});
    ls.pa = Pa{pa};
    ls.remaining = limit > wear ? limit - wear : 1;
  });
}

void build_domain_scheds(Window& w) {
  const auto key_of = [&](u64 i) { return w.keys[i]; };
  group_positions(w.keys.size(), key_of, w.order, w.doms,
                  [](DomainSched& d, u64 key) { d.key = key; });
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
