#include "attack/pattern_writer.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace srbsg::attack {

using pcm::LineData;

u64 PatternWriter::pass(ctl::MemoryController& mc, u64 ones, u64 budget,
                        std::span<u8> shadow) {
  const u64 lines = lines_;
  check(shadow.empty() || shadow.size() == lines, "PatternWriter: shadow size != lines");
  if (las_.size() != lines) {
    las_.resize(lines);
    for (u64 i = 0; i < lines; ++i) las_[i] = La{i};
  }
  const bool skip = !shadow.empty();
  const auto want = [ones](u64 la) -> u8 { return (la & ones) != 0 ? 1 : 0; };
  // The wanted shadow bytes of eight LAs from an 8-aligned `la`: LA la|k
  // wants ALL-1 when `la` or `k` has a bit of `ones`.
  constexpr u64 kEightOnes = 0x0101010101010101ULL;
  u8 low_bytes[8];
  for (u64 k = 0; k < 8; ++k) low_bytes[k] = want(k);
  u64 low = 0;
  std::memcpy(&low, low_bytes, sizeof low);

  u64 applied = 0;
  u64 la = 0;
  while (la < lines && applied < budget && !mc.failed()) {
    if (skip) {
      while (la < lines) {
        if (la % 8 == 0 && lines - la >= 8) {
          u64 held = 0;
          std::memcpy(&held, &shadow[la], sizeof held);
          if (held == ((la & ones) != 0 ? kEightOnes : low)) {
            la += 8;
            continue;
          }
        }
        if (shadow[la] != want(la)) break;
        ++la;
      }
      if (la == lines) break;
    }
    // The maximal run of equal data from `la` that still needs writing,
    // capped at the budget.
    const u8 value = want(la);
    const u64 cap = la + std::min(lines - la, budget - applied);
    u64 end = la + 1;
    while (end < cap && want(end) == value && !(skip && shadow[end] == value)) ++end;
    const u64 len = end - la;
    const auto out = mc.write_batch(std::span<const La>(las_).subspan(la, len),
                                    value != 0 ? LineData::all_one() : LineData::all_zero());
    applied += out.writes_applied;
    if (skip) std::fill_n(&shadow[la], out.writes_applied, value);
    if (out.writes_applied < len) break;
    la = end;
  }
  return applied;
}

}  // namespace srbsg::attack
