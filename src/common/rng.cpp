#include "common/rng.hpp"

#include <unordered_set>

#include "common/check.hpp"

namespace srbsg {

Rng::Rng(u64 seed) {
  u64 sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

u64 Rng::next_in(u64 lo, u64 hi) {
  check(lo <= hi, "next_in: empty range");
  const u64 span = hi - lo;
  if (span == ~u64{0}) {
    return next();
  }
  return lo + next_below(span + 1);
}

Rng Rng::fork() {
  // Mixing two outputs through SplitMix64 gives an independent stream.
  u64 sm = next() ^ std::rotl(next(), 32);
  return Rng(splitmix64(sm));
}

std::vector<u64> sample_distinct(Rng& rng, u64 bound, u64 n) {
  check(n <= bound, "sample_distinct: n exceeds population");
  std::vector<u64> out;
  out.reserve(n);
  if (n * 3 >= bound) {
    // Dense case: partial Fisher-Yates over the full population.
    std::vector<u64> all(bound);
    for (u64 i = 0; i < bound; ++i) all[i] = i;
    for (u64 i = 0; i < n; ++i) {
      u64 j = rng.next_in(i, bound - 1);
      std::swap(all[i], all[j]);
      out.push_back(all[i]);
    }
    return out;
  }
  std::unordered_set<u64> seen;
  seen.reserve(static_cast<std::size_t>(n * 2));
  while (out.size() < n) {
    u64 v = rng.next_below(bound);
    if (seen.insert(v).second) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace srbsg
