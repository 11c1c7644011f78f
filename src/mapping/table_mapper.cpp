#include "mapping/table_mapper.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"

namespace srbsg::mapping {

TableMapper::TableMapper(u32 width_bits, Rng& rng) : width_bits_(width_bits) {
  check(width_bits >= 1 && width_bits <= 28, "TableMapper: width out of range");
  const u64 n = u64{1} << width_bits;
  fwd_.resize(n);
  inv_.resize(n);
  // srbsg-analyze: suppress(a1-width) i < 2^width and width <= 28 is checked above
  for (u64 i = 0; i < n; ++i) fwd_[i] = static_cast<u32>(i);
  rng.shuffle(std::span<u32>(fwd_));
  // srbsg-analyze: suppress(a1-width) same bound as above; this is the 2^width-entry hot path
  for (u64 i = 0; i < n; ++i) inv_[fwd_[i]] = static_cast<u32>(i);
}

u64 TableMapper::map(u64 x) const {
  check(x < fwd_.size(), "TableMapper::map: input out of domain");
  return fwd_[x];
}

u64 TableMapper::unmap(u64 y) const {
  check(y < inv_.size(), "TableMapper::unmap: input out of domain");
  return inv_[y];
}

void TableMapper::unmap_all(std::span<u32> inv) const {
  check_eq(u64{inv.size()}, u64{inv_.size()},
           "TableMapper::unmap_all: table size != domain size");
  std::copy(inv_.begin(), inv_.end(), inv.begin());
}

}  // namespace srbsg::mapping
