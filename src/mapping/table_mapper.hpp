#pragma once
// Explicit random permutation table — a *true* uniform random permutation
// with O(1) lookup. Hardware-unrealistic at memory scale (it needs N·B
// bits of table), but the ideal-randomizer upper bound for ablations: it
// shows how much lifetime the paper's cubing Feistel network leaves on
// the table (pun intended) due to its T-function diffusion weakness.

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mapping/mapper.hpp"

namespace srbsg::mapping {

class TableMapper final : public AddressMapper {
 public:
  /// Uniformly random permutation of [0, 2^width_bits) via Fisher-Yates.
  TableMapper(u32 width_bits, Rng& rng);

  [[nodiscard]] u32 width_bits() const override { return width_bits_; }
  [[nodiscard]] u64 map(u64 x) const override;
  [[nodiscard]] u64 unmap(u64 y) const override;
  /// Copies the inverse table.
  void unmap_all(std::span<u32> inv) const override;

 private:
  u32 width_bits_;
  std::vector<u32> fwd_;
  std::vector<u32> inv_;
};

}  // namespace srbsg::mapping
