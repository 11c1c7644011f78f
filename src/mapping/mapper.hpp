#pragma once
// Common interface for invertible address randomizers. All mappers are
// bijections on [0, 2^width_bits).

#include <span>

#include "common/check.hpp"
#include "common/types.hpp"

namespace srbsg::mapping {

class AddressMapper {
 public:
  virtual ~AddressMapper() = default;

  /// Domain is [0, 2^width_bits()).
  [[nodiscard]] virtual u32 width_bits() const = 0;

  /// Forward mapping (bijective).
  [[nodiscard]] virtual u64 map(u64 x) const = 0;

  /// Inverse mapping: unmap(map(x)) == x.
  [[nodiscard]] virtual u64 unmap(u64 y) const = 0;

  /// The whole inverse permutation at once, into the caller's table:
  /// inv[y] = unmap(y) for every y in the domain (inv.size() ==
  /// domain_size()). Allocates nothing. This default evaluates unmap()
  /// per entry.
  virtual void unmap_all(std::span<u32> inv) const {
    check_eq(u64{inv.size()}, domain_size(), "unmap_all: table size != domain size");
    for (u64 y = 0; y < inv.size(); ++y) inv[y] = checked_narrow<u32>(unmap(y));
  }

  [[nodiscard]] u64 domain_size() const { return u64{1} << width_bits(); }
};

}  // namespace srbsg::mapping
