#include "mapping/feistel.hpp"

#include <algorithm>
#include <array>

#include "common/bitops.hpp"
#include "common/check.hpp"

namespace srbsg::mapping {

namespace {
// (v XOR key)^3 mod 2^w with the mask precomputed — the hot-path form
// used by the stage loops, where the width check has already been done
// once at construction. t*t stays exact in 64 bits for any w <= 32.
inline u64 cube_masked(u64 v, u64 key, u64 mask) {
  const u64 t = (v ^ key) & mask;
  const u64 sq = (t * t) & mask;
  return (sq * t) & mask;
}
}  // namespace

u64 cubing_round(u64 v, u64 key, u32 half_bits) {
  // (t^3) mod 2^half_bits. Half widths never exceed 32 bits in practice
  // (62-bit address spaces), so t*t fits in 64 bits after masking; mask
  // between multiplications to stay exact for any half width <= 32.
  check(half_bits <= 32, "cubing_round: half width too large");
  return cube_masked(v, key, low_mask(half_bits));
}

FeistelNetwork::FeistelNetwork(u32 width_bits, std::span<const u64> keys)
    : width_bits_(width_bits),
      even_bits_(width_bits % 2 == 0 ? width_bits : width_bits + 1),
      half_bits_(even_bits_ / 2),
      half_mask_(low_mask(half_bits_)),
      keys_(keys.begin(), keys.end()) {
  check(width_bits >= 2 && width_bits <= 62, "FeistelNetwork: width out of range");
  check(!keys_.empty(), "FeistelNetwork: need at least one stage");
  for (auto& k : keys_) k &= half_mask_;
}

u64 FeistelNetwork::round_once(u64 x, u64 key) const {
  const u64 left = x >> half_bits_;
  const u64 right = x & half_mask_;
  const u64 new_left = right;
  const u64 new_right = left ^ cube_masked(right, key, half_mask_);
  return (new_left << half_bits_) | new_right;
}

u64 FeistelNetwork::unround_once(u64 x, u64 key) const {
  const u64 new_left = x >> half_bits_;
  const u64 new_right = x & half_mask_;
  const u64 right = new_left;
  const u64 left = new_right ^ cube_masked(right, key, half_mask_);
  return (left << half_bits_) | right;
}

u64 FeistelNetwork::encrypt_even(u64 x) const {
  for (u64 k : keys_) x = round_once(x, k);
  return x;
}

u64 FeistelNetwork::decrypt_even(u64 x) const {
  for (auto it = keys_.rbegin(); it != keys_.rend(); ++it) x = unround_once(x, *it);
  return x;
}

void FeistelNetwork::decrypt_even_block(std::span<u32, kBlock> xs) const {
  // Stage by stage over the whole block: the values are independent and
  // the trip count is fixed, so each stage is a branch-free loop the
  // compiler vectorizes. With a half width of at most 16 bits every
  // product stays exact in 32 bits.
  const u32 h = half_bits_;
  const u32 mask = checked_narrow<u32>(half_mask_);
  for (auto it = keys_.rbegin(); it != keys_.rend(); ++it) {
    const u32 key = checked_narrow<u32>(*it);
    for (u32& x : xs) {
      // unround_once(): right = new_left, left = new_right ^ F(right).
      const u32 right = x >> h;
      const u32 t = (right ^ key) & mask;
      const u32 cube = (((t * t) & mask) * t) & mask;
      x = (((x & mask) ^ cube) << h) | right;
    }
  }
}

void FeistelNetwork::unmap_all(std::span<u32> inv) const {
  const u64 n = domain_size();
  check(even_bits_ <= 32, "FeistelNetwork::unmap_all: network wider than 32 bits");
  check_eq(u64{inv.size()}, n, "FeistelNetwork::unmap_all: table size != domain size");
  // Whole blocks, even past the domain's end: the spare lanes compute
  // values nobody reads.
  std::array<u32, kBlock> blk{};
  u32 next = 0;
  for (std::size_t b = 0; b < inv.size(); b += kBlock) {
    for (u32& x : blk) x = next++;
    decrypt_even_block(blk);
    std::copy_n(blk.begin(), std::min(kBlock, inv.size() - b), inv.subspan(b).begin());
  }
  if (even_bits_ == width_bits_) return;
  // Cycle-walk the values that left the domain, a block of walks at a
  // time: each step decrypts every pending value at once, stores it, and
  // keeps the walks still outside the domain. Each walk stops at its
  // first in-domain value, as unmap()'s does.
  std::array<u32, kBlock> ys{};
  std::array<u32, kBlock> xs{};
  std::size_t pending = 0;
  const auto step = [&] {
    decrypt_even_block(xs);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending; ++i) {
      const u32 y = ys[i];
      const u32 x = xs[i];
      inv[y] = x;
      ys[kept] = y;
      xs[kept] = x;
      kept += static_cast<std::size_t>(x >= n);
    }
    pending = kept;
  };
  for (u32 y = 0; y < n; ++y) {
    ys[pending] = y;
    xs[pending] = inv[y];
    pending += static_cast<std::size_t>(inv[y] >= n);
    while (pending == kBlock) step();
  }
  while (pending > 0) step();
}

u64 FeistelNetwork::map(u64 x) const {
  const u64 dom = u64{1} << width_bits_;
  check(x < dom, "FeistelNetwork::map: input out of domain");
  u64 y = encrypt_even(x);
  // Cycle-walk back into the domain for odd widths.
  while (y >= dom) y = encrypt_even(y);
  return y;
}

u64 FeistelNetwork::unmap(u64 y) const {
  const u64 dom = u64{1} << width_bits_;
  check(y < dom, "FeistelNetwork::unmap: input out of domain");
  u64 x = decrypt_even(y);
  while (x >= dom) x = decrypt_even(x);
  return x;
}

std::vector<u64> FeistelNetwork::random_keys(u32 width_bits, u32 stages, Rng& rng) {
  check(stages > 0, "random_keys: need at least one stage");
  const u32 even = width_bits % 2 == 0 ? width_bits : width_bits + 1;
  const u64 mask = low_mask(even / 2);
  std::vector<u64> keys(stages);
  for (auto& k : keys) k = rng.next() & mask;
  return keys;
}

}  // namespace srbsg::mapping
