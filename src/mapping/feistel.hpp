#pragma once
// Multi-stage Feistel network with the paper's cubing round function
// (§IV.B, Fig. 7):  L' = R,  R' = L XOR (R XOR K)^3   [balanced variant]
//
// The paper draws the classic balanced network: each stage splits the
// B-bit input into halves (L, R); the new left half is R and the new
// right half is L XOR F(R, K) with F the cubing function truncated to
// B/2 bits. Encryption and decryption differ only in key order.
//
// Odd widths are supported by cycle-walking a (B+1)-bit network: the
// permutation on [0, 2^(B+1)) is iterated until the value falls back into
// [0, 2^B), which restricts it to a bijection on the smaller domain.
//
// unmap_all() tabulates the inverse in one pass: every stage runs over a
// block of independent values with 32-bit arithmetic, so the work is
// throughput- rather than latency-bound, and odd widths walk their
// escaped values in blocks too.

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mapping/mapper.hpp"

namespace srbsg::mapping {

class FeistelNetwork final : public AddressMapper {
 public:
  /// `width_bits` in [2, 62]; one key per stage, each truncated to the
  /// half-width of the internal (even-width) network.
  FeistelNetwork(u32 width_bits, std::span<const u64> keys);

  [[nodiscard]] u32 width_bits() const override { return width_bits_; }
  // srbsg-analyze: suppress(a1-width) stage count is a small per-network constant
  [[nodiscard]] u32 stages() const { return static_cast<u32>(keys_.size()); }
  [[nodiscard]] std::span<const u64> keys() const { return keys_; }

  [[nodiscard]] u64 map(u64 x) const override;
  [[nodiscard]] u64 unmap(u64 y) const override;

  /// Requires a network of at most 32 bits (table entries are u32).
  void unmap_all(std::span<u32> inv) const override;

  /// Fresh random key schedule for a `stages`-stage network of this width.
  [[nodiscard]] static std::vector<u64> random_keys(u32 width_bits, u32 stages, Rng& rng);

 private:
  [[nodiscard]] u64 round_once(u64 x, u64 key) const;
  [[nodiscard]] u64 unround_once(u64 x, u64 key) const;
  [[nodiscard]] u64 encrypt_even(u64 x) const;
  [[nodiscard]] u64 decrypt_even(u64 x) const;
  /// Values unmap_all() decrypts at once.
  static constexpr std::size_t kBlock = 64;
  /// decrypt_even() of every value in `xs`, in place (32-bit networks).
  void decrypt_even_block(std::span<u32, kBlock> xs) const;

  u32 width_bits_;
  u32 even_bits_;   ///< width of the internal balanced network
  u32 half_bits_;   ///< even_bits_ / 2
  u64 half_mask_;
  std::vector<u64> keys_;
};

/// The paper's round function: cubing of (v XOR key), truncated to
/// `half_bits` (exposed for tests and the gate-count overhead model).
[[nodiscard]] u64 cubing_round(u64 v, u64 key, u32 half_bits);

}  // namespace srbsg::mapping
