#pragma once
// The writes an RTA attacker issues without reading their latencies: the
// blanket (Step 1) and the memory patterning passes that precede each
// key-bit observation. Nothing is learned from them, so they go through
// the controller's bulk entry point, one write_batch per run of equal
// data; the writes, their order and their data are those of the
// per-write loop, and so is every simulated outcome (DESIGN.md §11).

#include <span>
#include <vector>

#include "attack/attacker.hpp"

namespace srbsg::attack {

class PatternWriter {
 public:
  explicit PatternWriter(u64 lines) : lines_(lines) {}

  /// Writes ALL-1 to every LA in [0, lines) that has a bit of `ones` set
  /// and ALL-0 to the rest, in ascending LA order. An LA whose `shadow`
  /// entry (the attacker's record of what it last wrote: 0, 1, or
  /// anything else for unknown) already holds its value is skipped; an
  /// empty shadow skips none. Stops after `budget` writes, or after the
  /// write that fails the bank. Updates the shadow for applied writes
  /// only and returns their number.
  u64 pass(ctl::MemoryController& mc, u64 ones, u64 budget, std::span<u8> shadow);

 private:
  u64 lines_;
  std::vector<La> las_;  ///< las_[i] == La{i}, filled by the first pass
};

}  // namespace srbsg::attack
