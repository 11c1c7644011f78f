#pragma once
// The Start-Gap rotation primitive (Qureshi et al., MICRO'09; paper §III.A,
// Fig. 2): M lines live in M+1 slots; a Gap register points at the empty
// slot and a Start register tracks completed rotations. Every gap movement
// copies slot[Gap-1] into slot[Gap] and decrements Gap; after M+1
// movements every line has shifted by one slot.
//
// This class is pure bookkeeping in "slot space" [0, M]; owners add their
// region base and perform the actual data copies.

#include "common/check.hpp"
#include "common/types.hpp"

namespace srbsg::wl {

class StartGapRegion {
 public:
  /// `lines` = M (data lines); the region occupies M+1 physical slots.
  explicit StartGapRegion(u64 lines);

  [[nodiscard]] u64 lines() const { return lines_; }
  [[nodiscard]] u64 slots() const { return lines_ + 1; }
  [[nodiscard]] u64 gap() const { return gap_; }
  [[nodiscard]] u64 start() const { return start_; }

  /// Slot currently holding intermediate address `ia` (ia in [0, M)).
  [[nodiscard]] u64 translate(u64 ia) const {
    check(ia < lines_, "StartGapRegion: intermediate address out of range");
    // Qureshi's closed form: rotate by Start modulo the LINE count, then
    // skip over the gap slot.
    u64 pa = ia + start_;
    if (pa >= lines_) pa -= lines_;
    if (pa >= gap_) ++pa;
    return pa;
  }

  /// One gap movement. Returns {from, to}: the owner must copy the data
  /// of slot `from` into slot `to`.
  struct Movement {
    u64 from;
    u64 to;
  };
  Movement advance();

  /// Epoch-engine aggregate: `steps` consecutive advance() calls folded
  /// into one register update. Requires steps <= gap() — the wrap redraws
  /// Start and must replay through advance(). The owner applies the
  /// folded data effect: slots [gap-steps+1, gap] wear by one, and only
  /// slot gap changes content (it receives slot gap-1's line).
  void retreat_gap(u64 steps);

  /// Register-bound invariants (Gap in [0, M], Start in [0, M)); throws
  /// CheckFailure on violation. Audit hook, not a fast-path check.
  void validate() const;

 private:
  u64 lines_;
  u64 gap_;    ///< empty slot, in [0, M]
  u64 start_;  ///< rotation offset, in [0, M)
};

}  // namespace srbsg::wl
