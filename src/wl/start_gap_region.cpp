#include "wl/start_gap_region.hpp"

#include "common/check.hpp"

namespace srbsg::wl {

StartGapRegion::StartGapRegion(u64 lines) : lines_(lines), gap_(lines), start_(0) {
  check(lines >= 1, "StartGapRegion: need at least one line");
}

StartGapRegion::Movement StartGapRegion::advance() {
  if (gap_ == 0) {
    // Wrap: the line in the last slot moves into slot 0; one full rotation
    // completes, so Start advances.
    const Movement mv{lines_, 0};
    gap_ = lines_;
    start_ = start_ + 1 == lines_ ? 0 : start_ + 1;
    return mv;
  }
  const Movement mv{gap_ - 1, gap_};
  --gap_;
  return mv;
}

void StartGapRegion::retreat_gap(u64 steps) {
  check_le(steps, gap_, "StartGapRegion: aggregate retreat crosses the wrap");
  gap_ -= steps;
}

void StartGapRegion::validate() const {
  check_le(gap_, lines_, "StartGapRegion: Gap register out of bounds");
  check_lt(start_, lines_, "StartGapRegion: Start register out of bounds");
}

}  // namespace srbsg::wl
