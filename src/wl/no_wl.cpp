#include "wl/no_wl.hpp"

#include "common/check.hpp"

namespace srbsg::wl {

NoWearLeveling::NoWearLeveling(u64 lines) : lines_(lines) {
  check(lines >= 1, "NoWearLeveling: need at least one line");
}

}  // namespace srbsg::wl
