#pragma once
// Identity mapping, no remapping — the paper's unprotected baseline
// (RAA kills a line on it in about a minute, §II.B).

#include "wl/engine.hpp"

namespace srbsg::wl {

class NoWearLeveling final : public BulkEngine<NoWearLeveling> {
 public:
  explicit NoWearLeveling(u64 lines);

  [[nodiscard]] std::string_view name() const override { return "none"; }
  [[nodiscard]] u64 logical_lines() const override { return lines_; }
  [[nodiscard]] u64 physical_lines() const override { return lines_; }

 private:
  friend class BulkEngine<NoWearLeveling>;
  // No counters: one window runs to completion or stops at the exact
  // write that records the failure.
  [[nodiscard]] Loc locate(u64 la) const { return {Pa{la}}; }

  u64 lines_;
};

}  // namespace srbsg::wl
