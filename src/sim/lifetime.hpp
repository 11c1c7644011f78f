#pragma once
// To-failure lifetime simulation: builds a controller from a scheme spec,
// picks the right attacker implementation, and runs until the first line
// dies (or a write budget runs out).

#include <memory>

#include "attack/harness.hpp"
#include "common/stats.hpp"
#include "wl/factory.hpp"

namespace srbsg::telemetry {
class Collector;
}  // namespace srbsg::telemetry

namespace srbsg::sim {

class WorkerArena;  // sim/arena.hpp

enum class AttackKind : u8 {
  kRaa,
  kBpa,
  kRta,       ///< scheme-specific RTA variant (probe for Security RBSG)
};

[[nodiscard]] std::string_view to_string(AttackKind kind);

struct LifetimeConfig {
  pcm::PcmConfig pcm;
  wl::SchemeSpec scheme;
  AttackKind attack{AttackKind::kRaa};
  u64 write_budget{u64{1} << 40};
  u64 seed{1};
  /// write_cycle engine tier for the run. All tiers produce bit-identical
  /// outcomes (ctest -L verify guards this); epoch, the default, is the
  /// fast path for periodic attacks and runs the windowed loop wherever
  /// it cannot jump.
  wl::EngineTier engine{wl::EngineTier::kEpoch};
  /// Optional trace collection: the run borrows a Recorder from the
  /// collector for the attack and absorbs it back (keyed by
  /// `telemetry_entry`) once the run finishes. Not owned; nullptr (the
  /// default) runs without telemetry.
  telemetry::Collector* telemetry{nullptr};
  /// Trace key for this run — run_sweep assigns the sweep entry index.
  u64 telemetry_entry{0};
};

struct LifetimeOutcome {
  attack::AttackResult result;
  WearMetrics wear;  ///< over all physical lines at the end of the run
};

/// The scheme-appropriate attacker: RTA resolves to the RBSG / SR1 / SR2
/// models of §III, or to the feasibility probe for Security RBSG.
[[nodiscard]] std::unique_ptr<attack::Attacker> make_attacker(const LifetimeConfig& cfg);

[[nodiscard]] LifetimeOutcome run_lifetime(const LifetimeConfig& cfg);

/// Arena path: identical results to run_lifetime(cfg), but the bank is
/// borrowed from (and returned to) `arena` instead of being constructed
/// per call — the per-run cost drops from O(bank size) allocation +
/// endurance-table sampling to an in-place reset.
[[nodiscard]] LifetimeOutcome run_lifetime(const LifetimeConfig& cfg, WorkerArena& arena);

}  // namespace srbsg::sim
