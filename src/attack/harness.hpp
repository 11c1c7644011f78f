#pragma once
// Drives an attacker against a controller and reports the outcome.

#include <string>

#include "attack/attacker.hpp"

namespace srbsg::telemetry {
class Recorder;
}  // namespace srbsg::telemetry

namespace srbsg::attack {

struct AttackResult {
  bool succeeded{false};  ///< a PCM line was worn out
  Ns lifetime{0};         ///< simulated time to first failure (if succeeded)
  u64 writes{0};          ///< logical writes issued by the attacker
  Ns elapsed{0};          ///< simulated time consumed (== lifetime on success)
  std::string attacker;
  std::string scheme;
  std::string detail;
};

struct HarnessOptions {
  /// Telemetry for the run: attached to the controller (and its scheme)
  /// for the duration of run_attack, then detached. Not owned; nullptr
  /// leaves telemetry off.
  telemetry::Recorder* recorder{nullptr};
};

/// Runs `attacker` until first line failure or `write_budget` writes.
[[nodiscard]] AttackResult run_attack(ctl::MemoryController& mc, Attacker& attacker,
                                      u64 write_budget);
[[nodiscard]] AttackResult run_attack(ctl::MemoryController& mc, Attacker& attacker,
                                      u64 write_budget, const HarnessOptions& opts);

}  // namespace srbsg::attack
