#include "attack/harness.hpp"

#include "telemetry/telemetry.hpp"

namespace srbsg::attack {

AttackResult run_attack(ctl::MemoryController& mc, Attacker& attacker, u64 write_budget) {
  return run_attack(mc, attacker, write_budget, HarnessOptions{});
}

AttackResult run_attack(ctl::MemoryController& mc, Attacker& attacker, u64 write_budget,
                        const HarnessOptions& opts) {
  telemetry::Recorder* prev = mc.telemetry();
  telemetry::Recorder* rec = opts.recorder;
  if (rec != nullptr) mc.set_telemetry(rec);
  attacker.run(mc, write_budget);
  AttackResult res;
  res.succeeded = mc.failed();
  res.writes = mc.total_writes();
  res.elapsed = mc.now();
  if (res.succeeded) {
    res.lifetime = mc.failure().time;
    res.elapsed = res.lifetime;
    res.writes = mc.failure().total_writes;
  }
  res.attacker = std::string(attacker.name());
  res.scheme = std::string(mc.scheme().name());
  res.detail = attacker.detail();
  if (rec != nullptr) mc.set_telemetry(prev);
  return res;
}

}  // namespace srbsg::attack
