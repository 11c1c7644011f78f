// srbsg-analyze fixture: seeded a2-determinism violations (clean twin:
// a2_determinism_clean.cpp). Covers the AST-only classes (pointer
// hashing, unordered iteration, chrono clocks) and the calls lint R1 also
// bans (rand/time/random_device), each reported once. The <ctime>
// include below is no AST node: lint R1 alone reports it.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <random>
#include <unordered_map>

namespace fixture {

int hidden_seed_randomness() {
  return std::rand();  // EXPECT: a2-determinism
}

long wall_clock() {
  return static_cast<long>(std::time(nullptr));  // EXPECT: a2-determinism
}

unsigned entropy_seed() {
  std::random_device rd;  // EXPECT: a2-determinism
  return rd();
}

long chrono_clock() {
  auto t = std::chrono::steady_clock::now();  // EXPECT: a2-determinism
  return t.time_since_epoch().count();
}

std::size_t pointer_hash(int* p) {
  std::hash<int*> hasher;  // EXPECT: a2-determinism
  return hasher(p);
}

long unordered_iteration(const std::unordered_map<long, long>& histogram) {
  long checksum = 0;
  for (const auto& kv : histogram) {  // EXPECT: a2-determinism
    checksum = checksum * 31 + kv.second;
  }
  return checksum;
}

int suppressed_randomness() {
  return std::rand();  // srbsg-analyze: suppress(a2-determinism) fixture-only  EXPECT-SUPPRESSED: a2-determinism
}

}  // namespace fixture
