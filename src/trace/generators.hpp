#pragma once
// Synthetic access-pattern generators.

#include <span>

#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace srbsg::trace {

struct GeneratorOptions {
  u64 lines{1u << 16};        ///< address space (line count)
  u64 accesses{100'000};      ///< records to generate
  double write_ratio{0.3};    ///< fraction of accesses that are writes
  u32 mean_instruction_gap{50};  ///< average instructions between accesses
  u64 seed{1};
};

/// Uniformly random addresses.
[[nodiscard]] Trace make_uniform(const GeneratorOptions& opt);

/// Sequential sweep (streaming workload) with wrap-around.
[[nodiscard]] Trace make_sequential(const GeneratorOptions& opt);

/// Zipf-distributed addresses (exponent `alpha`, rank-shuffled so hot
/// lines are scattered across the space).
[[nodiscard]] Trace make_zipf(const GeneratorOptions& opt, double alpha);

/// `hot_fraction` of the space receives `hot_traffic` of the accesses —
/// the classic hotspot pattern that kills unleveled PCM.
[[nodiscard]] Trace make_hotspot(const GeneratorOptions& opt, double hot_fraction,
                                 double hot_traffic);

/// Fills `out` with uniform addresses in [0, lines) from a counter-based
/// splitmix64 stream: element k depends only on (seed, start + k), so any
/// partition of the stream into blocks produces identical addresses —
/// blocks feed MemoryController::write_batch without the interleaved
/// per-record draws of the Trace generators above.
void uniform_address_block(u64 lines, u64 seed, u64 start, std::span<u64> out);

}  // namespace srbsg::trace
