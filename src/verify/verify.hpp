#pragma once
// srbsg-verify: a bounded model checker for the scheme invariants the
// security argument rests on (DESIGN.md §14).
//
// Unlike the unit tests and the runtime auditor — which *sample* states —
// the verifier exhaustively enumerates a bounded state space and proves
// the invariant over all of it, or emits a minimized, replayable
// counterexample. Five check families:
//
//   feistel-bijection   map()/unmap() invert each other for EVERY key
//                       tuple x stage count at 4-12-bit widths
//   scheme-roundtrip    translation stays an in-bounds injection (hence a
//                       LA->PA->LA bijection) after EVERY write of a full
//                       rotation schedule, all schemes, 16-64-line banks
//   remap-preservation  no remap loses data; write/movement bookkeeping
//                       conserves bank wear exactly, step by step
//   batch-equivalence   write_batch()/write_cycle() bit-identical to the
//                       per-write reference loop for ALL patterns up to a
//                       bounded length, steady and failing banks
//   epoch-equivalence   the same pattern grid with the fast arm under
//                       EngineTier::kEpoch, so the analytic fast-forward
//                       engines (DESIGN.md §15) carry the bit-identity
//                       proof, including mid-pattern endurance failure
//
// The state space of one (check, scheme, width) cell is sharded across a
// ThreadPool via parallel_for; results are deterministic (the lowest
// failing state index wins).

#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "verify/mutant.hpp"

namespace srbsg::verify {

/// Exploration bounds. The defaults are the *reference bounds* the CI
/// verify job runs and DESIGN.md §14 documents; tests shrink them.
struct Bounds {
  // feistel-bijection: widths [min_width, max_width]; for each width,
  // every stage count whose full key cross-product fits in
  // 2^key_budget_bits tuples (half_bits * stages <= key_budget_bits) is
  // verified over ALL key tuples x ALL inputs.
  u32 min_width{4};
  u32 max_width{12};
  u32 max_stages{8};
  u32 key_budget_bits{16};

  // scheme-roundtrip / remap-preservation: bank sizes (logical lines) and
  // the exhaustive seed range [0, seeds). rotation_rounds scales the
  // write budget so every Start-Gap region completes at least that many
  // full rotations and every SR/DFN level at least one full key round.
  std::vector<u64> bank_lines{16, 64};
  u64 seeds{8};
  u64 rotation_rounds{3};

  // batch-equivalence: alphabet = all logical lines of a batch_lines
  // bank; every pattern in [1, max_pattern_len] positions is replayed
  // through write_batch and write_cycle against the per-write loop.
  u64 batch_lines{8};
  u64 max_pattern_len{4};
  /// write_cycle repetition count = pattern length * this factor + 1, so
  /// the final cycle is always partial.
  u64 cycle_count_factor{3};

  /// Scheme-construction knobs shared by the stepping/batch families.
  u64 regions{4};
  u64 inner_interval{4};
  u64 outer_interval{8};
  u32 stages{3};
};

/// A minimized, replayable witness of an invariant violation.
struct Counterexample {
  std::string message;  ///< what diverged, with both values
  /// Flat `key=value;...` string accepted by `srbsg-verify --replay`.
  std::string replay;
  u64 original_size{0};  ///< states/pattern positions before minimization
  u64 size{0};           ///< after minimization
  bool minimized{false};
};

/// One verifiable unit of the grid: (check family, scheme, size param).
struct Cell {
  std::string id;      ///< e.g. "feistel/w6", "batch/sr2/n8"
  std::string check;   ///< family id ("feistel-bijection", ...)
  std::string scheme;  ///< factory name; empty for feistel cells
  u64 param{0};        ///< width_bits (feistel) or logical lines
};

struct CellResult {
  Cell cell;
  bool pass{true};
  u64 states{0};  ///< states actually enumerated
  double wall_ms{0.0};
  std::optional<Counterexample> cex;
};

/// The full cell grid at `bounds`, in deterministic order.
[[nodiscard]] std::vector<Cell> list_cells(const Bounds& bounds);

/// Exhaustively verifies one cell, sharding its state space over `pool`.
/// A non-kNone `mut` seeds the mutation into every scheme the cell
/// constructs (selftest path: the cell must then fail).
[[nodiscard]] CellResult run_cell(const Cell& cell, const Bounds& bounds, ThreadPool& pool,
                                  const MutationSpec& mut = {});

/// All cells in order; stops early only on internal errors, never on a
/// counterexample (every cell reports independently).
[[nodiscard]] std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                                const Bounds& bounds, ThreadPool& pool,
                                                const MutationSpec& mut = {});

}  // namespace srbsg::verify
