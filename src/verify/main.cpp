// srbsg-verify: bounded model checker CLI. Exhaustively proves the five
// invariant families over the bounded cell grid, or replays / minimizes
// counterexamples. See DESIGN.md §14 and EXPERIMENTS.md.
//
// Exit codes: 0 all selected cells pass (or replay passes), 1 at least
// one counterexample (or replay reproduces), 2 usage/internal error.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "verify/checks.hpp"
#include "verify/report.hpp"
#include "verify/verify.hpp"

namespace {

using namespace srbsg;
using namespace srbsg::verify;

void usage(std::ostream& os) {
  os << "usage: srbsg-verify [options] [cell-id-prefix ...]\n"
        "\n"
        "Runs every cell whose id starts with one of the given prefixes\n"
        "(all cells when none are given).\n"
        "\n"
        "options:\n"
        "  --list                 print the cell grid and exit\n"
        "  --threads N            worker threads (0 = hardware concurrency,\n"
        "                         at most 1024)\n"
        "  --json PATH            write the JSON report to PATH\n"
        "  --replay STR           replay one counterexample string and exit\n"
        "  --mutate KIND          inject a fault (selftest aid): none,\n"
        "                         translate-collision, lost-copy,\n"
        "                         phantom-write, batch-skip, epoch-skip\n"
        "  --arm-after N          faithful writes before the fault arms\n"
        "  --selftest             prove each family catches its bug class\n"
        "                         and that witnesses minimize; exit 0/2\n"
        "bounds (defaults are the documented reference bounds):\n"
        "  --min-width N --max-width N --max-stages N --key-budget-bits N\n"
        "  --bank-lines CSV --seeds N --rotation-rounds N\n"
        "  --batch-lines N --max-pattern-len N\n";
}

struct Options {
  Bounds bounds;
  MutationSpec mut;
  std::vector<std::string> prefixes;
  std::string json_path;
  std::string replay;
  std::size_t threads{0};
  bool list{false};
  bool selftest{false};
};

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto need = [&](int& i, const std::string& flag) -> std::string {
    check(i + 1 < argc, "missing value for " + flag);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--threads") {
      const u64 threads = parse_u64(need(i, arg), arg);
      check(threads <= ThreadPool::kMaxThreads,
            "--threads " + std::to_string(threads) + " exceeds " +
                std::to_string(ThreadPool::kMaxThreads));
      opt.threads = static_cast<std::size_t>(threads);
    } else if (arg == "--json") {
      opt.json_path = need(i, arg);
    } else if (arg == "--replay") {
      opt.replay = need(i, arg);
    } else if (arg == "--mutate") {
      opt.mut.kind = parse_mutation(need(i, arg));
    } else if (arg == "--arm-after") {
      opt.mut.arm_after = parse_u64(need(i, arg), arg);
    } else if (arg == "--min-width") {
      opt.bounds.min_width = checked_narrow<u32>(parse_u64(need(i, arg), arg));
    } else if (arg == "--max-width") {
      opt.bounds.max_width = checked_narrow<u32>(parse_u64(need(i, arg), arg));
    } else if (arg == "--max-stages") {
      opt.bounds.max_stages = checked_narrow<u32>(parse_u64(need(i, arg), arg));
    } else if (arg == "--key-budget-bits") {
      opt.bounds.key_budget_bits = checked_narrow<u32>(parse_u64(need(i, arg), arg));
    } else if (arg == "--bank-lines") {
      opt.bounds.bank_lines = verify::detail::parse_trace(need(i, arg));
    } else if (arg == "--seeds") {
      opt.bounds.seeds = parse_u64(need(i, arg), arg);
    } else if (arg == "--rotation-rounds") {
      opt.bounds.rotation_rounds = parse_u64(need(i, arg), arg);
    } else if (arg == "--batch-lines") {
      opt.bounds.batch_lines = parse_u64(need(i, arg), arg);
    } else if (arg == "--max-pattern-len") {
      opt.bounds.max_pattern_len = parse_u64(need(i, arg), arg);
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      throw CheckFailure("unknown flag: " + arg);
    } else {
      opt.prefixes.push_back(arg);
    }
  }
  return opt;
}

std::vector<Cell> select_cells(const Options& opt) {
  std::vector<Cell> cells = list_cells(opt.bounds);
  if (opt.prefixes.empty()) return cells;
  std::vector<Cell> out;
  for (Cell& cell : cells) {
    for (const std::string& p : opt.prefixes) {
      if (cell.id.rfind(p, 0) == 0) {
        out.push_back(std::move(cell));
        break;
      }
    }
  }
  check(!out.empty(), "no cells match the given prefixes");
  return out;
}

/// Curated (mutation, cell) pairs proving each family detects its bug
/// class: the unmutated cell must pass, the mutated one must fail with a
/// replayable witness that reproduces and actually shrank.
int run_selftest(const Options& opt) {
  struct Probe {
    MutationKind kind;
    const char* cell_prefix;
    u64 max_witness;  ///< minimized witness must be <= this many items
  };
  const std::vector<Probe> probes = {
      {MutationKind::kTranslateCollision, "roundtrip/security-rbsg/", 1},
      {MutationKind::kLostCopy, "preserve/sr2/", 16},
      {MutationKind::kPhantomWrite, "preserve/rbsg/", 16},
      {MutationKind::kBatchSkip, "batch/start-gap/", 3},
      {MutationKind::kEpochSkip, "epoch/security-rbsg/", 1},
  };

  // Shrunk bounds keep the selftest to a few seconds.
  Bounds b = opt.bounds;
  b.min_width = 4;
  b.max_width = 6;
  b.bank_lines = {16};
  b.seeds = 1;
  b.rotation_rounds = 2;
  b.max_pattern_len = 4;
  ThreadPool pool(opt.threads);

  int failures = 0;
  for (const Probe& probe : probes) {
    const std::vector<Cell> all = list_cells(b);
    const Cell* cell = nullptr;
    for (const Cell& c : all) {
      if (c.id.rfind(probe.cell_prefix, 0) == 0) {
        cell = &c;
        break;
      }
    }
    check(cell != nullptr, std::string("selftest: no cell matches ") + probe.cell_prefix);

    const auto complain = [&](const std::string& what) {
      std::cerr << "selftest FAIL [" << to_string(probe.kind) << " @ " << cell->id
                << "]: " << what << "\n";
      ++failures;
    };

    const CellResult clean = run_cell(*cell, b, pool);
    if (!clean.pass) {
      complain("unmutated cell failed: " + clean.cex->message);
      continue;
    }
    const CellResult hurt = run_cell(*cell, b, pool, MutationSpec{probe.kind, 0});
    if (hurt.pass) {
      complain("mutated cell passed — the family missed its bug class");
      continue;
    }
    const Counterexample& cex = *hurt.cex;
    if (cex.size > probe.max_witness) {
      complain("witness did not minimize: size=" + std::to_string(cex.size) +
               " (expected <= " + std::to_string(probe.max_witness) + ")");
      continue;
    }
    const std::optional<std::string> repro = verify::detail::replay_counterexample(cex.replay, b);
    if (!repro.has_value()) {
      complain("minimized replay string does not reproduce: " + cex.replay);
      continue;
    }
    std::cout << "selftest ok [" << to_string(probe.kind) << " @ " << cell->id
              << "]: witness " << cex.original_size << " -> " << cex.size << " items\n";
  }
  if (failures == 0) std::cout << "selftest: all " << probes.size() << " probes passed\n";
  return failures == 0 ? 0 : 2;
}

int run(const Options& opt) {
  if (opt.list) {
    for (const Cell& cell : list_cells(opt.bounds)) {
      std::cout << cell.id << "\n";
    }
    return 0;
  }
  if (!opt.replay.empty()) {
    const std::optional<std::string> violation =
        verify::detail::replay_counterexample(opt.replay, opt.bounds);
    if (violation.has_value()) {
      std::cout << "replay reproduces the violation: " << *violation << "\n";
      return 1;
    }
    std::cout << "replay passes: the invariant holds on this input\n";
    return 0;
  }
  if (opt.selftest) return run_selftest(opt);

  ThreadPool pool(opt.threads);
  const std::vector<Cell> cells = select_cells(opt);
  const std::vector<CellResult> results = run_cells(cells, opt.bounds, pool, opt.mut);

  u64 failed = 0;
  u64 states = 0;
  for (const CellResult& r : results) {
    states += r.states;
    if (r.pass) {
      std::cout << "PASS " << r.cell.id << "  states=" << r.states << "  wall_ms=" << r.wall_ms
                << "\n";
    } else {
      ++failed;
      std::cout << "FAIL " << r.cell.id << "  states=" << r.states << "\n  " << r.cex->message
                << "\n  minimized " << r.cex->original_size << " -> " << r.cex->size
                << " items\n  replay: " << r.cex->replay << "\n";
    }
  }
  std::cout << results.size() << " cells, " << failed << " failed, " << states
            << " states enumerated\n";
  if (!opt.json_path.empty()) {
    write_file(opt.json_path, report_json(results, opt.bounds, opt.mut));
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "srbsg-verify: " << e.what() << "\n";
    return 2;
  }
}
