#pragma once
// Shared helpers for the figure benches.
//
// Every figure bench prints three things side by side:
//   1. the paper's reported value (hard-coded from the text/figures),
//   2. the closed-form model evaluated at PAPER scale (1 GB, E = 1e8),
//   3. an exact to-failure simulation at a SCALED bank (see DESIGN.md §3)
// so the trend can be checked at both scales. Set SRBSG_FULL=1 for larger
// scaled banks (slower, tighter curves).
//
// All binaries share one flag parser (parse_bench_options):
//   --threads N     worker threads for the sweep pool (0 = hardware)
//   --seeds N       seeded replicas per configuration
//   --scale B       log2 of the scaled bank's line count
//   --json PATH     write machine-readable results to PATH
//   --trace-out PATH  write a JSONL event trace (telemetry_schema 2)
// Each bench declares which flags it honors; setting an unsupported flag
// prints a notice instead of silently doing nothing.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "sim/sweep.hpp"
#include "wl/wear_leveler.hpp"

namespace srbsg::bench {

inline bool full_mode() {
  const char* v = std::getenv("SRBSG_FULL");
  return v != nullptr && v[0] == '1';
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==== " << title << " ====\n"
            << "paper reference: " << paper_ref << "\n"
            << (full_mode() ? "mode: FULL (SRBSG_FULL=1)\n" : "mode: quick\n")
            << "\n";
}

/// Days, hours or seconds with unit, from ns.
inline std::string dur(double ns) { return fmt_duration_ns(ns); }

/// Which of the standard flags a bench honors (bitmask for
/// parse_bench_options).
enum BenchFlag : unsigned {
  kFlagThreads = 1u << 0,
  kFlagSeeds = 1u << 1,
  kFlagScale = 1u << 2,
  kFlagJson = 1u << 3,
  kFlagTelemetry = 1u << 4,
  kFlagEngine = 1u << 5,
};

struct BenchOptions {
  std::size_t threads{0};  ///< 0 = hardware concurrency
  u64 seeds{0};            ///< 0 = bench default (quick/FULL dependent)
  u64 scale{0};            ///< 0 = bench default; else log2(scaled bank lines)
  std::string json;        ///< empty = no JSON output
  /// Empty = telemetry off; else the JSONL trace path (--trace-out).
  std::string telemetry;
  /// write_cycle engine tier for simulation runs (--engine
  /// reference|windowed|epoch; epoch by default).
  wl::EngineTier engine{wl::EngineTier::kEpoch};

  /// Bench-default plumbing: flag value when given, `fallback` otherwise.
  [[nodiscard]] u64 seeds_or(u64 fallback) const { return seeds > 0 ? seeds : fallback; }
  [[nodiscard]] u64 lines_or(u64 fallback) const {
    return scale > 0 ? (u64{1} << scale) : fallback;
  }
};

inline void print_bench_usage(std::string_view prog, unsigned supported) {
  std::cout << "usage: " << prog << " [flags]\n";
  if (supported & kFlagThreads) {
    std::cout << "  --threads N   sweep pool threads (0 = hardware, at most 1024)\n";
  }
  if (supported & kFlagSeeds) {
    std::cout << "  --seeds N     seeded replicas per configuration\n";
  }
  if (supported & kFlagScale) {
    std::cout << "  --scale B     log2 of the scaled bank line count\n";
  }
  if (supported & kFlagJson) std::cout << "  --json PATH   write machine-readable results\n";
  if (supported & kFlagTelemetry) {
    std::cout << "  --trace-out PATH  write a JSONL event trace\n";
  }
  if (supported & kFlagEngine) {
    std::cout << "  --engine T    write_cycle engine tier: reference|windowed|epoch"
                 " (default epoch)\n";
  }
  std::cout << "  --help        this text\n"
            << "env: SRBSG_FULL=1 enlarges the default grids\n";
}

/// One parser for every bench binary. Exits 0 on --help, 2 on malformed
/// input; flags outside `supported` are accepted with a stderr notice so
/// scripted grids can pass a uniform flag set.
inline BenchOptions parse_bench_options(int argc, char** argv, unsigned supported) {
  BenchOptions o;
  const std::string_view prog = argc > 0 ? argv[0] : "bench";
  auto need_value = [&](int& i, std::string_view flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << prog << ": missing value for " << flag << "\n";
      std::exit(2);
    }
    return argv[++i];
  };
  auto count = [&](int& i, std::string_view flag) -> u64 {
    const char* text = need_value(i, flag);
    try {
      return parse_u64(text, flag);
    } catch (const CheckFailure& e) {
      std::cerr << prog << ": " << e.what() << "\n";
      std::exit(2);
    }
  };
  auto note_unsupported = [&](std::string_view flag, bool is_supported) {
    if (!is_supported) std::cerr << prog << ": note: " << flag << " has no effect here\n";
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--threads") {
      const u64 threads = count(i, a);
      if (threads > ThreadPool::kMaxThreads) {
        std::cerr << prog << ": --threads " << threads << " exceeds "
                  << ThreadPool::kMaxThreads << "\n";
        std::exit(2);
      }
      o.threads = static_cast<std::size_t>(threads);
      note_unsupported(a, (supported & kFlagThreads) != 0);
    } else if (a == "--seeds") {
      o.seeds = count(i, a);
      note_unsupported(a, (supported & kFlagSeeds) != 0);
    } else if (a == "--scale") {
      o.scale = count(i, a);
      if (o.scale > 30) {
        std::cerr << prog << ": --scale " << o.scale << " is a log2, not a line count\n";
        std::exit(2);
      }
      note_unsupported(a, (supported & kFlagScale) != 0);
    } else if (a == "--json") {
      o.json = need_value(i, a);
      note_unsupported(a, (supported & kFlagJson) != 0);
    } else if (a == "--trace-out") {
      o.telemetry = need_value(i, a);
      note_unsupported(a, (supported & kFlagTelemetry) != 0);
    } else if (a == "--engine") {
      const char* v = need_value(i, a);
      try {
        o.engine = wl::parse_engine_tier(v);
      } catch (const CheckFailure&) {
        std::cerr << prog << ": bad value '" << v << "' for --engine"
                  << " (want reference|windowed|epoch)\n";
        std::exit(2);
      }
      note_unsupported(a, (supported & kFlagEngine) != 0);
    } else if (a == "--help" || a == "-h") {
      print_bench_usage(prog, supported);
      std::exit(0);
    } else {
      std::cerr << prog << ": unknown flag '" << a << "'\n";
      print_bench_usage(prog, supported);
      std::exit(2);
    }
  }
  return o;
}

}  // namespace srbsg::bench
