#include "verify/verify.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "verify/checks.hpp"

namespace srbsg::verify {

namespace detail {

wl::SchemeSpec cell_spec(std::string_view scheme, const Bounds& bounds, u64 lines, u64 seed) {
  wl::SchemeSpec spec;
  spec.kind = wl::parse_scheme(scheme);
  spec.lines = lines;
  // Regions must stay a power of two strictly below the line count for
  // the multi-way/sub-region schemes; clamp for tiny banks.
  u64 regions = bounds.regions;
  while (regions >= lines && regions > 1) regions /= 2;
  spec.regions = regions;
  spec.inner_interval = bounds.inner_interval;
  spec.outer_interval = bounds.outer_interval;
  spec.stages = bounds.stages;
  // Seed 0 is reserved by some RNG seeding paths; keep seeds distinct
  // and nonzero.
  spec.seed = seed * 0x9e3779b9ULL + 1;
  return spec;
}

u64 write_budget(u64 physical_lines, const Bounds& bounds) {
  const u64 interval = std::max(bounds.inner_interval, bounds.outer_interval);
  return bounds.rotation_rounds * (physical_lines + 1) * interval;
}

std::string format_trace(const std::vector<u64>& trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i) os << ',';
    os << trace[i];
  }
  return os.str();
}

std::vector<u64> parse_trace(const std::string& csv) {
  std::vector<u64> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) out.push_back(parse_u64(item, "list element"));
  return out;
}

std::string replay_get(const std::string& replay, const std::string& key, bool required) {
  std::istringstream is(replay);
  std::string field;
  while (std::getline(is, field, ';')) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    if (field.substr(0, eq) == key) return field.substr(eq + 1);
  }
  check(!required, "replay string missing key: " + key);
  return "";
}

namespace {

/// A numeric replay field, parsed like the command-line counts: plain
/// decimal digits or a CheckFailure naming the key.
u64 replay_u64(const std::string& replay, const std::string& key) {
  return parse_u64(replay_get(replay, key), "replay key " + key);
}

}  // namespace

std::optional<std::string> replay_counterexample(const std::string& replay,
                                                 const Bounds& bounds) {
  const std::string family = replay_get(replay, "check");
  if (family == kFeistelFamily) {
    const u32 width = checked_narrow<u32>(replay_u64(replay, "width"));
    const std::vector<u64> keys = parse_trace(replay_get(replay, "keys"));
    return replay_feistel_point(width, keys, replay_u64(replay, "x"));
  }

  wl::SchemeSpec spec;
  spec.kind = wl::parse_scheme(replay_get(replay, "scheme"));
  spec.lines = replay_u64(replay, "lines");
  spec.regions = replay_u64(replay, "regions");
  spec.inner_interval = replay_u64(replay, "inner");
  spec.outer_interval = replay_u64(replay, "outer");
  spec.stages = checked_narrow<u32>(replay_u64(replay, "stages"));
  const u64 seed = replay_u64(replay, "seed");
  spec.seed = seed * 0x9e3779b9ULL + 1;

  MutationSpec mut;
  const std::string mut_name = replay_get(replay, "mutate", /*required=*/false);
  if (!mut_name.empty()) {
    mut.kind = parse_mutation(mut_name);
    const std::string arm = replay_get(replay, "arm", /*required=*/false);
    if (!arm.empty()) mut.arm_after = parse_u64(arm, "replay key arm");
  }
  const std::vector<u64> trace = parse_trace(replay_get(replay, "trace"));

  if (family == kRoundtripFamily || family == kPreserveFamily) {
    return replay_scheme_trace(family, spec, mut, trace);
  }
  if (family == kBatchFamily || family == kEpochFamily) {
    const bool fail_mode = replay_get(replay, "mode") == "fail";
    const bool cycle_op = replay_get(replay, "op") == "cycle";
    const wl::EngineTier tier =
        family == kEpochFamily ? wl::EngineTier::kEpoch : wl::EngineTier::kWindowed;
    return replay_batch_pattern(spec, mut, trace, fail_mode, cycle_op, bounds, tier);
  }
  throw CheckFailure("replay string names unknown check family: " + family);
}

}  // namespace detail

std::vector<Cell> list_cells(const Bounds& bounds) {
  check(bounds.min_width >= 2 && bounds.min_width <= bounds.max_width,
        "bounds: feistel width range invalid");
  check(!bounds.bank_lines.empty() && bounds.seeds > 0, "bounds: need bank sizes and seeds");
  std::vector<Cell> cells;

  for (u32 w = bounds.min_width; w <= bounds.max_width; ++w) {
    Cell c;
    c.id = "feistel/w" + std::to_string(w);
    c.check = std::string(detail::kFeistelFamily);
    c.param = w;
    cells.push_back(std::move(c));
  }

  const auto scheme_names = {
      wl::SchemeKind::kNone,       wl::SchemeKind::kStartGap, wl::SchemeKind::kRbsg,
      wl::SchemeKind::kSr1,        wl::SchemeKind::kSr2,      wl::SchemeKind::kMultiWaySr,
      wl::SchemeKind::kSecurityRbsg, wl::SchemeKind::kTable};
  for (const std::string_view family : {detail::kRoundtripFamily, detail::kPreserveFamily}) {
    const std::string prefix = family == detail::kRoundtripFamily ? "roundtrip" : "preserve";
    for (const wl::SchemeKind kind : scheme_names) {
      for (const u64 lines : bounds.bank_lines) {
        Cell c;
        c.scheme = std::string(wl::to_string(kind));
        c.id = prefix + "/" + c.scheme + "/n" + std::to_string(lines);
        c.check = std::string(family);
        c.param = lines;
        cells.push_back(std::move(c));
      }
    }
  }
  for (const wl::SchemeKind kind : scheme_names) {
    Cell c;
    c.scheme = std::string(wl::to_string(kind));
    c.id = "batch/" + c.scheme + "/n" + std::to_string(bounds.batch_lines);
    c.check = std::string(detail::kBatchFamily);
    c.param = bounds.batch_lines;
    cells.push_back(std::move(c));
  }
  for (const wl::SchemeKind kind : scheme_names) {
    Cell c;
    c.scheme = std::string(wl::to_string(kind));
    c.id = "epoch/" + c.scheme + "/n" + std::to_string(bounds.batch_lines);
    c.check = std::string(detail::kEpochFamily);
    c.param = bounds.batch_lines;
    cells.push_back(std::move(c));
  }
  return cells;
}

CellResult run_cell(const Cell& cell, const Bounds& bounds, ThreadPool& pool,
                    const MutationSpec& mut) {
  if (cell.check == detail::kFeistelFamily) {
    return detail::run_feistel_cell(cell, bounds, pool);
  }
  if (cell.check == detail::kRoundtripFamily || cell.check == detail::kPreserveFamily) {
    return detail::run_scheme_cell(cell, bounds, pool, mut);
  }
  if (cell.check == detail::kBatchFamily) {
    return detail::run_batch_cell(cell, bounds, pool, mut);
  }
  if (cell.check == detail::kEpochFamily) {
    return detail::run_epoch_cell(cell, bounds, pool, mut);
  }
  throw CheckFailure("run_cell: unknown check family: " + cell.check);
}

std::vector<CellResult> run_cells(const std::vector<Cell>& cells, const Bounds& bounds,
                                  ThreadPool& pool, const MutationSpec& mut) {
  std::vector<CellResult> results;
  results.reserve(cells.size());
  for (const Cell& cell : cells) {
    results.push_back(run_cell(cell, bounds, pool, mut));
  }
  return results;
}

}  // namespace srbsg::verify
