#pragma once
// Machine-readable verify reports. The CLI emits one JSON document per
// run (--json PATH): the bounds, a pass/fail summary and, per cell, its
// states, wall time and any minimized counterexample with its replay
// string. schema_version gates compatibility for readers.

#include <string>
#include <vector>

#include "verify/verify.hpp"

namespace srbsg::verify {

inline constexpr int kReportSchemaVersion = 2;

/// JSON string escaping (control chars, quotes, backslashes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// The full report document for one run.
[[nodiscard]] std::string report_json(const std::vector<CellResult>& results,
                                      const Bounds& bounds, const MutationSpec& mut);

/// Writes `text` to `path` atomically enough for CI (tmp + rename is
/// overkill here; a failed write throws CheckFailure).
void write_file(const std::string& path, const std::string& text);

}  // namespace srbsg::verify
