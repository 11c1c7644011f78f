#include "verify/report.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace srbsg::verify {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_bounds(std::ostringstream& os, const Bounds& b) {
  os << "{\"min_width\":" << b.min_width << ",\"max_width\":" << b.max_width
     << ",\"max_stages\":" << b.max_stages << ",\"key_budget_bits\":" << b.key_budget_bits
     << ",\"bank_lines\":[";
  for (std::size_t i = 0; i < b.bank_lines.size(); ++i) {
    if (i) os << ',';
    os << b.bank_lines[i];
  }
  os << "],\"seeds\":" << b.seeds << ",\"rotation_rounds\":" << b.rotation_rounds
     << ",\"batch_lines\":" << b.batch_lines << ",\"max_pattern_len\":" << b.max_pattern_len
     << ",\"cycle_count_factor\":" << b.cycle_count_factor << ",\"regions\":" << b.regions
     << ",\"inner_interval\":" << b.inner_interval << ",\"outer_interval\":" << b.outer_interval
     << ",\"stages\":" << b.stages << "}";
}

void append_cell(std::ostringstream& os, const CellResult& r) {
  os << "{\"id\":\"" << json_escape(r.cell.id) << "\",\"check\":\"" << json_escape(r.cell.check)
     << "\",\"scheme\":\"" << json_escape(r.cell.scheme) << "\",\"param\":" << r.cell.param
     << ",\"pass\":" << (r.pass ? "true" : "false") << ",\"states\":" << r.states
     << ",\"wall_ms\":" << r.wall_ms;
  if (r.cex.has_value()) {
    os << ",\"counterexample\":{\"message\":\"" << json_escape(r.cex->message)
       << "\",\"replay\":\"" << json_escape(r.cex->replay)
       << "\",\"original_size\":" << r.cex->original_size << ",\"size\":" << r.cex->size
       << ",\"minimized\":" << (r.cex->minimized ? "true" : "false") << "}";
  }
  os << "}";
}

}  // namespace

std::string report_json(const std::vector<CellResult>& results, const Bounds& bounds,
                        const MutationSpec& mut) {
  std::ostringstream os;
  u64 failed = 0;
  u64 states = 0;
  for (const CellResult& r : results) {
    failed += r.pass ? 0 : 1;
    states += r.states;
  }
  os << "{\"schema_version\":" << kReportSchemaVersion << ",\"tool\":\"srbsg-verify\""
     << ",\"mutation\":\"" << json_escape(to_string(mut.kind)) << "\",\"bounds\":";
  append_bounds(os, bounds);
  os << ",\"summary\":{\"cells\":" << results.size() << ",\"failed\":" << failed
     << ",\"states\":" << states << "},\"cells\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) os << ',';
    append_cell(os, results[i]);
  }
  os << "]}\n";
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  check(out.good(), "verify: cannot open report file: " + path);
  out << text;
  out.flush();
  check(out.good(), "verify: short write to report file: " + path);
}

}  // namespace srbsg::verify
