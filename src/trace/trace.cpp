#include "trace/trace.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"

namespace srbsg::trace {
namespace {

char data_char(pcm::DataClass c) {
  switch (c) {
    case pcm::DataClass::kAllZero:
      return '0';
    case pcm::DataClass::kAllOne:
      return '1';
    case pcm::DataClass::kMixed:
      return 'M';
  }
  return '?';
}

/// One text record, "<gap> <R|W> <addr-hex> <0|1|M>". Anything else (a
/// missing or extra field, a sign, a gap above 2^32 - 1, a non-hex
/// address) throws a CheckFailure that names the line.
TraceRecord parse_record(const std::string& line, u64 lineno) {
  const std::string where = "trace line " + std::to_string(lineno);
  std::istringstream fields(line);
  std::string gap, rw, addr, dc, extra;
  check(static_cast<bool>(fields >> gap >> rw >> addr >> dc) && !(fields >> extra),
        where + ": want '<gap> <R|W> <addr-hex> <0|1|M>', got '" + line + "'");

  const u64 gap_v = parse_u64(gap, "the gap on " + where);
  check(std::in_range<u32>(gap_v), where + ": gap " + gap + " does not fit 32 bits");
  check(rw == "R" || rw == "W", where + ": bad R/W flag '" + rw + "'");

  u64 addr_v = 0;
  const char* const addr_end = addr.data() + addr.size();
  const auto [ptr, ec] = std::from_chars(addr.data(), addr_end, addr_v, 16);
  check(ec == std::errc{} && ptr == addr_end, where + ": bad hex address '" + addr + "'");

  pcm::DataClass data = pcm::DataClass::kMixed;
  if (dc == "0") {
    data = pcm::DataClass::kAllZero;
  } else if (dc == "1") {
    data = pcm::DataClass::kAllOne;
  } else {
    check(dc == "M", where + ": bad data class '" + dc + "'");
  }
  return TraceRecord{.instruction_gap = static_cast<u32>(gap_v), .is_write = rw == "W",
                     .data = data, .addr = addr_v};
}

}  // namespace

TraceStats Trace::stats() const {
  TraceStats s;
  std::unordered_set<u64> lines;
  for (const auto& r : records_) {
    ++s.records;
    s.instructions += r.instruction_gap;
    if (r.is_write) {
      ++s.writes;
    } else {
      ++s.reads;
    }
    lines.insert(r.addr);
  }
  s.distinct_lines = lines.size();
  if (s.instructions > 0) {
    s.write_mpki = 1000.0 * static_cast<double>(s.writes) / static_cast<double>(s.instructions);
    s.read_mpki = 1000.0 * static_cast<double>(s.reads) / static_cast<double>(s.instructions);
  }
  return s;
}

void Trace::save_text(std::ostream& os) const {
  for (const auto& r : records_) {
    os << r.instruction_gap << ' ' << (r.is_write ? 'W' : 'R') << ' ' << std::hex << r.addr
       << std::dec << ' ' << data_char(r.data) << '\n';
  }
}

Trace Trace::load_text(std::istream& is, std::string name) {
  Trace t(std::move(name));
  std::string line;
  for (u64 lineno = 1; std::getline(is, line); ++lineno) t.add(parse_record(line, lineno));
  return t;
}

}  // namespace srbsg::trace
