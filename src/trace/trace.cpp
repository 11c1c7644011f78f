#include "trace/trace.hpp"

#include <istream>
#include <ostream>
#include <unordered_set>

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

pcm::DataClass data_from_char(char c) {
  switch (c) {
    case '0':
      return pcm::DataClass::kAllZero;
    case '1':
      return pcm::DataClass::kAllOne;
    case 'M':
      return pcm::DataClass::kMixed;
    default:
      throw CheckFailure("trace: bad data class char");
  }
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
  u32 gap = 0;
  char rw = 0;
  u64 addr = 0;
  char dc = 0;
  while (is >> gap >> rw >> std::hex >> addr >> std::dec >> dc) {
    check(rw == 'R' || rw == 'W', "trace: bad R/W flag");
    t.add(TraceRecord{gap, rw == 'W', addr, data_from_char(dc)});
  }
  return t;
}

}  // namespace srbsg::trace
