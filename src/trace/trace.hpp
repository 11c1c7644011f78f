#pragma once
// Memory-access traces: the record format, container, and text IO.
// Traces drive the performance model (§V.C.4 substitute) and the wear
// studies on "normal" workloads.

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "pcm/timing.hpp"

namespace srbsg::trace {

/// One access. `data` sits before `addr` so the record packs into 16
/// bytes: generated traces are long, and replay streams through them.
struct TraceRecord {
  /// Instructions the core retires before this access is issued.
  u32 instruction_gap{0};
  bool is_write{false};
  pcm::DataClass data{pcm::DataClass::kMixed};
  u64 addr{0};  ///< line address
};
static_assert(sizeof(TraceRecord) == 16);

struct TraceStats {
  u64 records{0};
  u64 reads{0};
  u64 writes{0};
  u64 instructions{0};
  u64 distinct_lines{0};
  double write_mpki{0.0};
  double read_mpki{0.0};
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  void reserve(std::size_t n) { records_.reserve(n); }
  void add(const TraceRecord& r) { records_.push_back(r); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const TraceRecord& operator[](std::size_t i) const { return records_[i]; }
  [[nodiscard]] auto begin() const { return records_.begin(); }
  [[nodiscard]] auto end() const { return records_.end(); }

  [[nodiscard]] TraceStats stats() const;

  /// Text form: one record per line, "<gap> <R|W> <addr-hex> <0|1|M>".
  /// load_text throws CheckFailure, naming the line, on any other line.
  void save_text(std::ostream& os) const;
  [[nodiscard]] static Trace load_text(std::istream& is, std::string name = "trace");

 private:
  std::string name_;
  std::vector<TraceRecord> records_;
};

}  // namespace srbsg::trace
