#pragma once
// Lightweight runtime checking. Invariant violations in a simulator are
// programming errors, not recoverable conditions, so they throw
// `std::logic_error` with source location attached; callers are expected
// to let the exception terminate the experiment.
//
// Three levels of diagnosability:
//   * check(cond, msg)        — message only (msg should name the invariant);
//   * SRBSG_CHECK(expr)       — carries the failing expression text itself;
//   * check_eq/check_lt/...   — carry both operand values, so an auditor
//     failure reports *what* diverged, not just that something did.
//
// Two tiers of cost:
//   * check()/SRBSG_CHECK and the comparison family are armed in every
//     build — simulation correctness depends on them;
//   * SRBSG_DCHECK(expr, msg) is the hot-path tier: a full check()
//     wherever bugs are hunted (Debug builds and every sanitizer preset,
//     where SRBSG_DCHECK_ENABLED is defined), and an optimizer assumption
//     in optimized builds. Use it only for invariants that upstream
//     layers already establish (e.g. bank bounds behind a validated
//     translation); a violated assumption in a release build is UB.

#include <charconv>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace srbsg {

class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void throw_check_failure(std::string_view msg, std::string_view values,
                                             std::source_location loc) {
  std::string what(msg);
  if (!values.empty()) {
    what += " (";
    what += values;
    what += ")";
  }
  what += " [";
  what += loc.file_name();
  what += ":";
  what += std::to_string(loc.line());
  what += "]";
  throw CheckFailure(what);
}

/// Renders a value for a failure message via operator<< (integers, strings,
/// anything streamable).
template <class T>
[[nodiscard]] std::string display(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

template <class A, class B>
[[noreturn]] void throw_cmp_failure(const A& a, const B& b, std::string_view op,
                                    std::string_view msg, std::source_location loc) {
  std::string values = "expected lhs ";
  values += op;
  values += " rhs; lhs=";
  values += display(a);
  values += ", rhs=";
  values += display(b);
  throw_check_failure(msg, values, loc);
}

}  // namespace detail

/// Throws CheckFailure if `cond` is false. Used for invariants that must
/// hold regardless of build type (simulation correctness depends on them).
inline void check(bool cond, std::string_view msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) detail::throw_check_failure(msg, {}, loc);
}

/// Comparison checks that print both operand values on failure. Compare
/// like-signed types; mixing signedness is a -Wsign-compare error under
/// the default warning set.
template <class A, class B>
void check_eq(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a == b)) detail::throw_cmp_failure(a, b, "==", msg, loc);
}

template <class A, class B>
void check_ne(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a != b)) detail::throw_cmp_failure(a, b, "!=", msg, loc);
}

template <class A, class B>
void check_lt(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a < b)) detail::throw_cmp_failure(a, b, "<", msg, loc);
}

template <class A, class B>
void check_le(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a <= b)) detail::throw_cmp_failure(a, b, "<=", msg, loc);
}

template <class A, class B>
void check_gt(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a > b)) detail::throw_cmp_failure(a, b, ">", msg, loc);
}

template <class A, class B>
void check_ge(const A& a, const B& b, std::string_view msg,
              std::source_location loc = std::source_location::current()) {
  if (!(a >= b)) detail::throw_cmp_failure(a, b, ">=", msg, loc);
}

/// Checked replacement for a narrowing `static_cast`: converts `v` to the
/// (narrower) integral type `To`, throwing CheckFailure when the value does
/// not round-trip. Use at width boundaries (u64 simulator state feeding u32
/// report fields) so silent truncation cannot corrupt results.
template <class To, class From>
[[nodiscard]] To checked_narrow(From v,
                                std::source_location loc = std::source_location::current()) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_narrow is for integral conversions");
  if (!std::in_range<To>(v)) {
    detail::throw_check_failure("narrowing conversion lost value", detail::display(+v), loc);
  }
  return static_cast<To>(v);
}

/// Parses a count written as plain decimal digits. Anything else — an
/// empty string, blanks, a sign, other characters, a value above 2^64 - 1
/// — throws CheckFailure naming `what`; strtoull would skip the blanks
/// and wrap "-1" to 2^64 - 1. Command-line front ends report it and exit 2.
[[nodiscard]] inline u64 parse_u64(std::string_view text, std::string_view what) {
  u64 v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw CheckFailure("bad value '" + std::string(text) + "' for " + std::string(what) +
                       " (want unsigned decimal)");
  }
  return v;
}

/// True when SRBSG_DCHECK compiles to a full check() in this build.
/// Tests use this to skip death/throw expectations that only hold in
/// checked builds.
inline constexpr bool kDchecksArmed =
#if defined(SRBSG_DCHECK_ENABLED)
    true;
#else
    false;
#endif

}  // namespace srbsg

/// check() variant that carries the failing expression text; use when no
/// better invariant name exists than the condition itself.
#define SRBSG_CHECK(expr) ::srbsg::check((expr), "check failed: " #expr)

// Tells the optimizer `expr` holds without generating a branch-and-throw.
// The expression must be side-effect free; it may be evaluated.
#if defined(__clang__)
#define SRBSG_DETAIL_ASSUME(expr) __builtin_assume(expr)
#elif defined(__GNUC__)
#define SRBSG_DETAIL_ASSUME(expr) \
  do {                            \
    if (!(expr)) __builtin_unreachable(); \
  } while (false)
#else
#define SRBSG_DETAIL_ASSUME(expr) ((void)0)
#endif

/// Hot-path tier: full check() when SRBSG_DCHECK_ENABLED (Debug builds,
/// sanitizer presets, SRBSG_DCHECKS=ON), optimizer assumption otherwise.
#if defined(SRBSG_DCHECK_ENABLED)
#define SRBSG_DCHECK(expr, msg) ::srbsg::check((expr), (msg))
#else
#define SRBSG_DCHECK(expr, msg) SRBSG_DETAIL_ASSUME(expr)
#endif
