// Lightweight precondition / invariant checking.
//
// Simulation correctness depends on a number of internal invariants (slot
// state machines, barrier ordering, reservation bookkeeping).  Violations are
// programming errors, so they throw ssr::CheckError which carries the failing
// expression and location; tests assert on these throws for failure-injection
// coverage.
//
// Three macro families:
//   SSR_CHECK(expr)                 — bare condition.
//   SSR_CHECK_MSG(expr, msg)        — msg is a stream expression: anything
//                                     chainable with <<, e.g.
//                                     SSR_CHECK_MSG(ok, "job " << id << " bad")
//   SSR_CHECK_OP(a, ==, b)          — comparison that prints both operand
//     (and _EQ/_NE/_LT/_LE/_GT/_GE)   values on failure; use instead of
//                                     hand-building "expected X got Y" text.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ssr {

/// Thrown when an SSR_CHECK* macro fails.  Deriving from std::logic_error
/// signals "bug in the caller", not an environmental condition.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : CheckError(what, what) {}
  CheckError(const std::string& what, std::string message)
      : std::logic_error(what), message_(std::move(message)) {}

  /// The caller's message alone, without the failed expression and source
  /// location that what() carries (all of what() for the one-string form).
  /// Command-line front ends print this to users.
  const std::string& message() const { return message_; }

 private:
  std::string message_;
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(), msg);
}

/// Comparison failure: formats both operand values ("lhs OP rhs, got 3 vs 5")
/// so call sites never hand-build the message.  Works for any streamable
/// operand types.
template <typename A, typename B>
[[noreturn]] void check_op_failed(const char* expr, const char* file, int line,
                                  const char* op, const A& lhs, const B& rhs) {
  std::ostringstream os;
  os << "operands were " << lhs << " " << op << " " << rhs;
  check_failed(expr, file, line, os.str());
}

}  // namespace detail
}  // namespace ssr

#define SSR_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr))                                                     \
      ::ssr::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (false)

// `msg` may be a single value or a <<-chain; it is evaluated only on failure.
#define SSR_CHECK_MSG(expr, msg)                                       \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream ssr_check_os_;                                \
      ssr_check_os_ << msg; /* NOLINT */                               \
      ::ssr::detail::check_failed(#expr, __FILE__, __LINE__,           \
                                  ssr_check_os_.str());                \
    }                                                                  \
  } while (false)

// Comparison check printing both operands on failure.  `op` is the literal
// operator token: SSR_CHECK_OP(count, <=, capacity).
#define SSR_CHECK_OP(lhs, op, rhs)                                          \
  do {                                                                      \
    const auto& ssr_check_lhs_ = (lhs);                                     \
    const auto& ssr_check_rhs_ = (rhs);                                     \
    if (!(ssr_check_lhs_ op ssr_check_rhs_)) {                              \
      ::ssr::detail::check_op_failed(#lhs " " #op " " #rhs, __FILE__,       \
                                     __LINE__, #op, ssr_check_lhs_,         \
                                     ssr_check_rhs_);                       \
    }                                                                       \
  } while (false)

#define SSR_CHECK_EQ(lhs, rhs) SSR_CHECK_OP(lhs, ==, rhs)
#define SSR_CHECK_NE(lhs, rhs) SSR_CHECK_OP(lhs, !=, rhs)
#define SSR_CHECK_LT(lhs, rhs) SSR_CHECK_OP(lhs, <, rhs)
#define SSR_CHECK_LE(lhs, rhs) SSR_CHECK_OP(lhs, <=, rhs)
#define SSR_CHECK_GT(lhs, rhs) SSR_CHECK_OP(lhs, >, rhs)
#define SSR_CHECK_GE(lhs, rhs) SSR_CHECK_OP(lhs, >=, rhs)
