// Checked-error primitives shared by every locald module.
//
// The library distinguishes two failure kinds:
//  - `Error`: a violated runtime precondition or malformed input; recoverable
//    by the caller, reported with context.
//  - `BugError`: an internal invariant broke; indicates a defect in locald
//    itself rather than in the caller's input.
//
// An `Error` carries its message alone (the condition text when the message
// is empty): it reaches users verbatim, in CLI stderr and in the error
// fields of JSON documents, whose bytes must not depend on the build
// directory or on line numbers. A `BugError` also carries the condition and
// the source location, which point a defect report at the broken invariant.
#pragma once

#include <stdexcept>
#include <string>

namespace locald {

// Violated caller-facing precondition (bad argument, malformed instance...).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Violated internal invariant; a locald bug, not a usage error.
class BugError : public std::logic_error {
 public:
  explicit BugError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_check_error(const char* expr,
                                           const std::string& msg) {
  throw Error(msg.empty() ? std::string(expr) : msg);
}

[[noreturn]] inline void throw_assert_failure(const char* expr,
                                              const char* file, int line,
                                              const std::string& msg) {
  std::string out = "ASSERT failed: ";
  out += expr;
  out += " at ";
  out += file;
  out += ":";
  out += std::to_string(line);
  if (!msg.empty()) {
    out += " — ";
    out += msg;
  }
  throw BugError(out);
}

}  // namespace detail
}  // namespace locald

// Precondition on caller input. Throws locald::Error when violated.
#define LOCALD_CHECK(cond, msg)                                 \
  do {                                                          \
    if (!(cond)) {                                              \
      ::locald::detail::throw_check_error(#cond, (msg));        \
    }                                                           \
  } while (false)

// Internal invariant. Throws locald::BugError when violated.
#define LOCALD_ASSERT(cond, msg)                                          \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::locald::detail::throw_assert_failure(#cond, __FILE__, __LINE__,   \
                                             (msg));                      \
    }                                                                     \
  } while (false)
