// Error hierarchy for the vmcons library.
//
// All exceptions thrown across the public API boundary derive from
// vmcons::Error so that callers can catch one type. Internal invariant
// violations use VMCONS_ASSERT, which throws LogicError in debug-friendly
// builds instead of aborting, keeping the library usable inside long-running
// host processes (simulation drivers, capacity planners).
//
// Every Error carries a stable ErrorCode so structured consumers — the
// BatchEvaluator's quarantine records, log pipelines, RPC layers — can
// classify failures without parsing what() strings. Codes are append-only:
// never renumber or reuse a value, because CellFailure records and logs
// outlive any one build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace vmcons {

/// Stable machine-readable failure classification. Append-only.
enum class ErrorCode : std::uint32_t {
  kUnknown = 0,           ///< not a vmcons::Error, or a pre-code throw site
  kInvalidArgument = 1,   ///< caller passed an out-of-domain argument
  kLogicError = 2,        ///< internal invariant violated (a vmcons bug)
  kNumericError = 3,      ///< convergence failure / numeric range exceeded
  kIoError = 4,           ///< file or stream operation failed
  kCancelled = 5,         ///< a RunControl's CancelToken was flipped
  kDeadlineExceeded = 6,  ///< a RunControl's Deadline expired
  kFaultInjected = 7,     ///< synthetic failure from util::FaultInjector
  kCrashInjected = 8,     ///< synthetic crash from util::fs::FsFaultInjector
};

/// Stable lowercase name of a code ("numeric_error", "cancelled", ...),
/// suitable for metrics labels and log fields.
constexpr const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kUnknown:
      return "unknown";
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kLogicError:
      return "logic_error";
    case ErrorCode::kNumericError:
      return "numeric_error";
    case ErrorCode::kIoError:
      return "io_error";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kFaultInjected:
      return "fault_injected";
    case ErrorCode::kCrashInjected:
      return "crash_injected";
  }
  return "unknown";
}

/// Base class of every exception thrown by the vmcons library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what,
                 ErrorCode code = ErrorCode::kUnknown)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// A caller passed an argument outside the documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error(what, ErrorCode::kInvalidArgument) {}
};

/// An internal invariant was violated (a bug in vmcons itself).
class LogicError : public Error {
 public:
  explicit LogicError(const std::string& what)
      : Error(what, ErrorCode::kLogicError) {}
};

/// A numeric routine failed to converge or left its supported range. The
/// code defaults to kNumericError; the fault injector throws this type with
/// kFaultInjected so synthetic failures stay distinguishable from real ones.
class NumericError : public Error {
 public:
  explicit NumericError(const std::string& what,
                        ErrorCode code = ErrorCode::kNumericError)
      : Error(what, code) {}
};

/// An I/O operation (CSV read/write, report emission) failed.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what)
      : Error(what, ErrorCode::kIoError) {}
};

/// Bound on a count read from an untrusted payload, checked before anything
/// is sized from it: `count` elements of at least `bytes_each` bytes must
/// fit in the `remaining` payload bytes. A checksum is no defence here,
/// because whoever crafted the file recomputed it. Returns the count, else
/// throws IoError "<context>: <field> <count> overruns the <remaining>
/// payload bytes left".
inline std::size_t bounded_count(std::uint64_t count, std::size_t bytes_each,
                                 std::size_t remaining,
                                 const std::string& context,
                                 const char* field) {
  if (count > remaining / bytes_each) {
    throw IoError(context + ": " + field + " " + std::to_string(count) +
                  " overruns the " + std::to_string(remaining) +
                  " payload bytes left (corrupted or crafted payload)");
  }
  return static_cast<std::size_t>(count);
}

/// Work was stopped because a RunControl's CancelToken was flipped.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what)
      : Error(what, ErrorCode::kCancelled) {}
};

/// Work was stopped because a RunControl's Deadline expired.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : Error(what, ErrorCode::kDeadlineExceeded) {}
};

/// A synthetic process crash thrown by util::fs::FsFaultInjector at an armed
/// crash-at-op point. Crash-recovery tests let it unwind out of the whole
/// persistence operation (like a kill) and then restart; production code
/// must never catch it short of the test harness, or the simulated crash
/// would be softer than a real one.
class CrashInjectedError : public Error {
 public:
  explicit CrashInjectedError(const std::string& what)
      : Error(what, ErrorCode::kCrashInjected) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line) {
  throw LogicError(std::string("vmcons invariant violated: ") + expr + " at " +
                   file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace vmcons

/// Contract check for internal invariants; throws LogicError on failure.
#define VMCONS_ASSERT(expr)                                      \
  do {                                                           \
    if (!(expr)) {                                               \
      ::vmcons::detail::assert_fail(#expr, __FILE__, __LINE__);  \
    }                                                            \
  } while (false)

/// Precondition check for public-API arguments; throws InvalidArgument.
#define VMCONS_REQUIRE(expr, msg)                 \
  do {                                            \
    if (!(expr)) {                                \
      throw ::vmcons::InvalidArgument(msg);       \
    }                                             \
  } while (false)
