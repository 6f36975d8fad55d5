// Error handling primitives for gpumip.
//
// The library reports unrecoverable contract violations and environmental
// failures via exceptions derived from gpumip::Error, each carrying an
// ErrorCode so callers can dispatch without string matching.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gpumip {

/// Machine-readable category of a failure.
enum class ErrorCode {
  kInvalidArgument,   ///< caller violated a documented precondition
  kOutOfDeviceMemory, ///< simulated device allocation failed
  kNumericalFailure,  ///< singular matrix, factorization breakdown, ...
  kLimitExceeded,     ///< iteration/node/time budget exhausted unexpectedly
  kIoError,           ///< file parse/write failure
  kProtocolError,     ///< malformed wire payload (truncated/trailing bytes)
  kInternal,          ///< invariant broken inside the library (a bug)
};

/// Human-readable name of an ErrorCode ("InvalidArgument", ...).
const char* error_code_name(ErrorCode code) noexcept;

/// Base exception for all gpumip failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " + message),
        code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown when a simulated device allocation exceeds capacity.
class DeviceOutOfMemory : public Error {
 public:
  explicit DeviceOutOfMemory(const std::string& message)
      : Error(ErrorCode::kOutOfDeviceMemory, message) {}
};

/// Thrown on numerical breakdown (singular basis, indefinite matrix, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& message)
      : Error(ErrorCode::kNumericalFailure, message) {}
};

namespace detail {
/// The cold half of the check_* functions below: builds the message with
/// the caller's [file:line] and throws Error(code). Only a failed check
/// gets here, so a passing check costs one test and branch.
[[noreturn, gnu::cold]] void check_failed(ErrorCode code, std::string_view message,
                                         const std::source_location& loc);
}  // namespace detail

/// Throws Error(kInvalidArgument) with location info when `cond` is false.
/// A message composed at the call site ("x " + std::to_string(i)) is built
/// on every call; on a hot path, test first and compose only on failure.
inline void check_arg(bool cond, std::string_view message,
                      std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] detail::check_failed(ErrorCode::kInvalidArgument, message, loc);
}

/// Throws Error(kInternal) with location info when `cond` is false.
/// Used for invariants that indicate a library bug, not misuse.
inline void check_internal(bool cond, std::string_view message,
                           std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] detail::check_failed(ErrorCode::kInternal, message, loc);
}

/// Throws Error(kProtocolError) with location info when `cond` is false.
/// Used by wire deserializers: a payload that fails structural validation
/// (trailing bytes, impossible length header) is a protocol error, not a
/// caller bug — it signals version skew or corruption between ranks.
inline void check_protocol(bool cond, std::string_view message,
                           std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] detail::check_failed(ErrorCode::kProtocolError, message, loc);
}

}  // namespace gpumip
