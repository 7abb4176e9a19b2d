#ifndef ORDOPT_COMMON_STATUS_H_
#define ORDOPT_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/macros.h"

namespace ordopt {

/// Error categories surfaced by the library. The library never throws;
/// all fallible public entry points return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something malformed
  kParseError,        ///< SQL text failed to tokenize/parse
  kBindError,         ///< names/types failed semantic analysis
  kNotFound,          ///< catalog object missing
  kAlreadyExists,     ///< catalog object duplicated
  kUnsupported,       ///< valid SQL outside the implemented subset
  kInternal,          ///< invariant violation reported without aborting
  kResourceExhausted, ///< a configured resource limit was exceeded
  kCancelled,         ///< execution stopped by a cancellation request
  kTimeout,           ///< execution exceeded its wall-clock deadline
  kIoError,           ///< a file operation failed (possibly transient)
  kUnavailable,       ///< fast-fail: a circuit breaker is open for the
                      ///< fault domain this request depends on
  kOutOfRange,        ///< a result does not fit its type (int64 SUM)
};

/// Lightweight error-or-success value, RocksDB/Arrow style.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status ParseError(std::string m) {
    return Status(StatusCode::kParseError, std::move(m));
  }
  static Status BindError(std::string m) {
    return Status(StatusCode::kBindError, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status Unsupported(std::string m) {
    return Status(StatusCode::kUnsupported, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status Timeout(std::string m) {
    return Status(StatusCode::kTimeout, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "ParseError: unexpected token ','".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A Status or a value of type T. Access to the value is checked.
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return some_t;` in Result-returning code.
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /// Implicit from error status: allows `return Status::ParseError(...)`.
  Result(Status status) : status_(std::move(status)) {
    ORDOPT_CHECK_MSG(!status_.ok(), "Result constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; aborts if this holds an error.
  const T& value() const& {
    ORDOPT_CHECK_MSG(ok(), "Result::value() on error: %s",
                     status_.ToString().c_str());
    return value_;
  }
  T& value() & {
    ORDOPT_CHECK_MSG(ok(), "Result::value() on error: %s",
                     status_.ToString().c_str());
    return value_;
  }
  T&& value() && {
    ORDOPT_CHECK_MSG(ok(), "Result::value() on error: %s",
                     status_.ToString().c_str());
    return std::move(value_);
  }

  /// Unchecked move-out used by ORDOPT_ASSIGN_OR_RETURN after an ok() test.
  T&& value_unsafe() && { return std::move(value_); }

 private:
  Status status_;
  T value_{};
};

}  // namespace ordopt

#endif  // ORDOPT_COMMON_STATUS_H_
