// Error model for the HAC library.
//
// All fallible public APIs return hac::Result<T> (see result.h). Errors carry a coarse
// ErrorCode plus a human-readable message. Exceptions are not used across API boundaries,
// matching the style the rest of the library follows.
#ifndef HAC_SUPPORT_ERROR_H_
#define HAC_SUPPORT_ERROR_H_

#include <string>
#include <string_view>

namespace hac {

// Coarse classification of failures. The numeric values are stable and are used in
// persisted error logs, so append only.
enum class ErrorCode : int {
  kOk = 0,
  kNotFound = 1,          // path or object does not exist
  kAlreadyExists = 2,     // attempt to create something that exists
  kNotADirectory = 3,     // path component is not a directory
  kIsADirectory = 4,      // file operation applied to a directory
  kNotEmpty = 5,          // rmdir on a non-empty directory
  kInvalidArgument = 6,   // malformed path, bad flag combination, ...
  kBadDescriptor = 7,     // unknown or closed file descriptor
  kTooManyLinks = 8,      // symlink resolution loop limit exceeded
  kNotSemantic = 9,       // semantic operation on a plain directory
  kCycle = 10,            // query would create a dependency cycle
  kParseError = 11,       // query language syntax error
  kUnsupported = 12,      // operation not supported by this name space
  kCorrupt = 13,          // persisted image, checkpoint or WAL frame failed validation
  kBusy = 14,             // object in use (e.g. open descriptors at unlink in strict mode)
  kPermission = 15,       // operation forbidden (e.g. editing a mount root)
  kCrossDevice = 16,      // rename across a mount boundary
  kLanguageMismatch = 17, // name space query language differs from the mount's
  kOutOfRange = 18,       // seek/read beyond representable range
  kOverloaded = 19,       // service admission control rejected or timed out the request
  kStaleExport = 20,      // remote export root no longer exists (or moved out of scope)
  kStaleCursor = 21,      // reserved: cursors resume by position and never go stale
};

// The highest assigned code. The wire codec rejects values above this bound, and
// tests/server/wire_test.cc enumerates every code through it — when appending a
// code, bump this constant (and only append: the numeric values live in persisted
// error logs and on the wire).
inline constexpr int kMaxErrorCode = static_cast<int>(ErrorCode::kStaleCursor);

// Returns a stable, lowercase identifier for the code ("not_found", ...).
std::string_view ErrorCodeName(ErrorCode code);

// An error: code + context message. Cheap to move; copied only on propagation.
struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  // "not_found: /a/b does not exist"
  std::string ToString() const;
};

}  // namespace hac

#endif  // HAC_SUPPORT_ERROR_H_
