// The byte codec every persisted artifact is written with: little-endian
// integers, IEEE-754 doubles as bit patterns (so round trips are bit-exact
// and restored models predict byte-identically) and u64 length prefixes.
//
// A leaf library with no msprint dependencies, so that src/obs (itself a
// leaf under msprint_common) serializes its sketch and SLO state through
// the same codec as the checkpoint layer. The record container that wraps
// these payloads in checksummed sections lives in persist.h.
//
// Decoding fails closed: every malformed input — truncation, implausible
// counts, non-finite values where finite ones are required, invalid
// content — raises a typed PersistError instead of crashing, invoking UB
// or silently yielding a wrong artifact. Untrusted lengths are capped
// against the bytes that actually remain before any allocation, so a
// corrupted count cannot drive an out-of-memory.

#ifndef MSPRINT_SRC_PERSIST_CODEC_H_
#define MSPRINT_SRC_PERSIST_CODEC_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msprint {
namespace persist {

enum class ErrorCode {
  kIo,                  // file missing/unreadable/unwritable
  kBadMagic,            // not a msprint record at all
  kUnsupportedVersion,  // written by a future format version
  kTruncated,           // ran out of bytes mid-structure
  kChecksumMismatch,    // a section's CRC32 does not match its payload
  kFormat,              // structurally well-formed bytes, invalid content
  kMissingSection,      // a required section is absent
};

std::string ToString(ErrorCode code);

// The one exception type every loading path converges to.
class PersistError : public std::runtime_error {
 public:
  PersistError(ErrorCode code, const std::string& message)
      : std::runtime_error(ToString(code) + ": " + message), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

// Appends little-endian primitives to a byte buffer. The Writer/Reader
// pair defines the payload wire format shared by every persisted artifact.
class Writer {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutF64(double v);  // IEEE-754 bit pattern: round trips are bit-exact
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutString(std::string_view s);  // u64 length + bytes
  void PutDoubles(const std::vector<double>& v);  // u64 count + f64s
  // Appends bytes verbatim (no length prefix) — container plumbing.
  void PutRaw(std::string_view bytes) { bytes_.append(bytes); }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// Bounds-checked decoder over a byte view (non-owning: the backing bytes
// must outlive the Reader). Every read that would pass the end throws
// PersistError(kTruncated).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64();
  double GetF64();
  // GetF64 that rejects NaN/inf with kFormat; `what` names the field.
  double GetFiniteF64(const char* what);
  // Strict bool: any byte other than 0/1 is kFormat.
  bool GetBool();
  std::string GetString();
  // require_finite=true (the default) rejects NaN/inf elements.
  std::vector<double> GetDoubles(bool require_finite = true);
  // Reads a u64 element count for a sequence whose elements occupy at
  // least `min_bytes_per_item` bytes each, and rejects counts that imply
  // more bytes than remain — before anything is allocated.
  uint64_t GetCount(size_t min_bytes_per_item, const char* what);
  // Takes `n` bytes verbatim; throws kTruncated if fewer remain. The view
  // aliases the backing bytes.
  std::string_view GetRaw(size_t n);

  size_t remaining() const { return bytes_.size() - pos_; }
  // Throws kFormat when unconsumed bytes remain (trailing garbage).
  void ExpectEnd() const;

 private:
  std::string_view Take(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace msprint

#endif  // MSPRINT_SRC_PERSIST_CODEC_H_
