// Crash-safe persistence substrate: a versioned, length-prefixed,
// CRC32-checksummed binary record format with atomic durable writes.
//
// Layout of a sealed record:
//
//   magic (8 bytes, PNG-style: catches text-mode mangling and truncation)
//   format version  u32
//   section count   u32
//   per section:  name length u32 | name | payload length u64 | payload |
//                 CRC32(name + payload) u32
//
// Integers and payloads are written with the byte codec in codec.h
// (persist::Writer/Reader), which every persisted artifact shares.
//
// The loading side is built to fail closed: every malformed input —
// truncation, bit flips, bad magic, future versions, checksum mismatches,
// implausible lengths — raises a typed PersistError instead of crashing,
// invoking UB, or silently yielding a wrong artifact.

#ifndef MSPRINT_SRC_PERSIST_PERSIST_H_
#define MSPRINT_SRC_PERSIST_PERSIST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/persist/codec.h"

namespace msprint {
namespace persist {

// Current version of the record container format. Readers accept versions
// up to their own and reject anything newer with kUnsupportedVersion;
// incompatible layout changes must bump this.
inline constexpr uint32_t kFormatVersion = 1;

// ------------------------------------------------------- record container

class RecordWriter {
 public:
  void AddSection(std::string name, std::string payload);
  // Serializes magic + version + checksummed sections into file bytes.
  std::string Seal(uint32_t version = kFormatVersion) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

class RecordReader {
 public:
  // Parses `bytes`, validating magic, version (≤ max_version), every
  // length, every section checksum, and the absence of trailing bytes.
  // Throws PersistError on any violation.
  static RecordReader Parse(std::string bytes,
                            uint32_t max_version = kFormatVersion);

  uint32_t version() const { return version_; }
  bool Has(std::string_view name) const;
  // Returns the named section's payload; throws kMissingSection if absent.
  const std::string& Section(std::string_view name) const;

 private:
  uint32_t version_ = 0;
  std::vector<std::pair<std::string, std::string>> sections_;
};

// ---------------------------------------------------------- durable files

// Seals `record` and writes it via the atomic tmp+flush+rename protocol
// (src/common/fileio.h). IO failures surface as PersistError(kIo) and
// leave any previous file at `path` intact.
void WriteRecordToFile(const std::string& path, const RecordWriter& record,
                       uint32_t version = kFormatVersion);

// Reads and verifies a record file. Missing/unreadable files are kIo;
// malformed contents raise the corresponding typed error.
RecordReader ReadRecordFromFile(const std::string& path,
                                uint32_t max_version = kFormatVersion);

// -------------------------------------------------------- fingerprinting

// Deterministic 64-bit fingerprint of a byte string (FNV-1a with an
// avalanche finisher — platform- and endianness-independent, stable across
// runs and builds; NOT cryptographic). The model checker (src/mc) dedups
// explored states by fingerprinting their bit-exact SaveState bytes, so
// two states collide exactly when their serialized forms do (modulo the
// 2^-64 hash-collision risk it accepts).
uint64_t Fingerprint64(std::string_view bytes);

}  // namespace persist
}  // namespace msprint

#endif  // MSPRINT_SRC_PERSIST_PERSIST_H_
