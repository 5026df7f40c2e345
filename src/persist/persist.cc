#include "src/persist/persist.h"

#include "src/common/checksum.h"
#include "src/common/fileio.h"

namespace msprint {
namespace persist {

namespace {

// First byte high-bit + CR/LF + EOF marker + LF, PNG-style: any text-mode
// transfer or truncation of the header is caught before parsing starts.
constexpr char kMagic[8] = {'\x89', 'M', 'S', 'P', '\r', '\n', '\x1a', '\n'};

constexpr size_t kMaxSections = 4096;
constexpr size_t kMaxSectionNameBytes = 256;

}  // namespace

// ------------------------------------------------------------ RecordWriter

void RecordWriter::AddSection(std::string name, std::string payload) {
  if (name.empty() || name.size() > kMaxSectionNameBytes) {
    throw PersistError(ErrorCode::kFormat, "invalid section name");
  }
  sections_.emplace_back(std::move(name), std::move(payload));
}

std::string RecordWriter::Seal(uint32_t version) const {
  Writer w;
  w.PutRaw(std::string_view(kMagic, sizeof(kMagic)));
  w.PutU32(version);
  w.PutU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    w.PutU32(static_cast<uint32_t>(name.size()));
    w.PutRaw(name);
    w.PutU64(payload.size());
    w.PutRaw(payload);
    w.PutU32(Crc32(payload, Crc32(name)));
  }
  return w.Take();
}

// ------------------------------------------------------------ RecordReader

RecordReader RecordReader::Parse(std::string bytes, uint32_t max_version) {
  Reader r(bytes);
  if (r.remaining() < sizeof(kMagic)) {
    throw PersistError(ErrorCode::kTruncated, "shorter than the magic");
  }
  if (r.GetRaw(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
    throw PersistError(ErrorCode::kBadMagic, "not an msprint record");
  }
  RecordReader record;
  record.version_ = r.GetU32();
  if (record.version_ == 0 || record.version_ > max_version) {
    throw PersistError(ErrorCode::kUnsupportedVersion,
                       "format version " + std::to_string(record.version_) +
                           " (reader supports 1.." +
                           std::to_string(max_version) + ")");
  }
  const uint32_t count = r.GetU32();
  if (count > kMaxSections) {
    throw PersistError(ErrorCode::kFormat, "implausible section count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t name_len = r.GetU32();
    if (name_len == 0 || name_len > kMaxSectionNameBytes ||
        name_len > r.remaining()) {
      throw PersistError(ErrorCode::kFormat, "invalid section name length");
    }
    std::string name(r.GetRaw(name_len));
    const uint64_t payload_len = r.GetU64();
    if (payload_len > r.remaining()) {
      throw PersistError(ErrorCode::kTruncated,
                         "section '" + name + "' length exceeds file size");
    }
    std::string payload(r.GetRaw(static_cast<size_t>(payload_len)));
    const uint32_t stored_crc = r.GetU32();
    const uint32_t actual_crc = Crc32(payload, Crc32(name));
    if (stored_crc != actual_crc) {
      throw PersistError(ErrorCode::kChecksumMismatch,
                         "section '" + name + "'");
    }
    for (const auto& [existing, _] : record.sections_) {
      if (existing == name) {
        throw PersistError(ErrorCode::kFormat,
                           "duplicate section '" + name + "'");
      }
    }
    record.sections_.emplace_back(std::move(name), std::move(payload));
  }
  r.ExpectEnd();
  return record;
}

bool RecordReader::Has(std::string_view name) const {
  for (const auto& [existing, _] : sections_) {
    if (existing == name) {
      return true;
    }
  }
  return false;
}

const std::string& RecordReader::Section(std::string_view name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) {
      return payload;
    }
  }
  throw PersistError(ErrorCode::kMissingSection, std::string(name));
}

// ----------------------------------------------------------- durable files

void WriteRecordToFile(const std::string& path, const RecordWriter& record,
                       uint32_t version) {
  try {
    AtomicWriteFile(path, record.Seal(version));
  } catch (const PersistError&) {
    throw;
  } catch (const std::exception& error) {
    throw PersistError(ErrorCode::kIo, error.what());
  }
}

RecordReader ReadRecordFromFile(const std::string& path,
                                uint32_t max_version) {
  std::string bytes;
  try {
    bytes = ReadFileBytes(path);
  } catch (const std::exception& error) {
    throw PersistError(ErrorCode::kIo, error.what());
  }
  return RecordReader::Parse(std::move(bytes), max_version);
}

// -------------------------------------------------------- fingerprinting

uint64_t Fingerprint64(std::string_view bytes) {
  // FNV-1a 64-bit over the bytes…
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  // …then a splitmix64-style finisher: FNV alone mixes the low bits
  // poorly, and the dedup map wants all 64 bits avalanche-quality.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace persist
}  // namespace msprint
