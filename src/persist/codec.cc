#include "src/persist/codec.h"

#include <cmath>
#include <cstring>

namespace msprint {
namespace persist {

std::string ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIo:
      return "io error";
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kUnsupportedVersion:
      return "unsupported version";
    case ErrorCode::kTruncated:
      return "truncated record";
    case ErrorCode::kChecksumMismatch:
      return "checksum mismatch";
    case ErrorCode::kFormat:
      return "malformed record";
    case ErrorCode::kMissingSection:
      return "missing section";
  }
  return "unknown persist error";
}

// ------------------------------------------------------------------ Writer

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void Writer::PutF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(std::string_view s) {
  PutU64(s.size());
  bytes_.append(s.data(), s.size());
}

void Writer::PutDoubles(const std::vector<double>& v) {
  PutU64(v.size());
  for (const double d : v) {
    PutF64(d);
  }
}

// ------------------------------------------------------------------ Reader

std::string_view Reader::Take(size_t n) {
  if (n > remaining()) {
    throw PersistError(ErrorCode::kTruncated,
                       "need " + std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()));
  }
  const std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

uint8_t Reader::GetU8() {
  return static_cast<uint8_t>(Take(1)[0]);
}

uint32_t Reader::GetU32() {
  const std::string_view b = Take(4);
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[static_cast<size_t>(i)]);
  }
  return v;
}

uint64_t Reader::GetU64() {
  const std::string_view b = Take(8);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[static_cast<size_t>(i)]);
  }
  return v;
}

int64_t Reader::GetI64() { return static_cast<int64_t>(GetU64()); }

double Reader::GetF64() {
  const uint64_t bits = GetU64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double Reader::GetFiniteF64(const char* what) {
  const double v = GetF64();
  if (!std::isfinite(v)) {
    throw PersistError(ErrorCode::kFormat,
                       std::string(what) + " must be finite");
  }
  return v;
}

bool Reader::GetBool() {
  const uint8_t v = GetU8();
  if (v > 1) {
    throw PersistError(ErrorCode::kFormat, "bool byte out of range");
  }
  return v == 1;
}

std::string Reader::GetString() {
  const uint64_t len = GetU64();
  if (len > remaining()) {
    throw PersistError(ErrorCode::kTruncated,
                       "string length exceeds remaining bytes");
  }
  const std::string_view b = Take(static_cast<size_t>(len));
  return std::string(b);
}

std::vector<double> Reader::GetDoubles(bool require_finite) {
  const uint64_t count = GetCount(sizeof(double), "double vector");
  std::vector<double> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const double v = GetF64();
    if (require_finite && !std::isfinite(v)) {
      throw PersistError(ErrorCode::kFormat,
                         "non-finite element in double vector");
    }
    out.push_back(v);
  }
  return out;
}

uint64_t Reader::GetCount(size_t min_bytes_per_item, const char* what) {
  const uint64_t count = GetU64();
  const uint64_t cap = remaining() / (min_bytes_per_item == 0
                                          ? 1
                                          : min_bytes_per_item);
  if (count > cap) {
    throw PersistError(ErrorCode::kTruncated,
                       std::string(what) + " count " + std::to_string(count) +
                           " implies more bytes than remain");
  }
  return count;
}

std::string_view Reader::GetRaw(size_t n) { return Take(n); }

void Reader::ExpectEnd() const {
  if (remaining() != 0) {
    throw PersistError(ErrorCode::kFormat,
                       std::to_string(remaining()) +
                           " trailing bytes after payload");
  }
}

}  // namespace persist
}  // namespace msprint
