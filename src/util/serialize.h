#ifndef QCFE_UTIL_SERIALIZE_H_
#define QCFE_UTIL_SERIALIZE_H_

/// \file serialize.h
/// Little-endian byte codec for the artifact format (core/artifact.h).
///
/// ByteWriter appends fixed-width integers, IEEE-754 doubles (by bit
/// pattern — serialization is exact, never a decimal round trip) and
/// length-prefixed strings to a growable buffer. ByteReader is the
/// bounds-checked inverse: every read validates against the remaining
/// byte count and returns kDataLoss on underrun, so hostile or truncated
/// bytes can never read out of bounds or trigger an allocation bomb.
/// Encoding is explicit shift-based little-endian — byte-identical output
/// on every platform regardless of host endianness.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace qcfe {

/// Append-only little-endian encoder. Infallible: the buffer grows as
/// needed, and all values are encoded exactly (doubles as raw bit patterns).
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// Exact: the double's bit pattern, not a decimal rendering. Round trips
  /// NaNs, infinities, -0.0 and denormals bit for bit.
  void PutF64(double v);

  /// u64 byte length followed by the raw bytes.
  void PutString(const std::string& s) {
    PutU64(s.size());
    buf_.append(s);
  }

  void PutBytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  size_t size() const { return buf_.size(); }
  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range (the
/// caller keeps the buffer alive). Every read returns kDataLoss with the
/// current offset if fewer bytes remain than the value needs; no read ever
/// touches memory past `size`.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const unsigned char*>(data)), size_(size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t offset() const { return pos_; }
  size_t size() const { return size_; }
  size_t remaining() const { return size_ - pos_; }

  Status ReadU8(uint8_t* out);
  Status ReadBool(bool* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF64(double* out);

  /// Length-prefixed string. The prefix is validated against the remaining
  /// byte count *before* any allocation, so a hostile 2^60 length yields
  /// kDataLoss, not an OOM.
  Status ReadString(std::string* out);

  /// Reads a u64 element count and validates `count * min_bytes_per_elem`
  /// against the remaining bytes, so callers can reserve()/resize() by the
  /// count without an allocation bomb. min_bytes_per_elem is the smallest
  /// possible encoding of one element (use 1 for variable-size elements).
  Status ReadCount(uint64_t* out, size_t min_bytes_per_elem);

  Status ReadBytes(void* dst, size_t n);

 private:
  Status Underrun(size_t need) const {
    return Status::DataLoss("unexpected end of data at offset " +
                            std::to_string(pos_) + " (need " +
                            std::to_string(need) + " bytes, have " +
                            std::to_string(remaining()) + ")");
  }

  const unsigned char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace qcfe

#endif  // QCFE_UTIL_SERIALIZE_H_
