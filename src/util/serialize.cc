#include "util/serialize.h"

#include <cstring>

namespace qcfe {

void ByteWriter::PutF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

Status ByteReader::ReadU8(uint8_t* out) {
  if (remaining() < 1) return Underrun(1);
  *out = data_[pos_++];
  return Status::OK();
}

Status ByteReader::ReadBool(bool* out) {
  uint8_t v = 0;
  QCFE_RETURN_IF_ERROR(ReadU8(&v));
  if (v > 1) {
    return Status::DataLoss("invalid bool byte " + std::to_string(v) +
                            " at offset " + std::to_string(pos_ - 1));
  }
  *out = v != 0;
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* out) {
  if (remaining() < 4) return Underrun(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* out) {
  if (remaining() < 8) return Underrun(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status ByteReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  QCFE_RETURN_IF_ERROR(ReadU64(&v));
  // Implementation-defined before C++20 only in theory; two's complement in
  // practice everywhere this builds, and memcpy keeps it UB-free.
  std::memcpy(out, &v, sizeof(v));
  return Status::OK();
}

Status ByteReader::ReadF64(double* out) {
  uint64_t bits = 0;
  QCFE_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::ReadString(std::string* out) {
  uint64_t len = 0;
  QCFE_RETURN_IF_ERROR(ReadU64(&len));
  if (len > remaining()) {
    return Status::DataLoss("string length " + std::to_string(len) +
                            " exceeds remaining " +
                            std::to_string(remaining()) + " bytes at offset " +
                            std::to_string(pos_));
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status ByteReader::ReadCount(uint64_t* out, size_t min_bytes_per_elem) {
  uint64_t count = 0;
  QCFE_RETURN_IF_ERROR(ReadU64(&count));
  const uint64_t min_elem = min_bytes_per_elem > 0 ? min_bytes_per_elem : 1;
  if (count > remaining() / min_elem) {
    return Status::DataLoss("element count " + std::to_string(count) +
                            " cannot fit in remaining " +
                            std::to_string(remaining()) + " bytes at offset " +
                            std::to_string(pos_));
  }
  *out = count;
  return Status::OK();
}

Status ByteReader::ReadBytes(void* dst, size_t n) {
  if (remaining() < n) return Underrun(n);
  std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

}  // namespace qcfe
