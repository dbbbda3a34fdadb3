#ifndef VBTREE_COMMON_SERDE_H_
#define VBTREE_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace vbtree {

/// Raw little-endian encoders for callers that fill a buffer they own
/// (ByteWriter uses the same formats): each writes at `out` and returns
/// the end of what it wrote.
inline uint8_t* EncodeU64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) *out++ = static_cast<uint8_t>(v >> (8 * i));
  return out;
}

/// LEB128 unsigned varint, as ByteWriter::PutVarint writes it.
inline uint8_t* EncodeVarint(uint64_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

/// Append-only little-endian byte sink used for pages, wire messages and
/// digest preimages. All multi-byte integers are written little-endian so
/// byte counts are platform independent.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v, 2); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// LEB128 unsigned varint; keeps VO skeleton headers tiny.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Bytes PutVarint(v) appends.
  static size_t VarintLength(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  void PutBytes(Slice s) { buf_.insert(buf_.end(), s.data(), s.data() + s.size()); }

  /// Varint length prefix followed by the raw bytes.
  void PutLengthPrefixed(Slice s) {
    PutVarint(s.size());
    PutBytes(s);
  }

  void PutString(const std::string& s) { PutLengthPrefixed(Slice(s)); }

  /// Appends `n` bytes for the caller to fill; returns their start (valid
  /// until the next append).
  uint8_t* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void PutLE(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Sequential reader over a byte buffer; every accessor checks bounds and
/// reports kCorruption on truncated input.
class ByteReader {
 public:
  explicit ByteReader(Slice s) : data_(s.data()), size_(s.size()) {}

  Result<uint8_t> ReadU8() {
    if (pos_ + 1 > size_) return Truncated("u8");
    return data_[pos_++];
  }
  Result<uint16_t> ReadU16() { return ReadLE<uint16_t>(2); }
  Result<uint32_t> ReadU32() { return ReadLE<uint32_t>(4); }
  Result<uint64_t> ReadU64() { return ReadLE<uint64_t>(8); }
  Result<int64_t> ReadI64() {
    VBT_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    return static_cast<int64_t>(v);
  }
  Result<double> ReadDouble() {
    VBT_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Truncated("varint");
      uint8_t byte = data_[pos_++];
      if (shift >= 63 && byte > 1) {
        return Status::Corruption("varint overflow");
      }
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  /// Reads an element count and sanity-checks it against the remaining
  /// input — every element encodes to at least one byte, so a larger
  /// count is certainly corruption. Prevents attacker-controlled counts
  /// from driving huge allocations before the per-element reads fail.
  Result<uint64_t> ReadCount() {
    VBT_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
    if (n > remaining()) {
      return Status::Corruption("element count exceeds input size");
    }
    return n;
  }

  Result<Slice> ReadBytes(size_t n) {
    if (pos_ + n > size_) return Truncated("bytes");
    Slice out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  Result<Slice> ReadLengthPrefixed() {
    VBT_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
    return ReadBytes(n);
  }

  Result<std::string> ReadString() {
    VBT_ASSIGN_OR_RETURN(Slice s, ReadLengthPrefixed());
    return s.ToString();
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> ReadLE(int bytes) {
    if (pos_ + bytes > size_) return Truncated("int");
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return static_cast<T>(v);
  }

  Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace vbtree

#endif  // VBTREE_COMMON_SERDE_H_
