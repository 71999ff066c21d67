//===- support/LittleEndian.h - byte-level codec helpers --------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian writer and bounds-checked reader every binary format
/// of the project is built on: the module format (isa/Module), the
/// FrameLog header and frames, the PerfDatabase snapshot and journal
/// entries, and the sweep checkpoint records. A string is a u32 byte
/// length followed by the bytes. Fnv1a digests byte streams and
/// integers in the same little-endian byte order.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_LITTLEENDIAN_H
#define GPUPERF_SUPPORT_LITTLEENDIAN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpuperf {

/// Appends little-endian fields to a byte vector.
class ByteWriter {
public:
  explicit ByteWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    Out.insert(Out.end(), S.begin(), S.end());
  }

private:
  std::vector<uint8_t> &Out;
};

/// Bounds-checked little-endian cursor over a byte range: a read that
/// would run past the end fails instead.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  bool readU32(uint32_t &V) {
    if (remaining() < 4)
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  bool readU64(uint64_t &V) {
    if (remaining() < 8)
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  /// Reads \p N raw bytes into \p S.
  bool readBytes(std::string &S, size_t N) {
    if (remaining() < N)
      return false;
    S.assign(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return true;
  }
  /// Reads a length-prefixed string.
  bool readString(std::string &S) {
    uint32_t Len = 0;
    return readU32(Len) && readBytes(S, Len);
  }
  bool atEnd() const { return Pos == Size; }
  size_t pos() const { return Pos; }
  size_t remaining() const { return Size - Pos; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// 64-bit FNV-1a, the one digest of the project's own state: the
/// PerfDatabase kernel hash inside every cache key, sweep row digests
/// (rows_fnv1a) and fault-injection memory-image hashes. Integers are
/// hashed as their little-endian bytes, so digests are host-independent.
/// Header-only so the per-byte loop inlines into every caller.
class Fnv1a {
public:
  void bytes(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I < Size; ++I)
      byte(P[I]);
  }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  uint64_t value() const { return Hash; }

private:
  void byte(uint8_t B) {
    Hash ^= B;
    Hash *= 0x100000001b3ull;
  }

  uint64_t Hash = 0xcbf29ce484222325ull;
};

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_LITTLEENDIAN_H
