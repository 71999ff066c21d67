//===- support/Crc32.h - CRC-32 framing checksum ----------------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by
/// support/FrameLog to frame records in the append-only durability
/// journals (PerfDatabase journal, sweep checkpoints). A CRC over each
/// record's payload lets recovery
/// distinguish "file ends in a torn write" from "file ends cleanly" and
/// truncate at the first corrupt frame instead of rejecting everything.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_CRC32_H
#define GPUPERF_SUPPORT_CRC32_H

#include <cstddef>
#include <cstdint>

namespace gpuperf {

/// CRC-32 of \p Size bytes at \p Data. Pass a previous result as \p Seed
/// to checksum discontiguous buffers as one stream.
inline uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Size; ++I) {
    Crc ^= P[I];
    for (int B = 0; B < 8; ++B)
      Crc = (Crc >> 1) ^ (0xEDB88320u & (0u - (Crc & 1u)));
  }
  return ~Crc;
}

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_CRC32_H
