//===- support/FrameLog.h - CRC-framed, fsync'd append log ------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of the durability layer's append-only journal
/// format, shared by the PerfDatabase journal (GPDJ) and the sweep
/// checkpoint (GPCK). FrameLog owns the framing and the crash protocol;
/// each caller owns its payload codec and gives FrameLog only a magic, a
/// version and a payload cap.
///
/// File layout (all integers little-endian):
///   u32 magic | u32 version
///   then per frame: u32 payload length | u32 crc32(payload) | payload
///
/// Crash protocol. append() writes one whole frame (with the header in
/// front when the file is empty), undoes a short write, and fsyncs
/// before it reports success: an acknowledged frame survives any later
/// crash. Replay accepts frames up to the first one that is structurally
/// bad, fails its CRC, or is rejected by the caller's decoder, so a torn
/// or corrupt tail costs exactly the frames at and after the damage.
///
/// FrameLog takes no lock: callers serialize append() under their own.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_FRAMELOG_H
#define GPUPERF_SUPPORT_FRAMELOG_H

#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gpuperf {

class FrameLog {
public:
  /// A log at \p Path; nothing is opened until the first append().
  /// Payloads must be 1..\p MaxPayloadBytes bytes long.
  FrameLog(std::string Path, uint32_t Magic, uint32_t Version,
           uint32_t MaxPayloadBytes);
  ~FrameLog();

  FrameLog(const FrameLog &) = delete;
  FrameLog &operator=(const FrameLog &) = delete;

  const std::string &path() const { return Path; }

  /// Decodes one intact frame's payload; false rejects the frame, which
  /// ends the replay there.
  using DecodeFn = std::function<bool(const uint8_t *Payload, size_t Size)>;

  /// Hands every intact frame to \p Decode in file order and returns the
  /// length of the valid prefix: 0 when the file is missing, cannot be
  /// read or has an unusable header, else the header plus every accepted
  /// frame.
  size_t replay(const DecodeFn &Decode) const;

  /// replay(), then truncates the file to its valid prefix so later
  /// appends extend clean frames instead of burying them behind garbage.
  /// A file that cannot be read is left as it is: a read error is not a
  /// torn tail.
  void recover(const DecodeFn &Decode);

  /// Durably appends one frame holding \p Payload and returns the file
  /// size after it. Refuses an empty payload or one over the cap before
  /// writing any byte: replay would reject it.
  Expected<size_t> append(const std::vector<uint8_t> &Payload);

  /// Empties the file (best-effort; a missing file stays missing). The
  /// next append() writes the header again.
  void clear();

private:
  /// replay(), also reporting the file's size (0 when missing or
  /// unreadable).
  size_t replay(const DecodeFn &Decode, size_t &FileBytes) const;

  std::string Path;
  uint32_t Magic, Version, MaxPayloadBytes;
  int Fd = -1; ///< O_APPEND descriptor, opened by the first append().
};

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_FRAMELOG_H
