//===- support/FrameLog.cpp - CRC-framed, fsync'd append log --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "support/FrameLog.h"

#include "support/Crc32.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/LittleEndian.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

FrameLog::FrameLog(std::string Path, uint32_t Magic, uint32_t Version,
                   uint32_t MaxPayloadBytes)
    : Path(std::move(Path)), Magic(Magic), Version(Version),
      MaxPayloadBytes(MaxPayloadBytes) {}

FrameLog::~FrameLog() {
  if (Fd >= 0)
    ::close(Fd);
}

size_t FrameLog::replay(const DecodeFn &Decode) const {
  size_t FileBytes = 0;
  return replay(Decode, FileBytes);
}

size_t FrameLog::replay(const DecodeFn &Decode, size_t &FileBytes) const {
  auto File = readFileBytes(Path);
  if (!File)
    return 0; // Missing (the normal cold state) or unreadable: no records.
  FileBytes = File->size();
  ByteReader R(*File);
  uint32_t FileMagic = 0, FileVersion = 0;
  if (!R.readU32(FileMagic) || FileMagic != Magic ||
      !R.readU32(FileVersion) || FileVersion != Version)
    return 0;
  size_t ValidBytes = R.pos();
  for (;;) {
    uint32_t Len = 0, Crc = 0;
    std::string Payload;
    if (!R.readU32(Len) || Len == 0 || Len > MaxPayloadBytes ||
        !R.readU32(Crc) || !R.readBytes(Payload, Len) ||
        crc32(Payload.data(), Len) != Crc ||
        !Decode(reinterpret_cast<const uint8_t *>(Payload.data()), Len))
      return ValidBytes;
    ValidBytes = R.pos();
  }
}

void FrameLog::recover(const DecodeFn &Decode) {
  size_t FileBytes = 0;
  size_t ValidBytes = replay(Decode, FileBytes);
  if (ValidBytes < FileBytes)
    (void)::truncate(Path.c_str(), static_cast<off_t>(ValidBytes));
}

Expected<size_t> FrameLog::append(const std::vector<uint8_t> &Payload) {
  if (Payload.empty() || Payload.size() > MaxPayloadBytes)
    return Status::error(
        formatString("refusing a %zu-byte frame for '%s' (cap %u)",
                     Payload.size(), Path.c_str(), MaxPayloadBytes));
  if (Fd < 0) {
    Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Fd < 0)
      return Status::error(formatString("cannot open '%s' for append: %s",
                                        Path.c_str(), std::strerror(errno)));
    // Make the file's directory entry durable too: without this, a power
    // loss could lose the whole file even though every frame was synced.
    syncDirectoryOf(Path);
  }

  // Re-check the size on every append: recovery or clear() may have
  // truncated the file under the O_APPEND descriptor, and a file written
  // from offset zero needs its header again.
  struct stat St;
  size_t FileBytes = 0;
  if (::fstat(Fd, &St) == 0)
    FileBytes = static_cast<size_t>(St.st_size);

  std::vector<uint8_t> Frame;
  ByteWriter W(Frame);
  if (FileBytes == 0) {
    W.writeU32(Magic);
    W.writeU32(Version);
  }
  W.writeU32(static_cast<uint32_t>(Payload.size()));
  W.writeU32(crc32(Payload.data(), Payload.size()));
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());

  size_t Done = 0;
  while (Done < Frame.size()) {
    ssize_t N = ::write(Fd, Frame.data() + Done, Frame.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Done += static_cast<size_t>(N);
  }
  if (Done != Frame.size()) {
    // Tear off the partial frame so the tail stays clean; if even that
    // fails, replay's CRC scan stops at the torn frame.
    (void)::ftruncate(Fd, static_cast<off_t>(FileBytes));
    return Status::error(formatString("short append to '%s'", Path.c_str()));
  }
  // The acknowledgment barrier: the frame counts as written only once it
  // is on the disk, not in the page cache.
  if (::fsync(Fd) != 0)
    return Status::error(formatString("cannot fsync '%s': %s", Path.c_str(),
                                      std::strerror(errno)));
  return FileBytes + Frame.size();
}

void FrameLog::clear() { (void)::truncate(Path.c_str(), 0); }
