//===- support/FileIO.cpp - durable file primitives -----------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace gpuperf;

namespace {

size_t WriteByteLimit = 0;
int WriteCrashPoint = 0;

/// Directory part of \p Path ("." when there is no separator).
std::string directoryOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  return Slash == 0 ? "/" : Path.substr(0, Slash);
}

} // namespace

void gpuperf::setDurableWriteByteLimitForTesting(size_t Limit) {
  WriteByteLimit = Limit;
}

void gpuperf::setDurableWriteCrashPointForTesting(int Point) {
  WriteCrashPoint = Point;
}

Expected<std::vector<uint8_t>>
gpuperf::readFileBytes(const std::string &Path) {
  using Result = Expected<std::vector<uint8_t>>;
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Result::error(formatString("cannot open '%s': %s", Path.c_str(),
                                      std::strerror(errno)));
  // Sized from fstat so a regular file arrives in one read; the buffer
  // still grows for a file whose size fstat does not know (a pipe) or
  // that grows while it is read. The spare byte lets the first read
  // already see the end of the file.
  struct stat St;
  size_t Expect = ::fstat(Fd, &St) == 0 && St.st_size > 0
                      ? static_cast<size_t>(St.st_size)
                      : 0;
  std::vector<uint8_t> Bytes(std::max<size_t>(Expect + 1, 4096));
  size_t Done = 0;
  for (;;) {
    if (Done == Bytes.size())
      Bytes.resize(2 * Bytes.size());
    ssize_t N = ::read(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int Err = errno;
      ::close(Fd);
      return Result::error(formatString("cannot read '%s': %s",
                                        Path.c_str(), std::strerror(Err)));
    }
    Done += static_cast<size_t>(N);
  }
  ::close(Fd);
  Bytes.resize(Done);
  return Bytes;
}

Status gpuperf::writeTextFile(const std::string &Path,
                              const std::string &Bytes) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return Status::error(formatString("cannot write '%s': %s",
                                      Path.c_str(), std::strerror(errno)));
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool CloseOk = std::fclose(F) == 0;
  if (Written != Bytes.size() || !CloseOk)
    return Status::error(formatString("short write to '%s'", Path.c_str()));
  return Status::success();
}

void gpuperf::syncDirectoryOf(const std::string &Path) {
  int Fd = ::open(directoryOf(Path).c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  (void)::fsync(Fd); // Best-effort: some file systems refuse this.
  ::close(Fd);
}

Status gpuperf::writeFileDurable(const std::string &Path,
                                 const uint8_t *Data, size_t Size) {
  // The pid suffix keeps concurrent writers from different processes
  // off each other's temporary.
  std::string Tmp =
      formatString("%s.tmp.%ld", Path.c_str(), static_cast<long>(getpid()));

  size_t WriteBytes = Size;
  if (WriteByteLimit && WriteByteLimit < WriteBytes)
    WriteBytes = WriteByteLimit; // Simulated disk-full for the tests.

  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Status::error(formatString("cannot create '%s': %s",
                                      Tmp.c_str(), std::strerror(errno)));
  size_t Done = 0;
  while (Done < WriteBytes) {
    ssize_t N = ::write(Fd, Data + Done, WriteBytes - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Done += static_cast<size_t>(N);
  }
  // The temporary must reach the disk before the rename can publish it:
  // rename is a metadata operation and may be journaled ahead of the
  // data, so skipping this fsync can surface the new name with empty
  // contents after a power loss.
  bool Ok = Done == Size && ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok) {
    std::remove(Tmp.c_str());
    return Status::error(formatString("short write to '%s'", Tmp.c_str()));
  }

  if (WriteCrashPoint == 1)
    return Status::error(formatString(
        "simulated crash before renaming '%s'", Tmp.c_str()));

  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Status::error(formatString("cannot rename '%s' over '%s': %s",
                                      Tmp.c_str(), Path.c_str(),
                                      std::strerror(errno)));
  }

  if (WriteCrashPoint == 2)
    return Status::error(formatString(
        "simulated crash after renaming over '%s'", Path.c_str()));

  syncDirectoryOf(Path);
  return Status::success();
}
