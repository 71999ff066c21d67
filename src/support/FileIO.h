//===- support/FileIO.h - durable file primitives ---------------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small set of file-system primitives the durability layer is built
/// on: whole-file reads, durable atomic replacement (temporary + fsync +
/// rename + directory fsync), and directory syncs after metadata
/// operations -- plus the one plain in-place writer every tool and
/// bench output (profile, probe, trace and metrics records) goes
/// through. readFileBytes is also the one reader every loader goes
/// through (modules, probe specs, perf records, assembly, GPDB and the
/// FrameLog journals), so each reports an unreadable input the same way
/// and none can abort on one. Centralizing them here gives every caller
/// the same crash semantics and gives the test suite one place to
/// inject torn writes and crash points -- the I/O analog of
/// sim/FaultInjector's "any input either works or fails structurally,
/// never silently corrupts" stance.
///
/// Crash model. writeFileDurable guarantees that after a power loss or
/// SIGKILL at *any* instruction, the target path holds either the
/// complete previous contents or the complete new contents:
///   1. bytes are written to a same-directory temporary,
///   2. the temporary is fsync'd (data reaches the disk before the
///      rename can be observed -- without this, a crash after the rename
///      could publish an empty or partial file),
///   3. rename(2) atomically replaces the target,
///   4. the containing directory is fsync'd (the rename itself is
///      durable).
///
//======---------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_FILEIO_H
#define GPUPERF_SUPPORT_FILEIO_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gpuperf {

/// Reads the entire file at \p Path; an empty file yields an empty
/// vector. Never throws: when the open or a read fails (a missing file,
/// a directory, an I/O error) it returns an error naming the path and
/// the system's reason, e.g. "cannot read 'DIR': Is a directory". A
/// failed read returns no bytes at all, never the prefix read before
/// the failure, so a caller cannot mistake it for a short file. Callers
/// that report the error prefix their own context.
Expected<std::vector<uint8_t>> readFileBytes(const std::string &Path);

/// Durably and atomically replaces \p Path with \p Size bytes of
/// \p Data (see the crash model above). On failure the previous file is
/// untouched and the temporary is removed -- except under an injected
/// crash point, which leaves the file system exactly as a real crash at
/// that instruction would.
Status writeFileDurable(const std::string &Path, const uint8_t *Data,
                        size_t Size);

/// Writes \p Bytes to \p Path in place (open, write, close; no fsync).
/// For outputs, not durable state: unlike writeFileDurable it never
/// renames over the target, so /dev/null, /dev/stdout and FIFOs work.
/// Fails, naming the path, when the file cannot be opened or a write or
/// the close fails (a full disk must not pass for a complete record).
Status writeTextFile(const std::string &Path, const std::string &Bytes);

/// fsyncs the directory containing \p Path, making a previously
/// performed create/rename/unlink of that entry durable. Best-effort:
/// some file systems refuse directory fsync; errors are ignored.
void syncDirectoryOf(const std::string &Path);

//===----------------------------------------------------------------------===//
// Testing hooks (not thread-safe; set only from single-threaded tests)
//===----------------------------------------------------------------------===//

/// Caps the number of bytes any single writeFileDurable may write
/// (0 = unlimited). A capped write fails like a full disk: the
/// temporary is removed and the target left untouched.
void setDurableWriteByteLimitForTesting(size_t Limit);

/// Simulated kill points inside writeFileDurable (0 = off):
///   1 = after the temporary is written and fsync'd, before the rename
///       (target still old; orphan temporary remains on disk);
///   2 = after the rename, before the directory sync (target already
///       new; the caller sees a failure and must not run any
///       postcondition steps, exactly as if the process had died).
/// The injected "crash" returns a Status failure without cleanup.
void setDurableWriteCrashPointForTesting(int Point);

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_FILEIO_H
