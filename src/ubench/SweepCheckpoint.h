//===- ubench/SweepCheckpoint.h - completed-point journal -------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sidecar journal that makes sweeps resumable: every completed
/// sweep point is recorded as one support/FrameLog frame carrying the
/// sweep name, the point index, and the point's rendered result rows. A
/// killed sweep restarted with Resume set replays the file (truncating at
/// the first torn frame, the FrameLog recovery the PerfDatabase journal
/// shares), serves the recorded rows for completed points
/// without re-running them, and re-runs only what is missing -- so a
/// resumed sweep's output is bit-identical to an uninterrupted one and
/// no completed point is ever executed twice.
///
/// File layout (all integers little-endian):
///   "GPCK" | u32 version
///   then per frame: u32 payload length | u32 crc32(payload) | payload
///   payload: u32 name length | name | u32 point index |
///            u32 row count | per row: u32 length | bytes
/// A record over the caps (name 1..1024 bytes, at most 4096 rows of at
/// most 65536 bytes each, 16 MiB per payload) is never written: replay
/// would reject it as corruption.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_UBENCH_SWEEPCHECKPOINT_H
#define GPUPERF_UBENCH_SWEEPCHECKPOINT_H

#include "support/Error.h"
#include "support/FrameLog.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace gpuperf {

/// Journal of completed sweep points, shared by every sweep in one
/// bench process (records are keyed by sweep name + point index).
/// markDone is thread-safe so sweep workers can checkpoint points as
/// they finish; lookups are expected before the sweep fans out.
class SweepCheckpoint {
public:
  /// Disabled checkpoint: lookups miss, markDone is a no-op.
  SweepCheckpoint() = default;

  /// Opens (creating if needed) the checkpoint at \p Path. With
  /// \p Resume, previously recorded points are loaded -- a torn or
  /// corrupt tail is truncated at the first bad frame, keeping every
  /// fully-acknowledged record. Without \p Resume the file is emptied:
  /// a fresh (non-resumed) run must re-run everything.
  SweepCheckpoint(std::string Path, bool Resume);

  SweepCheckpoint(const SweepCheckpoint &) = delete;
  SweepCheckpoint &operator=(const SweepCheckpoint &) = delete;

  /// True when constructed with a path.
  bool enabled() const { return Log.has_value(); }

  /// Rows recorded for (\p Sweep, \p Point), or null when the point has
  /// not been completed (or checkpointing is disabled).
  const std::vector<std::string> *lookup(const std::string &Sweep,
                                         size_t Point) const;

  /// Durably records that \p Point of \p Sweep completed with \p Rows:
  /// the frame is appended and fsync'd before returning, so a kill any
  /// time later cannot double-run the point. A record over the caps is
  /// refused with an error (the point is then re-run on resume). No-op
  /// when disabled.
  Status markDone(const std::string &Sweep, size_t Point,
                  const std::vector<std::string> &Rows);

  /// Number of completed-point records currently known.
  size_t recordCount() const;

private:
  std::optional<FrameLog> Log; ///< Absent when disabled.
  mutable std::mutex Mutex;    ///< Guards Done and appends to Log.
  std::map<std::pair<std::string, size_t>, std::vector<std::string>> Done;
};

} // namespace gpuperf

#endif // GPUPERF_UBENCH_SWEEPCHECKPOINT_H
