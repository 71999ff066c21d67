//===- ubench/SweepRunner.h - run-once, resumable sweeps --------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine: evaluates N independent sweep points across a
/// thread pool, running each point once, with results indexed by point
/// so they are identical for every job count. A sweep never aborts on a
/// failing point: the simulator is deterministic, so a failure would
/// repeat on every retry, and the point is listed in an explicit
/// incomplete set instead while the other points complete (pinned by
/// sweep_supervisor_test). bench/BenchUtil.h's runSweepSupervised wraps
/// this as the one runner of the figure/table benches, with
/// SweepOptions::Jobs only: their crash safety is the PerfDatabase
/// journal, which serves every acknowledged measurement to a re-run.
///
/// The optional checkpoint (ubench/SweepCheckpoint.h), the lookup path
/// that serves checkpointed points, SweepReport's Resumed and
/// CheckpointErrors, and SweepPointFn's name parameter remain only for
/// the host benchmark's ubench_cold workload (benchmark/Workloads.cpp)
/// and sweep_supervisor_test; they go when that workload stops opening
/// a checkpoint.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_UBENCH_SWEEPRUNNER_H
#define GPUPERF_UBENCH_SWEEPRUNNER_H

#include "ubench/SweepCheckpoint.h"

#include <functional>
#include <optional>

namespace gpuperf {

/// What one sweep point reports: its rendered rows, or why it failed.
struct SweepPointAttempt {
  std::vector<std::string> Rows;      ///< Valid when Failure is empty.
  std::optional<std::string> Failure; ///< Set when the point failed.

  static SweepPointAttempt ok(std::vector<std::string> Rows) {
    return {std::move(Rows), std::nullopt};
  }
  static SweepPointAttempt fatal(std::string Why) {
    return {{}, std::move(Why)};
  }
};

/// One point the sweep could not complete.
struct SweepPointFailure {
  size_t Point = 0;
  std::string Reason;
};

/// Summary of one sweep; bench --json records list its incomplete points.
struct SweepReport {
  std::string Name;
  size_t Points = 0;
  size_t Completed = 0; ///< Points with rows (freshly run or resumed).
  size_t Resumed = 0;   ///< Served from the checkpoint, not re-run.
  std::vector<SweepPointFailure> Incomplete; ///< Index order.
  /// FNV-1a digest over (index, rows) of every completed point in index
  /// order -- run-order- and resume-independent, so an uninterrupted
  /// run and a kill+resume run of the same sweep digest identically.
  uint64_t RowsHash = 0;
  size_t CheckpointErrors = 0; ///< Failed markDone appends (non-fatal).
  std::string FirstCheckpointError;

  bool complete() const { return Incomplete.empty(); }
};

/// Execution knobs for one sweep.
struct SweepOptions {
  int Jobs = 0;                          ///< As parallelFor.
  SweepCheckpoint *Checkpoint = nullptr; ///< Optional resume journal.
};

/// Everything a sweep produced: per-point rows (nullopt = incomplete)
/// plus the report.
struct SweepResult {
  std::vector<std::optional<std::vector<std::string>>> Rows;
  SweepReport Report;
};

/// Point evaluator: point index and sweep name. Must be safe to call
/// concurrently.
// Only benchmark/Workloads.cpp's lambda takes the name; drop it with that.
using SweepPointFn =
    std::function<SweepPointAttempt(size_t, const std::string &)>;

/// Evaluates \p Point(0..N-1) under \p O, each point once. Completed
/// points are recorded in the checkpoint (when given) the moment they
/// finish; checkpointed points are served without re-running. Results
/// are indexed by point and identical for every Jobs value.
SweepResult runSupervisedSweep(const SweepOptions &O,
                               const std::string &Name, size_t N,
                               const SweepPointFn &Point);

} // namespace gpuperf

#endif // GPUPERF_UBENCH_SWEEPRUNNER_H
