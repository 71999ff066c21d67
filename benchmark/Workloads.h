//===- benchmark/Workloads.h - the five benchmark workloads -----*- C++ -*-===//
//
// Part of the gpuperf host-performance benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a fixed list of operations (one "pass") that a single
/// client issues one at a time; hostbench repeats the pass until its time
/// budget runs out. Operations call the library's public functions only,
/// and in the traced run wrap each call in a span named after its layer
/// (see README.md for the layer names and what each metric means).
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include "Jitter.h"
#include "Spans.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hostbench {

/// What one operation reports besides its timing.
struct OpResult {
  uint64_t Attempted = 1;
  uint64_t Failed = 0;
  std::string FirstError;
  /// FNV-1a over the simulated results (cycles, issue-slot breakdown,
  /// GFLOPS or measured-throughput bits). Identical for every run of the
  /// same operation, traced or not.
  uint64_t Digest = FnvBasis;
  /// Layer counts the traced run turns into per-layer metrics.
  std::map<std::string, double> Counters;

  void fail(std::string Why) {
    ++Failed;
    if (FirstError.empty())
      FirstError = std::move(Why);
  }

  /// Adds \p R's attempts and failures (not its digest or counters).
  void absorb(const OpResult &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    if (FirstError.empty())
      FirstError = R.FirstError;
  }
};

struct RunContext {
  SpanRecorder &Spans;
  /// Traced run: SGEMM operations call their public-API steps one by one
  /// (generate, fill+upload, launch, reference, compare) so each gets a
  /// span, instead of calling runSgemmConfig.
  bool Traced = false;
};

struct Operation {
  std::string Name; ///< Unique within the workload's pass.
  std::function<OpResult(RunContext &)> Run;
};

struct Workload {
  std::vector<Operation> Pass;
  /// Run once, untimed, at the end of set-up so lazy initialization and
  /// first-touch costs land in setup_s instead of the first timed op.
  Operation Warmup;
  /// Traced run only: extra calls that derive per-layer ratios (sink
  /// overheads, journal append cost). Recorded under "calibrate" spans.
  std::function<std::map<std::string, double>(RunContext &)> Calibrate;
};

/// User plus system CPU seconds of the whole process (all threads).
double cpuSeconds();

/// The workload names, in the order run.sh first runs them.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name with inputs derived from \p Seed. Temporary
/// files go under \p ScratchDir. Returns null (with \p Error set) for an
/// unknown name or a set-up failure.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed,
                                       const std::string &ScratchDir,
                                       std::string &Error);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_H
