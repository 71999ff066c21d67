//===- ubench/SweepRunner.cpp - run-once, resumable sweeps ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/SweepRunner.h"

#include "support/LittleEndian.h"
#include "support/ThreadPool.h"

using namespace gpuperf;

SweepResult gpuperf::runSupervisedSweep(const SweepOptions &O,
                                        const std::string &Name, size_t N,
                                        const SweepPointFn &Point) {
  SweepResult Out;
  Out.Rows.resize(N);
  Out.Report.Name = Name;
  Out.Report.Points = N;

  // Per-index slots keep the parallel run deterministic: workers write
  // only their own point's state; everything order-sensitive (report
  // assembly, digest) happens on the calling thread afterwards.
  std::vector<std::optional<std::string>> Failures(N);
  std::vector<uint8_t> FromCheckpoint(N, 0);
  std::vector<std::string> CheckpointErrors(N);

  parallelFor(O.Jobs, N, [&](size_t I) {
    if (O.Checkpoint) {
      if (const std::vector<std::string> *Rows =
              O.Checkpoint->lookup(Name, I)) {
        Out.Rows[I] = *Rows;
        FromCheckpoint[I] = 1;
        return; // Never double-run a completed point.
      }
    }

    SweepPointAttempt R = Point(I, Name);
    if (R.Failure) {
      Failures[I] = std::move(R.Failure);
      return;
    }
    if (O.Checkpoint) {
      // Record completion durably before exposing the result: once the
      // sweep moves on, a kill must not cause a double run.
      if (Status S = O.Checkpoint->markDone(Name, I, R.Rows); S.failed())
        CheckpointErrors[I] = S.message();
    }
    Out.Rows[I] = std::move(R.Rows);
  });

  Fnv1a Hash;
  for (size_t I = 0; I < N; ++I) {
    if (Out.Rows[I]) {
      ++Out.Report.Completed;
      if (FromCheckpoint[I])
        ++Out.Report.Resumed;
      Hash.u64(I);
      for (const std::string &Row : *Out.Rows[I]) {
        Hash.bytes(Row.data(), Row.size());
        Hash.u64(Row.size());
      }
    } else if (Failures[I]) {
      Out.Report.Incomplete.push_back({I, std::move(*Failures[I])});
    }
    if (!CheckpointErrors[I].empty()) {
      if (Out.Report.CheckpointErrors == 0)
        Out.Report.FirstCheckpointError = CheckpointErrors[I];
      ++Out.Report.CheckpointErrors;
    }
  }
  Out.Report.RowsHash = Hash.value();
  return Out;
}
