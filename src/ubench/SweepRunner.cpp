//===- ubench/SweepRunner.cpp - run-once, resumable sweeps ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/SweepRunner.h"

#include "support/ThreadPool.h"

using namespace gpuperf;

namespace {

uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

uint64_t fnv1aU64(uint64_t Hash, uint64_t V) {
  uint8_t Bytes[8];
  for (int I = 0; I < 8; ++I)
    Bytes[I] = static_cast<uint8_t>(V >> (8 * I));
  return fnv1a(Hash, Bytes, 8);
}

} // namespace

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

  uint64_t Hash = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < N; ++I) {
    if (Out.Rows[I]) {
      ++Out.Report.Completed;
      if (FromCheckpoint[I])
        ++Out.Report.Resumed;
      Hash = fnv1aU64(Hash, I);
      for (const std::string &Row : *Out.Rows[I]) {
        Hash = fnv1a(Hash, Row.data(), Row.size());
        Hash = fnv1aU64(Hash, Row.size());
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
  Out.Report.RowsHash = Hash;
  return Out;
}
