//===- tests/SweepSupervisorTest.cpp - run-once, resumable sweeps ---------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep engine's run-once and resume contract: every point runs
/// once, a failing point degrades the sweep to an explicit incomplete
/// list instead of aborting it, and a resumed checkpoint serves its points
/// without ever re-running them -- with the combined output (rows and
/// digest) bit-identical to an uninterrupted run. A record the
/// checkpoint could not replay is never acknowledged.
///
//===----------------------------------------------------------------------===//

#include "ubench/SweepRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

using namespace gpuperf;

namespace {

/// Rows a healthy point I produces (deterministic, index-dependent).
std::vector<std::string> rowsFor(size_t I) {
  return {"point " + std::to_string(I), std::to_string(I * I)};
}

class SweepSupervisor : public ::testing::Test {
protected:
  void SetUp() override {
    CkptPath =
        testing::TempDir() + "gpuperf_sweep_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".ckpt";
    std::remove(CkptPath.c_str());
  }
  void TearDown() override { std::remove(CkptPath.c_str()); }

  SweepOptions serialOptions() {
    SweepOptions O;
    O.Jobs = 1;
    return O;
  }

  std::string CkptPath;
};

TEST_F(SweepSupervisor, HealthySweepMatchesUnsupervisedOutput) {
  // The identity requirement: with every point healthy, the engine's
  // rows are exactly what each point returned, for any job count.
  for (int Jobs : {1, 4}) {
    SweepOptions O = serialOptions();
    O.Jobs = Jobs;
    SweepResult R = runSupervisedSweep(
        O, "healthy", 8,
        [](size_t I, const std::string &) {
          return SweepPointAttempt::ok(rowsFor(I));
        });
    ASSERT_TRUE(R.Report.complete());
    EXPECT_EQ(R.Report.Completed, 8u);
    EXPECT_EQ(R.Report.Resumed, 0u);
    for (size_t I = 0; I < 8; ++I) {
      ASSERT_TRUE(R.Rows[I].has_value());
      EXPECT_EQ(*R.Rows[I], rowsFor(I)) << "point " << I;
    }
  }
}

TEST_F(SweepSupervisor, FatalFailuresQuarantineWithoutRetry) {
  std::atomic<int> Runs{0};
  SweepResult R = runSupervisedSweep(
      serialOptions(), "fatal", 3, [&](size_t I, const std::string &Name) {
        EXPECT_EQ(Name, "fatal");
        ++Runs;
        if (I == 1)
          return SweepPointAttempt::fatal("deterministic trap");
        return SweepPointAttempt::ok(rowsFor(I));
      });
  EXPECT_EQ(Runs.load(), 3) << "every point runs exactly once";
  // The sweep completes minus an explicit incomplete list -- it never
  // aborts, and the points beside the failed one are unaffected.
  EXPECT_FALSE(R.Report.complete());
  EXPECT_EQ(R.Report.Completed, 2u);
  ASSERT_EQ(R.Report.Incomplete.size(), 1u);
  EXPECT_EQ(R.Report.Incomplete[0].Point, 1u);
  EXPECT_EQ(R.Report.Incomplete[0].Reason, "deterministic trap");
  EXPECT_FALSE(R.Rows[1].has_value());
  ASSERT_TRUE(R.Rows[0].has_value());
  ASSERT_TRUE(R.Rows[2].has_value());
  EXPECT_EQ(*R.Rows[0], rowsFor(0));
  EXPECT_EQ(*R.Rows[2], rowsFor(2));
}

TEST_F(SweepSupervisor, CheckpointPreventsDoubleRuns) {
  std::atomic<int> Runs{0};
  auto Point = [&](size_t I, const std::string &) {
    ++Runs;
    return SweepPointAttempt::ok(rowsFor(I));
  };
  uint64_t FirstHash;
  {
    SweepCheckpoint Ckpt(CkptPath, /*Resume=*/false);
    SweepOptions O = serialOptions();
    O.Checkpoint = &Ckpt;
    SweepResult R = runSupervisedSweep(O, "sweep", 5, Point);
    EXPECT_EQ(R.Report.Completed, 5u);
    EXPECT_EQ(Runs.load(), 5);
    FirstHash = R.Report.RowsHash;
  }
  // Resume with every point recorded: zero invocations, same rows, and
  // the digest matches the uninterrupted run exactly.
  SweepCheckpoint Ckpt(CkptPath, /*Resume=*/true);
  EXPECT_EQ(Ckpt.recordCount(), 5u);
  SweepOptions O = serialOptions();
  O.Checkpoint = &Ckpt;
  SweepResult R = runSupervisedSweep(O, "sweep", 5, Point);
  EXPECT_EQ(Runs.load(), 5) << "no completed point may ever re-run";
  EXPECT_EQ(R.Report.Completed, 5u);
  EXPECT_EQ(R.Report.Resumed, 5u);
  EXPECT_EQ(R.Report.RowsHash, FirstHash);
  for (size_t I = 0; I < 5; ++I) {
    ASSERT_TRUE(R.Rows[I].has_value());
    EXPECT_EQ(*R.Rows[I], rowsFor(I));
  }
}

TEST_F(SweepSupervisor, ResumeRunsOnlyTheMissingPoints) {
  // First run: point 2 is hostile (quarantined), the rest complete and
  // are checkpointed.
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    SweepOptions O = serialOptions();
    O.Checkpoint = &Ckpt;
    SweepResult R = runSupervisedSweep(
        O, "sweep", 5,
        [](size_t I, const std::string &) {
          if (I == 2)
            return SweepPointAttempt::fatal("hostile point");
          return SweepPointAttempt::ok(rowsFor(I));
        });
    EXPECT_EQ(R.Report.Completed, 4u);
    ASSERT_EQ(R.Report.Incomplete.size(), 1u);
  }
  // Resumed run with the point healthy again: exactly one invocation,
  // and the combined result equals a full uninterrupted run's.
  std::atomic<int> Runs{0};
  SweepCheckpoint Ckpt(CkptPath, true);
  EXPECT_EQ(Ckpt.recordCount(), 4u);
  SweepOptions O = serialOptions();
  O.Checkpoint = &Ckpt;
  SweepResult R = runSupervisedSweep(
      O, "sweep", 5,
      [&](size_t I, const std::string &) {
        ++Runs;
        return SweepPointAttempt::ok(rowsFor(I));
      });
  EXPECT_EQ(Runs.load(), 1) << "only the missing point may run";
  EXPECT_EQ(R.Report.Completed, 5u);
  EXPECT_EQ(R.Report.Resumed, 4u);

  SweepResult Uninterrupted = runSupervisedSweep(
      serialOptions(), "sweep", 5,
      [](size_t I, const std::string &) {
        return SweepPointAttempt::ok(rowsFor(I));
      });
  EXPECT_EQ(R.Report.RowsHash, Uninterrupted.Report.RowsHash)
      << "kill+resume must digest identically to an uninterrupted run";
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(*R.Rows[I], *Uninterrupted.Rows[I]);
}

TEST_F(SweepSupervisor, FreshRunTruncatesAnOldCheckpoint) {
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    ASSERT_FALSE(Ckpt.markDone("sweep", 0, rowsFor(0)).failed());
  }
  // Without Resume the file is emptied: a fresh run re-runs all.
  SweepCheckpoint Fresh(CkptPath, false);
  EXPECT_EQ(Fresh.recordCount(), 0u);
  EXPECT_EQ(Fresh.lookup("sweep", 0), nullptr);
}

TEST_F(SweepSupervisor, CheckpointRecoversFromTornTail) {
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    ASSERT_FALSE(Ckpt.markDone("sweep", 0, rowsFor(0)).failed());
    ASSERT_FALSE(Ckpt.markDone("sweep", 3, rowsFor(3)).failed());
  }
  // A kill mid-append leaves half a frame; resume must keep both intact
  // records and drop the tail.
  {
    std::ofstream Out(CkptPath, std::ios::binary | std::ios::app);
    const char Torn[] = {0x40, 0, 0, 0, 0x12, 0x34};
    Out.write(Torn, sizeof(Torn));
  }
  SweepCheckpoint Ckpt(CkptPath, true);
  EXPECT_EQ(Ckpt.recordCount(), 2u);
  ASSERT_NE(Ckpt.lookup("sweep", 0), nullptr);
  EXPECT_EQ(*Ckpt.lookup("sweep", 0), rowsFor(0));
  ASSERT_NE(Ckpt.lookup("sweep", 3), nullptr);
  EXPECT_EQ(*Ckpt.lookup("sweep", 3), rowsFor(3));
  EXPECT_EQ(Ckpt.lookup("sweep", 1), nullptr);
  // And appends after recovery extend the cleaned file.
  ASSERT_FALSE(Ckpt.markDone("sweep", 1, rowsFor(1)).failed());
  SweepCheckpoint Again(CkptPath, true);
  EXPECT_EQ(Again.recordCount(), 3u);
}

TEST_F(SweepSupervisor, OverCapRecordsAreNeverAcknowledged) {
  // A record the replay would reject must fail markDone instead of being
  // fsync'd and acknowledged: otherwise resume stops at it and truncates
  // away every acknowledged record after it.
  const std::vector<std::string> BigRow = {std::string(70000, 'r')};
  std::atomic<int> Runs{0};
  auto Point = [&](size_t I, const std::string &) {
    ++Runs;
    return SweepPointAttempt::ok(I == 1 ? BigRow : rowsFor(I));
  };
  {
    SweepCheckpoint Ckpt(CkptPath, false);
    SweepOptions O = serialOptions();
    O.Checkpoint = &Ckpt;
    SweepResult R = runSupervisedSweep(O, "s", 3, Point);
    EXPECT_EQ(R.Report.Completed, 3u) << "the rows are still served";
    EXPECT_EQ(R.Report.CheckpointErrors, 1u);
    // The other caps: sweep name length and row count.
    EXPECT_TRUE(Ckpt.markDone("", 5, rowsFor(5)).failed());
    EXPECT_TRUE(Ckpt.markDone(std::string(2000, 'n'), 5, rowsFor(5)).failed());
    EXPECT_TRUE(
        Ckpt.markDone("s", 5, std::vector<std::string>(5000, "x")).failed());
    EXPECT_EQ(Ckpt.recordCount(), 2u);
  }
  SweepCheckpoint Ckpt(CkptPath, true);
  EXPECT_EQ(Ckpt.recordCount(), 2u) << "points 0 and 2 survive the resume";
  SweepOptions O = serialOptions();
  O.Checkpoint = &Ckpt;
  Runs = 0;
  SweepResult R = runSupervisedSweep(O, "s", 3, Point);
  EXPECT_EQ(Runs.load(), 1) << "only the unacknowledged point re-runs";
  EXPECT_EQ(R.Report.Resumed, 2u);
}

TEST_F(SweepSupervisor, CheckpointKeysBySweepName) {
  SweepCheckpoint Ckpt(CkptPath, false);
  ASSERT_FALSE(Ckpt.markDone("alpha", 0, rowsFor(0)).failed());
  EXPECT_NE(Ckpt.lookup("alpha", 0), nullptr);
  EXPECT_EQ(Ckpt.lookup("beta", 0), nullptr)
      << "two sweeps sharing a checkpoint must not cross-serve points";
}

TEST_F(SweepSupervisor, RowsHashIgnoresExecutionOrder) {
  // The digest is computed in index order from per-index slots, so jobs
  // and scheduling cannot perturb it.
  auto Point = [](size_t I, const std::string &) {
    return SweepPointAttempt::ok(rowsFor(I));
  };
  SweepOptions Serial = serialOptions();
  SweepOptions Wide = serialOptions();
  Wide.Jobs = 8;
  EXPECT_EQ(runSupervisedSweep(Serial, "s", 16, Point).Report.RowsHash,
            runSupervisedSweep(Wide, "s", 16, Point).Report.RowsHash);
}

} // namespace
