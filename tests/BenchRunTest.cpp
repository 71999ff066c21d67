//===- tests/BenchRunTest.cpp - the bench run context's exit contract -----===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BenchRun's exit contract: a bench whose sweep left a point incomplete
/// exits 1 after writing its --json record, with or without --json, so
/// tools/run_benches.sh can never count it complete; a healthy sweep
/// returns every row in point order and leaves the exit to main().
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace gpuperf;

namespace {

/// Builds a BenchRun from \p Args (argv[0] is supplied).
BenchRun makeRun(std::vector<std::string> Args) {
  Args.insert(Args.begin(), "bench_run_test");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return BenchRun("bench_run_test", static_cast<int>(Argv.size()),
                  Argv.data());
}

/// Runs a three-point sweep through \p Run whose point 1 fails.
void sweepWithFailingPoint(BenchRun &Run) {
  runSweepSupervised(Run, "s", 3, [](size_t I, const std::string &) {
    if (I == 1)
      return SweepPointAttempt::fatal("boom");
    return SweepPointAttempt::ok({std::to_string(I)});
  });
}

class BenchRunExit : public ::testing::Test {
protected:
  void SetUp() override {
    // The sweep may start worker threads; fork-safe death tests re-run
    // the test body in a fresh process instead of forking this one.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    JsonPath = testing::TempDir() + "gpuperf_bench_run_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".json";
    std::remove(JsonPath.c_str());
  }
  void TearDown() override { std::remove(JsonPath.c_str()); }

  std::string JsonPath;
};

TEST_F(BenchRunExit, IncompleteSweepExitsOneWithoutJson) {
  EXPECT_EXIT(
      {
        BenchRun Run = makeRun({"--no-cache", "--jobs", "2"});
        sweepWithFailingPoint(Run);
      },
      ::testing::ExitedWithCode(1), "sweep s: point 1 failed: boom");
}

TEST_F(BenchRunExit, IncompleteSweepExitsOneAfterWritingJson) {
  EXPECT_EXIT(
      {
        BenchRun Run =
            makeRun({"--no-cache", "--jobs", "2", "--json", JsonPath});
        sweepWithFailingPoint(Run);
      },
      ::testing::ExitedWithCode(1), "point 1 failed");
  auto Record = readFileBytes(JsonPath);
  ASSERT_TRUE(Record) << Record.message();
  std::string Text(Record->begin(), Record->end());
  EXPECT_NE(Text.find("\"incomplete\":[{\"sweep\":\"s\",\"point\":1,"),
            std::string::npos)
      << Text;
}

TEST_F(BenchRunExit, HealthySweepReturnsEveryRowInOrder) {
  BenchRun Run = makeRun({"--no-cache", "--jobs", "2"});
  auto Rows = runSweepSupervised(
      Run, "s", 4, [](size_t I, const std::string &) {
        return SweepPointAttempt::ok({std::to_string(I)});
      });
  ASSERT_EQ(Rows.size(), 4u);
  for (size_t I = 0; I < Rows.size(); ++I) {
    ASSERT_TRUE(Rows[I].has_value());
    EXPECT_EQ(*Rows[I], std::vector<std::string>{std::to_string(I)});
  }
}

} // namespace
