//===- tests/TraceTest.cpp - trace emission smoke and determinism ---------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Smoke tests for the tracing layer end to end: a traced launch yields
/// events that render to structurally valid Chrome trace_event JSON; the
/// trace is bit-identical for every LaunchConfig::Jobs value; ring
/// eviction degrades gracefully; and the gpurun CLI's --metrics/--trace/
/// --profile surface behaves byte-identically across --jobs on the BR=6
/// Kepler SGEMM (the acceptance property of the observability layer).
///
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "sim/Launcher.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/wait.h>

using namespace gpuperf;

namespace {

/// Shape and buffers of the small tuned-NN problem used throughout.
struct NNProblem {
  Kernel K;
  LaunchConfig Launch;
  size_t MemBytes = 0;
  uint32_t BAddr = 0, CAddr = 0; // AAddr is the 256-aligned base.
};

constexpr int ProblemM = 192, ProblemN = 192, ProblemK = 64;

/// Builds the BR=6 tuned NN kernel and its launch shape on \p M. Matrix
/// contents are left zero: trace determinism and slot accounting are
/// data-independent for this kernel.
NNProblem makeTunedNN(const MachineDesc &M) {
  NNProblem P;
  SgemmKernelConfig Cfg =
      baselineConfig(SgemmImpl::AsmTuned, M, GemmVariant::NN, ProblemM,
                     ProblemN, ProblemK);
  auto K = generateSgemmKernel(M, Cfg);
  EXPECT_TRUE(K.hasValue()) << K.message();
  P.K = K.take();

  auto Round256 = [](size_t N) { return (N + 255) & ~size_t(255); };
  size_t ABytes = size_t(ProblemM) * ProblemK * 4;
  size_t BBytes = size_t(ProblemK) * ProblemN * 4;
  size_t CBytes = size_t(ProblemM) * ProblemN * 4;
  uint32_t AAddr = 256; // First 256-aligned bump-allocator address.
  P.BAddr = AAddr + static_cast<uint32_t>(Round256(ABytes));
  P.CAddr = P.BAddr + static_cast<uint32_t>(Round256(BBytes));
  P.MemBytes = Round256(ABytes) + Round256(BBytes) + CBytes;

  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  P.Launch.Dims.GridX = Shape.GridX;
  P.Launch.Dims.GridY = Shape.GridY;
  P.Launch.Dims.BlockX = Shape.BlockX;
  P.Launch.Params = {AAddr, P.BAddr, P.CAddr, 0x3f800000u /*alpha=1*/,
                     0u /*beta=0*/};
  P.Launch.Mode = SimMode::Full;
  return P;
}

/// Runs the problem with tracing at \p Jobs and returns the trace.
SimTrace runTraced(const MachineDesc &M, int Jobs, size_t Ring = 1 << 16) {
  NNProblem P = makeTunedNN(M);
  SimTrace Trace;
  Trace.RingCapacity = Ring;
  P.Launch.Jobs = Jobs;
  P.Launch.Trace = &Trace;
  GlobalMemory GM(P.MemBytes + 512);
  auto R = launchKernel(M, P.K, P.Launch, GM);
  EXPECT_TRUE(R.hasValue()) << R.message();
  return Trace;
}

TEST(TraceSmoke, EmitsValidChromeTraceJson) {
  const MachineDesc &M = gtx680();
  SimTrace Trace = runTraced(M, 1);
  ASSERT_FALSE(Trace.Events.empty());
  EXPECT_EQ(Trace.DroppedEvents, 0u);

  // Both issue and stall events must be present, with sane fields.
  bool SawIssue = false, SawStall = false;
  int16_t MaxSM = 0;
  for (const TraceEvent &E : Trace.Events) {
    (E.IsStall ? SawStall : SawIssue) = true;
    if (E.IsStall) {
      EXPECT_GE(E.Track, SchedTrackBase);
      EXPECT_LT(E.Code, NumSlotUses);
      EXPECT_GE(E.Dur, 1u);
    } else {
      EXPECT_LT(E.Track, SchedTrackBase);
      EXPECT_GE(E.PC, 0);
    }
    MaxSM = std::max(MaxSM, E.SM);
  }
  EXPECT_TRUE(SawIssue);
  EXPECT_TRUE(SawStall);
  EXPECT_GT(MaxSM, 0) << "want a multi-SM trace";

  std::string Json = chromeTraceJson(Trace, M);
  auto Parsed = jsonParse(Json);
  EXPECT_TRUE(Parsed.hasValue()) << Parsed.message();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"stall\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"issue\""), std::string::npos);

  // And the file-writing path produces the same bytes.
  std::string Path =
      ::testing::TempDir() + "gpuperf_trace_smoke.json";
  Status WriteStatus = writeChromeTrace(Trace, M, Path);
  ASSERT_FALSE(WriteStatus.failed()) << WriteStatus.message();
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Json);
  std::remove(Path.c_str());
}

TEST(TraceSmoke, TraceBitIdenticalAcrossJobs) {
  const MachineDesc &M = gtx680();
  SimTrace J1 = runTraced(M, 1);
  SimTrace J4 = runTraced(M, 4);
  EXPECT_EQ(J1.DroppedEvents, J4.DroppedEvents);
  ASSERT_EQ(J1.Events.size(), J4.Events.size());
  for (size_t I = 0; I < J1.Events.size(); ++I)
    ASSERT_TRUE(J1.Events[I] == J4.Events[I]) << "event " << I;
}

TEST(TraceSmoke, TinyRingEvictsOldestButStaysValid) {
  const MachineDesc &M = gtx680();
  SimTrace Small = runTraced(M, 1, /*Ring=*/16);
  SimTrace Big = runTraced(M, 1);
  EXPECT_GT(Small.DroppedEvents, 0u);
  EXPECT_LT(Small.Events.size(), Big.Events.size());
  auto Parsed = jsonParse(chromeTraceJson(Small, M));
  EXPECT_TRUE(Parsed.hasValue()) << Parsed.message();
}

//===----------------------------------------------------------------------===//
// gpurun CLI: --metrics/--profile determinism and flag validation
//===----------------------------------------------------------------------===//

#ifdef GPUPERF_GPURUN_PATH

/// Runs \p Cmd, captures its stdout, returns the exit status.
int runCommand(const std::string &Cmd, std::string *Out) {
  FILE *P = popen((Cmd + " 2>/dev/null").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  Out->clear();
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out->append(Buf, N);
  int Raw = pclose(P);
  return Raw < 0 ? -1 : WEXITSTATUS(Raw);
}

class GpurunMetrics : public ::testing::Test {
protected:
  void SetUp() override {
    const MachineDesc &M = gtx680();
    NNProblem P = makeTunedNN(M);
    Module Mod;
    Mod.Arch = M.Generation;
    Mod.Kernels.push_back(P.K);
    ModPath = ::testing::TempDir() + "gpuperf_trace_test_sgemm.gpub";
    Status WriteStatus = Mod.writeToFile(ModPath);
    ASSERT_FALSE(WriteStatus.failed()) << WriteStatus.message();
    // gpurun --mem allocates first, so its base address is 256 -- the
    // same AAddr makeTunedNN assumed; B/C/alpha/beta follow as --param.
    BaseCmd = formatString(
        "%s %s --machine GTX680 --grid %d,%d --block %d --mem %zu "
        "--param %u --param %u --param 0x3f800000 --param 0",
        GPUPERF_GPURUN_PATH, ModPath.c_str(), P.Launch.Dims.GridX,
        P.Launch.Dims.GridY, P.Launch.Dims.BlockX, P.MemBytes + 512,
        P.BAddr, P.CAddr);
  }

  void TearDown() override { std::remove(ModPath.c_str()); }

  std::string ModPath, BaseCmd;
};

TEST_F(GpurunMetrics, MetricsByteIdenticalAcrossJobs) {
  // The acceptance criterion verbatim: gpurun --metrics on the BR=6
  // Kepler SGEMM prints a stall breakdown whose per-cause totals sum to
  // cycles x schedulers (gpurun itself exits 1 on a violated identity),
  // byte-identical between --jobs 1 and --jobs 4.
  std::string Out1, Out4;
  ASSERT_EQ(runCommand(BaseCmd + " --metrics --jobs 1", &Out1), 0)
      << Out1;
  ASSERT_EQ(runCommand(BaseCmd + " --metrics --jobs 4", &Out4), 0)
      << Out4;
  EXPECT_NE(Out1.find("issue-slot breakdown"), std::string::npos);
  EXPECT_NE(Out1.find("== aggregate cycles x schedulers"),
            std::string::npos);
  EXPECT_EQ(Out1, Out4);
}

TEST_F(GpurunMetrics, TraceFlagWritesValidJson) {
  std::string TracePath = ::testing::TempDir() + "gpurun_trace.json";
  std::string Out;
  ASSERT_EQ(runCommand(BaseCmd + " --trace=" + TracePath, &Out), 0)
      << Out;
  std::ifstream In(TracePath, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  auto Parsed = jsonParse(SS.str());
  EXPECT_TRUE(Parsed.hasValue()) << Parsed.message();
  EXPECT_NE(SS.str().find("\"traceEvents\""), std::string::npos);
  std::remove(TracePath.c_str());
}

TEST_F(GpurunMetrics, ProfileFlagWritesJobsInvariantRecord) {
  // --profile is the profiler CLI: the annotated report goes to stdout
  // and the versioned record to FILE, byte-identical for every --jobs.
  std::string Path = ::testing::TempDir() + "gpurun_profile.json";
  std::string Out[2], Record[2];
  for (int I : {0, 1}) {
    std::string Cmd = formatString("%s --profile %s --jobs %d",
                                   BaseCmd.c_str(), Path.c_str(), 1 + 3 * I);
    ASSERT_EQ(runCommand(Cmd, &Out[I]), 0) << Out[I];
    std::ifstream In(Path, std::ios::binary);
    std::stringstream SS;
    SS << In.rdbuf();
    Record[I] = SS.str();
  }
  std::remove(Path.c_str());

  auto Parsed = jsonParse(Record[0]);
  EXPECT_TRUE(Parsed.hasValue()) << Parsed.message();
  EXPECT_NE(Record[0].find("\"record\":\"profile\""), std::string::npos);
  EXPECT_EQ(Record[0], Record[1]);
  EXPECT_EQ(Out[0], Out[1]);
  // The main loop's block: region header, then achieved vs bound.
  size_t Loop = Out[0].find("\nloop L0 [");
  ASSERT_NE(Loop, std::string::npos) << Out[0];
  EXPECT_NE(Out[0].find("achieved/bound FFMA density:", Loop),
            std::string::npos);

  std::string Missing = ::testing::TempDir() + "no_such_dir/profile.json";
  EXPECT_EQ(runCommand(BaseCmd + " --profile " + Missing, &Out[0]), 1);
}

TEST_F(GpurunMetrics, MalformedFlagsAreRejectedWithUsageExit) {
  // The CLI-validation satellite: garbage, trailing junk, out-of-range
  // and negative-for-unsigned values all exit 2 with a diagnostic, they
  // do not silently parse as 0 the way atoi did.
  std::string Out;
  for (const char *Bad :
       {" --jobs banana", " --jobs 4x", " --jobs -2", " --grid 0",
        " --grid 12,", " --block 99999999999999999999",
        " --param -1", " --watchdog 1e9"})
    EXPECT_EQ(runCommand(BaseCmd + Bad, &Out), 2) << Bad;
}

#endif // GPUPERF_GPURUN_PATH

} // namespace
