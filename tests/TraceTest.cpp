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
/// eviction degrades gracefully and keeps exactly the newest events; the
/// renderer's bytes equal a per-call JsonWriter oracle on real and
/// hand-built traces; and the gpurun CLI's --metrics/--trace/--profile
/// surface behaves byte-identically across --jobs on the BR=6 Kepler
/// SGEMM (the acceptance property of the observability layer).
///
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "isa/Opcode.h"
#include "probe/ProbeEngine.h"
#include "sim/Launcher.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
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
// Renderer bytes against a per-call oracle
//===----------------------------------------------------------------------===//

/// The Chrome trace renderer as it was before events were rendered from
/// prefixes: one JsonWriter call per key and value. chromeTraceJson must
/// produce exactly these bytes.
std::string oracleChromeTraceJson(const SimTrace &Trace,
                                  const MachineDesc &M) {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();

  // Metadata: name the processes (SMs) and scheduler tracks.
  int MaxSM = -1;
  for (const TraceEvent &E : Trace.Events)
    MaxSM = E.SM > MaxSM ? E.SM : MaxSM;
  for (int SM = 0; SM <= MaxSM; ++SM) {
    W.beginObject();
    W.kv("name", "process_name");
    W.kv("ph", "M");
    W.kv("pid", SM);
    W.key("args");
    W.beginObject();
    W.kv("name", formatString("%s SM %d", M.Name.c_str(), SM));
    W.endObject();
    W.endObject();
  }

  // Surface ring evictions inside the timeline itself (in addition to
  // the top-level key below): viewers and scripts that read only
  // traceEvents still learn the timeline is truncated.
  W.beginObject();
  W.kv("name", "dropped_events");
  W.kv("ph", "M");
  W.kv("pid", 0);
  W.key("args");
  W.beginObject();
  W.kv("dropped_events", Trace.DroppedEvents);
  W.endObject();
  W.endObject();

  for (const TraceEvent &E : Trace.Events) {
    W.beginObject();
    if (E.IsStall) {
      W.kv("name", slotUseName(static_cast<SlotUse>(E.Code)));
      W.kv("cat", "stall");
    } else {
      W.kv("name", opcodeMnemonic(static_cast<Opcode>(E.Code)));
      W.kv("cat", "issue");
    }
    W.kv("ph", "X");
    W.kv("ts", E.Cycle);
    W.kv("dur", E.Dur);
    W.kv("pid", static_cast<int>(E.SM));
    W.kv("tid", static_cast<unsigned>(E.Track));
    if (!E.IsStall) {
      W.key("args");
      W.beginObject();
      W.kv("pc", E.PC);
      W.kv("block", E.BlockId);
      W.kv("warp", static_cast<int>(E.WarpInBlock));
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.kv("displayTimeUnit", "ns");
  W.kv("machine", M.Name);
  W.kv("dropped_events", Trace.DroppedEvents);
  W.endObject();
  return W.take();
}

/// Asserts chromeTraceJson(Trace) equals the oracle byte for byte and
/// parses.
void expectOracleBytes(const SimTrace &Trace, const MachineDesc &M) {
  std::string Got = chromeTraceJson(Trace, M);
  std::string Want = oracleChromeTraceJson(Trace, M);
  ASSERT_EQ(Got.size(), Want.size());
  auto Diff = std::mismatch(Got.begin(), Got.end(), Want.begin());
  EXPECT_TRUE(Diff.first == Got.end())
      << "first difference at byte " << (Diff.first - Got.begin());
  auto Parsed = jsonParse(Got);
  EXPECT_TRUE(Parsed.hasValue()) << Parsed.message();
}

TEST(TraceRender, MatchesOracleOnLaunchTraces) {
  for (const MachineDesc *M : {&gtx680(), &gtx580()}) {
    SCOPED_TRACE(M->Name);
    for (size_t Ring : {size_t(1) << 16, SimTrace().RingCapacity,
                        size_t(16)}) {
      SCOPED_TRACE(Ring);
      SimTrace Trace = runTraced(*M, 1, Ring);
      ASSERT_FALSE(Trace.Events.empty());
      if (Ring == 16) {
        EXPECT_GT(Trace.DroppedEvents, 0u);
      }
      expectOracleBytes(Trace, *M);
    }
  }
}

TEST(TraceRender, MatchesOracleOnEmptyTrace) {
  SimTrace Empty;
  EXPECT_EQ(chromeTraceJson(Empty, gtx680()),
            "{\"traceEvents\":[{\"name\":\"dropped_events\",\"ph\":\"M\","
            "\"pid\":0,\"args\":{\"dropped_events\":0}}],"
            "\"displayTimeUnit\":\"ns\",\"machine\":\"GTX680\","
            "\"dropped_events\":0}");
  expectOracleBytes(Empty, gtx680());
}

TEST(TraceRender, MatchesOracleOnEveryCode) {
  // Every slot cause as a stall and every opcode as an issue, spread
  // over SMs so the metadata covers several processes.
  SimTrace Trace;
  Trace.DroppedEvents = 3;
  for (size_t U = 0; U < NumSlotUses; ++U) {
    TraceEvent E;
    E.Cycle = 10 * U;
    E.Dur = U + 1;
    E.SM = static_cast<int16_t>(U % 3);
    E.Track = static_cast<uint16_t>(SchedTrackBase + U % 4);
    E.IsStall = 1;
    E.Code = static_cast<uint8_t>(U);
    Trace.Events.push_back(E);
  }
  for (size_t Op = 0; Op < static_cast<size_t>(Opcode::NumOpcodes); ++Op) {
    TraceEvent E;
    E.Cycle = 7 * Op;
    E.PC = static_cast<int32_t>(Op);
    E.BlockId = static_cast<int32_t>(Op / 4);
    E.SM = static_cast<int16_t>(Op % 5);
    E.Track = static_cast<uint16_t>(Op % 48);
    E.Code = static_cast<uint8_t>(Op);
    E.WarpInBlock = static_cast<uint8_t>(Op % 8);
    Trace.Events.push_back(E);
  }
  expectOracleBytes(Trace, gtx580());
}

TEST(TraceRender, MatchesOracleOnFieldExtremes) {
  constexpr uint64_t U64Max = std::numeric_limits<uint64_t>::max();
  constexpr int32_t I32Min = std::numeric_limits<int32_t>::min();
  SimTrace Trace;
  Trace.DroppedEvents = U64Max;
  for (uint8_t IsStall : {0, 1})
    for (int32_t Small : {I32Min, -1}) {
      TraceEvent E;
      E.Cycle = U64Max;
      E.Dur = U64Max;
      E.PC = Small;
      E.BlockId = Small;
      E.SM = 32767;
      E.Track = 65535;
      E.IsStall = IsStall;
      E.Code = static_cast<uint8_t>(Opcode::FFMA);
      E.WarpInBlock = 255;
      Trace.Events.push_back(E);
    }
  // And the other end of every field.
  TraceEvent Zero;
  Zero.Cycle = 0;
  Zero.Dur = 0;
  Zero.PC = std::numeric_limits<int32_t>::max();
  Trace.Events.push_back(Zero);
  std::string Json = chromeTraceJson(Trace, gtx680());
  EXPECT_NE(Json.find("\"ts\":18446744073709551615,"
                      "\"dur\":18446744073709551615,\"pid\":32767,"
                      "\"tid\":65535,\"args\":{\"pc\":-2147483648,"
                      "\"block\":-2147483648,\"warp\":255}}"),
            std::string::npos);
  expectOracleBytes(Trace, gtx680());
}

//===----------------------------------------------------------------------===//
// Ring eviction in the recorder
//===----------------------------------------------------------------------===//

TEST(TraceRecorderRing, KeepsNewestEventsOldestFirst) {
  // Two warps and one scheduler, fed directly: warp 0 gets N issues,
  // warp 1 gets N + 2, and the scheduler N lost-slot spans too far
  // apart to coalesce. Each ring keeps its newest Capacity events.
  for (size_t Capacity : {size_t(1), size_t(3)})
    for (int N = 0; N <= 8; ++N) {
      SCOPED_TRACE(formatString("capacity %zu, %d events", Capacity, N));
      TraceRecorder Rec(Capacity);
      Rec.beginWave(/*NumWarps=*/2, /*NumSchedulers=*/1);
      int Counts[2] = {N, N + 2};
      for (int I = 0; I < N + 2; ++I)
        for (int Warp : {0, 1}) {
          if (I >= Counts[Warp])
            continue;
          ProbeEventRecord R;
          R.Cycle = 10 * I + Warp;
          R.PC = I;
          R.WarpSlot = Warp;
          R.Op = static_cast<int64_t>(Opcode::FFMA);
          Rec.record(ProbeEvent::InstIssued, R);
        }
      for (int I = 0; I < N; ++I) {
        ProbeEventRecord R;
        R.Cycle = 100 * I;
        R.Slots = 1;
        R.Scheduler = 0;
        R.Cause = static_cast<int64_t>(SlotUse::Barrier);
        Rec.record(ProbeEvent::SlotLost, R);
      }
      std::vector<TraceEvent> Got = Rec.take();

      std::vector<uint64_t> Want; // Track-major, oldest first.
      uint64_t WantDropped = 0;
      for (int Warp : {0, 1}) {
        int Kept = std::min<int>(Counts[Warp], static_cast<int>(Capacity));
        WantDropped += static_cast<uint64_t>(Counts[Warp] - Kept);
        for (int I = Counts[Warp] - Kept; I < Counts[Warp]; ++I)
          Want.push_back(static_cast<uint64_t>(10 * I + Warp));
      }
      int Kept = std::min<int>(N, static_cast<int>(Capacity));
      WantDropped += static_cast<uint64_t>(N - Kept);
      for (int I = N - Kept; I < N; ++I)
        Want.push_back(static_cast<uint64_t>(100 * I));

      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Got.size(); ++I)
        EXPECT_EQ(Got[I].Cycle, Want[I]) << "event " << I;
      EXPECT_EQ(Rec.dropped(), WantDropped);
    }
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
