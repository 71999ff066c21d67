//===- tests/ProfileTest.cpp - per-instruction profiler acceptance --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Acceptance tests for the per-instruction profiler and the perfdiff
/// regression gate: the per-PC profile is bit-identical across --jobs
/// on both machines; per-cause stall slots summed over PCs reproduce
/// the launch's StallBreakdown exactly; the annotated report shows the
/// list scheduler shrinking the main loop's bank_conflict +
/// dispatch_limit share; and perfdiff exits non-zero exactly when a
/// compared value of a record moved.
///
//===----------------------------------------------------------------------===//

#include "analysis/HotspotReport.h"
#include "kernelgen/Baselines.h"
#include "kernelgen/Scheduler.h"
#include "kernelgen/SgemmGenerator.h"
#include "sim/Launcher.h"
#include "support/Format.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <sys/wait.h>

using namespace gpuperf;

namespace {

/// Shape and buffers of the small tuned-NN problem used throughout
/// (the paper's BR=6 register-blocked SGEMM).
struct NNProblem {
  Kernel K;
  LaunchConfig Launch;
  size_t MemBytes = 0;
};

constexpr int ProblemM = 192, ProblemN = 192, ProblemK = 64;

/// Builds the BR=6 tuned NN kernel and its launch shape on \p M.
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
  uint32_t AAddr = 256;
  uint32_t BAddr = AAddr + static_cast<uint32_t>(Round256(ABytes));
  uint32_t CAddr = BAddr + static_cast<uint32_t>(Round256(BBytes));
  P.MemBytes = Round256(ABytes) + Round256(BBytes) + CBytes + 512;

  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  P.Launch.Dims.GridX = Shape.GridX;
  P.Launch.Dims.GridY = Shape.GridY;
  P.Launch.Dims.BlockX = Shape.BlockX;
  P.Launch.Params = {AAddr, BAddr, CAddr, 0x3f800000u /*alpha=1*/,
                     0u /*beta=0*/};
  P.Launch.Mode = SimMode::Full;
  return P;
}

/// Launches the problem with profiling on at \p Jobs; returns the
/// profile (and the run result through \p ResultOut when non-null).
KernelProfile runProfiled(const MachineDesc &M, const Kernel &K,
                          LaunchConfig Launch, size_t MemBytes,
                          int Jobs, LaunchResult *ResultOut = nullptr) {
  KernelProfile Profile;
  Launch.Jobs = Jobs;
  Launch.Profile = &Profile;
  GlobalMemory GM(MemBytes);
  auto R = launchKernel(M, K, Launch, GM);
  EXPECT_TRUE(R.hasValue()) << R.message();
  if (ResultOut && R.hasValue())
    *ResultOut = *R;
  return Profile;
}

KernelProfile runProfiledNN(const MachineDesc &M, int Jobs,
                            LaunchResult *ResultOut = nullptr) {
  NNProblem P = makeTunedNN(M);
  return runProfiled(M, P.K, P.Launch, P.MemBytes, Jobs, ResultOut);
}

//===----------------------------------------------------------------------===//
// (a) The per-PC profile is bit-identical for every Jobs value.
//===----------------------------------------------------------------------===//

TEST(Profile, BitIdenticalAcrossJobsKepler) {
  const MachineDesc &M = gtx680();
  KernelProfile J1 = runProfiledNN(M, 1);
  KernelProfile J4 = runProfiledNN(M, 4);
  ASSERT_EQ(J1.codeSize(), J4.codeSize());
  for (size_t PC = 0; PC < J1.codeSize(); ++PC)
    ASSERT_TRUE(J1.at(PC) == J4.at(PC)) << "PC " << PC;
  EXPECT_TRUE(J1 == J4);
}

TEST(Profile, BitIdenticalAcrossJobsFermi) {
  const MachineDesc &M = gtx580();
  KernelProfile J1 = runProfiledNN(M, 1);
  KernelProfile J4 = runProfiledNN(M, 4);
  EXPECT_TRUE(J1 == J4);
}

//===----------------------------------------------------------------------===//
// (b) Summing per-cause stall slots over every PC (plus the NoPC
// bucket) reproduces the launch's StallBreakdown exactly -- no slot is
// lost or double-counted by the attribution.
//===----------------------------------------------------------------------===//

TEST(Profile, PerPCStallsSumToBreakdown) {
  const MachineDesc &M = gtx680();
  LaunchResult R;
  KernelProfile P = runProfiledNN(M, 0, &R);

  StallBreakdown FromPCs = P.breakdown();
  const StallBreakdown &FromSim = R.Stats.Breakdown;
  for (size_t U = 0; U < NumSlotUses; ++U)
    EXPECT_EQ(FromPCs.Slots[U], FromSim.Slots[U])
        << slotUseName(static_cast<SlotUse>(U));
  EXPECT_EQ(FromPCs.total(), FromSim.total());

  // Kepler dual-issue pairs share one slot: issued slots must equal
  // warp instructions minus pair seconds, and the kernel must actually
  // dual-issue for the identity to bite.
  EXPECT_GT(P.totalDualIssues(), 0u);
  EXPECT_EQ(FromPCs[SlotUse::Issued],
            P.totalIssues() - P.totalDualIssues());
}

TEST(Profile, BreakdownIdentityHoldsOnFermi) {
  const MachineDesc &M = gtx580();
  LaunchResult R;
  KernelProfile P = runProfiledNN(M, 0, &R);
  StallBreakdown FromPCs = P.breakdown();
  for (size_t U = 0; U < NumSlotUses; ++U)
    EXPECT_EQ(FromPCs.Slots[U], R.Stats.Breakdown.Slots[U])
        << slotUseName(static_cast<SlotUse>(U));
  // Fermi never dual-issues: every warp instruction owns a slot.
  EXPECT_EQ(P.totalDualIssues(), 0u);
  EXPECT_EQ(FromPCs[SlotUse::Issued], P.totalIssues());
}

//===----------------------------------------------------------------------===//
// Hot-region detection and the annotated report.
//===----------------------------------------------------------------------===//

/// The region carrying the most issue slots (the main loop).
const HotRegion *mainRegion(const std::vector<HotRegion> &Regions) {
  const HotRegion *Best = nullptr;
  for (const HotRegion &R : Regions)
    if (!Best || R.totalSlots() > Best->totalSlots())
      Best = &R;
  return Best;
}

TEST(Profile, FindsMainLoopRegion) {
  const MachineDesc &M = gtx680();
  NNProblem P = makeTunedNN(M);
  KernelProfile Prof =
      runProfiled(M, P.K, P.Launch, P.MemBytes, 0);
  std::vector<HotRegion> Regions = findHotRegions(P.K, Prof);
  ASSERT_FALSE(Regions.empty());
  const HotRegion *Main = mainRegion(Regions);
  ASSERT_NE(Main, nullptr);
  // The K-loop is the single hottest region of this kernel (at this
  // small problem size the prologue/epilogue still carry real weight),
  // and it is FFMA-dense.
  StallBreakdown B = Prof.breakdown();
  EXPECT_GT(Main->totalSlots(), B.total() / 5);
  for (const HotRegion &R : Regions)
    EXPECT_LE(R.totalSlots(), Main->totalSlots());
  uint64_t Ffma = 0;
  for (int PC = Main->Begin; PC <= Main->End; ++PC)
    if (P.K.Code[PC].Op == Opcode::FFMA)
      ++Ffma;
  EXPECT_GT(Ffma, 0u);
}

TEST(Profile, AnnotatedReportRendersEveryPC) {
  const MachineDesc &M = gtx680();
  NNProblem P = makeTunedNN(M);
  KernelProfile Prof =
      runProfiled(M, P.K, P.Launch, P.MemBytes, 0);
  std::string Report = renderAnnotatedReport(M, P.K, Prof);
  EXPECT_NE(Report.find("issue slots:"), std::string::npos);
  EXPECT_NE(Report.find("loop "), std::string::npos);
  EXPECT_NE(Report.find("achieved/bound FFMA density:"),
            std::string::npos);
  // One row per static instruction.
  size_t Rows = 0;
  for (size_t PC = 0; PC < P.K.Code.size(); ++PC)
    if (Report.find(formatString("  %5zu ", PC)) != std::string::npos)
      ++Rows;
  EXPECT_EQ(Rows, P.K.Code.size());
}

//===----------------------------------------------------------------------===//
// (d) The list scheduler shrinks the main loop's bank_conflict +
// dispatch_limit share relative to the drip schedule.
//===----------------------------------------------------------------------===//

TEST(Profile, ListScheduleShrinksMainLoopConflictShare) {
  const MachineDesc &M = gtx680();
  NNProblem Drip = makeTunedNN(M);

  NNProblem List = makeTunedNN(M);
  rotateRegisterBanks(M, List.K);
  scheduleKernel(M, List.K);

  KernelProfile DripProf =
      runProfiled(M, Drip.K, Drip.Launch, Drip.MemBytes, 0);
  KernelProfile ListProf =
      runProfiled(M, List.K, List.Launch, List.MemBytes, 0);

  auto MainConflictShare = [](const Kernel &K, const KernelProfile &P) {
    std::vector<HotRegion> Regions = findHotRegions(K, P);
    const HotRegion *Main = mainRegion(Regions);
    EXPECT_NE(Main, nullptr);
    return Main->slotShare(SlotUse::RegBankConflict) +
           Main->slotShare(SlotUse::DispatchLimit);
  };
  double DripShare = MainConflictShare(Drip.K, DripProf);
  double ListShare = MainConflictShare(List.K, ListProf);
  EXPECT_LT(ListShare, DripShare);
}

//===----------------------------------------------------------------------===//
// The JSON record: structurally valid, versioned, and carrying the
// same totals as the in-memory profile.
//===----------------------------------------------------------------------===//

TEST(Profile, RecordJsonIsValidAndVersioned) {
  const MachineDesc &M = gtx680();
  NNProblem P = makeTunedNN(M);
  LaunchResult R;
  KernelProfile Prof =
      runProfiled(M, P.K, P.Launch, P.MemBytes, 0, &R);
  ProfileRecordInfo Info;
  Info.Schedule = "drip";
  Info.GridX = P.Launch.Dims.GridX;
  Info.GridY = P.Launch.Dims.GridY;
  Info.BlockX = P.Launch.Dims.BlockX;
  Info.BlockY = P.Launch.Dims.BlockY;
  Info.TotalCycles = R.TotalCycles;
  std::string Json = profileRecordJson(M, P.K, Prof, Info);

  auto V = jsonParse(Json);
  ASSERT_TRUE(V.hasValue()) << V.message();
  const JsonValue *Schema = V->find("schema_version");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Number, MetricsSchemaVersion);
  const JsonValue *Record = V->find("record");
  ASSERT_NE(Record, nullptr);
  EXPECT_EQ(Record->Str, "profile");
  const JsonValue *Machine = V->find("machine");
  ASSERT_NE(Machine, nullptr);
  EXPECT_EQ(Machine->Str, M.Name);
  const JsonValue *Pcs = V->find("pcs");
  ASSERT_NE(Pcs, nullptr);
  ASSERT_TRUE(Pcs->isArray());
  EXPECT_EQ(Pcs->Items.size(), P.K.Code.size());
  const JsonValue *Totals = V->find("totals");
  ASSERT_NE(Totals, nullptr);
  const JsonValue *WarpInsts = Totals->find("warp_insts");
  ASSERT_NE(WarpInsts, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(WarpInsts->Number),
            Prof.totalIssues());
  const JsonValue *Regions = V->find("regions");
  ASSERT_NE(Regions, nullptr);
  EXPECT_FALSE(Regions->Items.empty());
}

//===----------------------------------------------------------------------===//
// (c) perfdiff: exit 0 on identical records, non-zero on an injected
// cycle regression, 2 on schema/machine refusals.
//===----------------------------------------------------------------------===//

#ifdef GPUPERF_PERFDIFF_PATH

int runCommand(const std::string &Cmd, std::string *Out) {
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
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

class PerfDiff : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir();
    Baseline = Dir + "gpuperf_perfdiff_base.json";
    writeRecord(Baseline, 1, "GTX680", 1000.0);
  }

  void TearDown() override {
    std::remove(Baseline.c_str());
    for (const std::string &P : Extra)
      std::remove(P.c_str());
  }

  /// Writes a minimal versioned record with the given cycle count.
  void writeRecord(const std::string &Path, int Schema,
                   const std::string &Machine, double Cycles) {
    JsonWriter W;
    W.beginObject();
    W.kv("schema_version", Schema);
    W.kv("record", "profile");
    W.kv("machine", Machine);
    W.key("cycles");
    W.value(Cycles, 1);
    W.kv("jobs", 4); // Ignored key: may differ freely.
    W.endObject();
    std::ofstream(Path) << W.str();
  }

  std::string path(const std::string &Name) {
    std::string P = Dir + Name;
    Extra.push_back(P);
    return P;
  }

  std::string diff(const std::string &Current,
                   const std::string &Flags, int *RC) {
    std::string Out;
    *RC = runCommand(formatString("%s %s %s %s", GPUPERF_PERFDIFF_PATH,
                                  Flags.c_str(), Baseline.c_str(),
                                  Current.c_str()),
                     &Out);
    return Out;
  }

  std::string Dir, Baseline;
  std::vector<std::string> Extra;
};

TEST_F(PerfDiff, IdenticalRecordsExitZero) {
  std::string Same = path("gpuperf_perfdiff_same.json");
  writeRecord(Same, 1, "GTX680", 1000.0);
  int RC = -1;
  std::string Out = diff(Same, "", &RC);
  EXPECT_EQ(RC, 0) << Out;
}

TEST_F(PerfDiff, IgnoredKeysMayDiffer) {
  // Same cycles, different jobs value: still identical.
  std::string Same = path("gpuperf_perfdiff_jobs.json");
  JsonWriter W;
  W.beginObject();
  W.kv("schema_version", 1);
  W.kv("record", "profile");
  W.kv("machine", "GTX680");
  W.key("cycles");
  W.value(1000.0, 1);
  W.kv("jobs", 1);
  W.endObject();
  std::ofstream(Same) << W.str();
  int RC = -1;
  std::string Out = diff(Same, "", &RC);
  EXPECT_EQ(RC, 0) << Out;
}

TEST_F(PerfDiff, CycleRegressionBeyondToleranceExitsOne) {
  std::string Worse = path("gpuperf_perfdiff_worse.json");
  writeRecord(Worse, 1, "GTX680", 1100.0); // +10%
  int RC = -1;
  std::string Out = diff(Worse, "", &RC);
  EXPECT_EQ(RC, 1) << Out;
  EXPECT_NE(Out.find("cycles"), std::string::npos);
}

TEST_F(PerfDiff, SchemaMismatchIsRefusedExitTwo) {
  std::string Other = path("gpuperf_perfdiff_schema.json");
  writeRecord(Other, 2, "GTX680", 1000.0);
  int RC = -1;
  std::string Out = diff(Other, "", &RC);
  EXPECT_EQ(RC, 2) << Out;
  EXPECT_NE(Out.find("schema_version"), std::string::npos);
}

TEST_F(PerfDiff, MachineMismatchIsRefusedExitTwo) {
  std::string Other = path("gpuperf_perfdiff_machine.json");
  writeRecord(Other, 1, "GTX580", 1000.0);
  int RC = -1;
  std::string Out = diff(Other, "", &RC);
  EXPECT_EQ(RC, 2) << Out;
  EXPECT_NE(Out.find("machine"), std::string::npos);
}

#endif // GPUPERF_PERFDIFF_PATH

} // namespace
