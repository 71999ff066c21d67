//===- tests/ParallelSimTest.cpp - parallel == serial, bit for bit --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel execution layer's contract: LaunchConfig::Jobs changes
/// wall-clock time only. For every job count, a full simulation must
/// produce the same cycles, the same statistics, the same global-memory
/// image, and -- when a mutant traps -- the same trap with the same
/// partial side effects the serial path leaves behind. These tests pin
/// that equivalence on both architectures and on the fault-injection
/// batch API.
///
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "probe/ProbeEngine.h"
#include "sim/FaultInjector.h"
#include "sim/Launcher.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace gpuperf;

namespace {

uint64_t hashMemory(const GlobalMemory &GM) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (size_t Addr = 0; Addr + 4 <= GM.size(); Addr += 4) {
    uint32_t W = GM.load32(static_cast<uint32_t>(Addr));
    for (int I = 0; I < 4; ++I) {
      Hash ^= (W >> (8 * I)) & 0xff;
      Hash *= 0x100000001b3ull;
    }
  }
  return Hash;
}

/// Everything observable about one full-simulation launch.
struct FullRun {
  bool Ok = false;
  std::string Error;
  TrapInfo Trap;
  LaunchResult R;
  uint64_t MemHash = 0;
  /// Filled only when the launch ran with observation on.
  SimTrace Trace;
  KernelProfile Profile;
  std::string ProbeReport;
};

/// One probe per event kind the simulator fires, so every firing site
/// feeds the observed launch.
const char *ObserveSpecText =
    "probe pc_issues { event inst_issued; aggregation count; key pc }\n"
    "probe lanes { event inst_issued; aggregation sum; value lanes }\n"
    "probe gbytes { event mem_access; aggregation sum; value bytes; "
    "key space }\n"
    "probe replays { event replay; aggregation count }\n"
    "probe conflicts { event bank_conflict; aggregation count }\n"
    "probe lost { event slot_lost; aggregation sum; value slots; "
    "key cause }\n"
    "probe blocks { event block_scheduled; aggregation count }\n"
    "probe drains { event block_drained; aggregation count }\n"
    "probe warp_work { event warp_exit; aggregation sum; value insts }\n"
    "probe last_pc0 { event inst_issued; aggregation max; value cycle; "
    "filter pc == 0 }\n";

/// Runs the tuned NN kernel on a 192x192x64 problem (a multi-SM,
/// multi-wave launch on both machines) with RNG-filled matrices,
/// entirely full-sim, at \p Jobs. \p Observe attaches a trace, a
/// profile and ObserveSpecText's probes.
FullRun runTunedNN(const MachineDesc &M, int Jobs,
                   uint64_t WatchdogCycles = 0, bool Observe = false) {
  FullRun Out;
  SgemmKernelConfig Cfg = baselineConfig(SgemmImpl::AsmTuned, M,
                                         GemmVariant::NN, 192, 192, 64);
  auto K = generateSgemmKernel(M, Cfg);
  if (!K.hasValue()) {
    Out.Error = K.message();
    return Out;
  }

  GlobalMemory GM(0);
  auto AAddr = GM.tryAllocate(size_t(192) * 64 * 4);
  auto BAddr = GM.tryAllocate(size_t(64) * 192 * 4);
  auto CAddr = GM.tryAllocate(size_t(192) * 192 * 4);
  EXPECT_TRUE(AAddr.hasValue() && BAddr.hasValue() && CAddr.hasValue());
  Rng R(42);
  for (uint32_t W = 0; W < 192 * 64; ++W)
    GM.storeFloat(*AAddr + 4 * W, R.nextUnitFloat());
  for (uint32_t W = 0; W < 64 * 192; ++W)
    GM.storeFloat(*BAddr + 4 * W, R.nextUnitFloat());

  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  LaunchConfig Launch;
  Launch.Dims.GridX = Shape.GridX;
  Launch.Dims.GridY = Shape.GridY;
  Launch.Dims.BlockX = Shape.BlockX;
  Launch.Params = {*AAddr, *BAddr, *CAddr, 0x3f800000u /*alpha=1*/,
                   0u /*beta=0*/};
  Launch.Mode = SimMode::Full;
  Launch.WatchdogCycles = WatchdogCycles;
  Launch.Jobs = Jobs;
  ProbeEngine Probes;
  if (Observe) {
    auto Specs = parseProbeSpecs(ObserveSpecText, "<observe>");
    EXPECT_TRUE(Specs.hasValue()) << Specs.message();
    if (Specs.hasValue())
      Probes = ProbeEngine(Specs.take());
    Launch.Trace = &Out.Trace;
    Launch.Profile = &Out.Profile;
    Launch.Probes = &Probes;
  }

  auto LR = launchKernel(M, K.take(), Launch, GM, &Out.Trap);
  if (LR.hasValue()) {
    Out.Ok = true;
    Out.R = *LR;
  } else {
    Out.Error = LR.message();
  }
  Out.MemHash = hashMemory(GM);
  Out.ProbeReport = Probes.report();
  return Out;
}

void expectIdentical(const FullRun &A, const FullRun &B, int Jobs) {
  SCOPED_TRACE("jobs=" + std::to_string(Jobs));
  ASSERT_EQ(A.Ok, B.Ok) << A.Error << " vs " << B.Error;
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Trap.valid(), B.Trap.valid());
  if (A.Trap.valid()) {
    EXPECT_EQ(A.Trap.toString(), B.Trap.toString());
  }
  EXPECT_EQ(A.MemHash, B.MemHash);
  // Observation follows the memory image's rule on every path: a
  // trapping SM's partial trace, profile and probes are kept.
  EXPECT_EQ(A.Trace.Events.size(), B.Trace.Events.size());
  EXPECT_TRUE(A.Trace.Events == B.Trace.Events);
  EXPECT_EQ(A.Trace.DroppedEvents, B.Trace.DroppedEvents);
  EXPECT_TRUE(A.Profile == B.Profile);
  EXPECT_EQ(A.ProbeReport, B.ProbeReport);
  if (!A.Ok)
    return;
  EXPECT_EQ(A.R.TotalCycles, B.R.TotalCycles);
  EXPECT_EQ(A.R.WavesSimulated, B.R.WavesSimulated);
  EXPECT_EQ(A.R.WavesTotal, B.R.WavesTotal);
  EXPECT_EQ(A.R.Occ.ActiveBlocks, B.R.Occ.ActiveBlocks);
  EXPECT_EQ(A.R.Stats.Cycles, B.R.Stats.Cycles);
  EXPECT_EQ(A.R.Stats.WarpInstsIssued, B.R.Stats.WarpInstsIssued);
  EXPECT_EQ(A.R.Stats.ThreadInstsIssued, B.R.Stats.ThreadInstsIssued);
  EXPECT_EQ(A.R.Stats.ffmaThreadInsts(), B.R.Stats.ffmaThreadInsts());
  EXPECT_EQ(A.R.Stats.GlobalBytes, B.R.Stats.GlobalBytes);
  EXPECT_EQ(A.R.Stats.GlobalTransactions, B.R.Stats.GlobalTransactions);
  EXPECT_EQ(A.R.Stats.ReplayPenalties, B.R.Stats.ReplayPenalties);
  EXPECT_EQ(A.R.Stats.SharedConflictEvents,
            B.R.Stats.SharedConflictEvents);
  EXPECT_EQ(A.R.Stats.BarrierWaits, B.R.Stats.BarrierWaits);
  EXPECT_EQ(A.R.Stats.IdleCycles, B.R.Stats.IdleCycles);
  EXPECT_EQ(A.R.Stats.DualIssues, B.R.Stats.DualIssues);
  EXPECT_EQ(A.R.Stats.AggregateCycles, B.R.Stats.AggregateCycles);
  for (size_t U = 0; U < NumSlotUses; ++U)
    EXPECT_EQ(A.R.Stats.Breakdown.Slots[U], B.R.Stats.Breakdown.Slots[U])
        << "slot cause " << slotUseName(static_cast<SlotUse>(U));
}

/// The issue-slot accounting identity: every cycle, every scheduler,
/// exactly one cause. Checked against AggregateCycles (which sums under
/// the concurrent merge) rather than Cycles (which max-merges).
void expectIssueSlotInvariant(const MachineDesc &M, const SimStats &S) {
  uint64_t Scheds =
      static_cast<uint64_t>(M.WarpSchedulersPerSM > 1
                                ? M.WarpSchedulersPerSM
                                : 1);
  EXPECT_EQ(S.Breakdown.total(), S.AggregateCycles * Scheds);
  EXPECT_GT(S.Breakdown.slots(SlotUse::Issued), 0u);
}

TEST(ParallelSim, FermiFullSimBitIdenticalAcrossJobs) {
  FullRun Serial = runTunedNN(gtx580(), 1);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  EXPECT_GT(Serial.R.WavesSimulated, 1) << "want a multi-wave launch";
  for (int Jobs : {2, 8, 0})
    expectIdentical(Serial, runTunedNN(gtx580(), Jobs), Jobs);
}

TEST(ParallelSim, KeplerFullSimBitIdenticalAcrossJobs) {
  FullRun Serial = runTunedNN(gtx680(), 1);
  ASSERT_TRUE(Serial.Ok) << Serial.Error;
  for (int Jobs : {8})
    expectIdentical(Serial, runTunedNN(gtx680(), Jobs), Jobs);
}

TEST(ParallelSim, IssueSlotBreakdownInvariantAndJobsIdentical) {
  // The acceptance property of the stall-attribution layer on the
  // paper's headline workload (BR=6 Kepler SGEMM): per-cause slots sum
  // to aggregate SM-cycles x schedulers, and the whole breakdown is
  // bit-identical for --jobs 1 and --jobs 4. Fermi checked too, where
  // schedulers=2 exercises the multi-scheduler accounting differently.
  for (const MachineDesc *M : {&gtx680(), &gtx580()}) {
    FullRun J1 = runTunedNN(*M, 1);
    FullRun J4 = runTunedNN(*M, 4);
    ASSERT_TRUE(J1.Ok) << J1.Error;
    ASSERT_TRUE(J4.Ok) << J4.Error;
    SCOPED_TRACE(M->Name);
    expectIssueSlotInvariant(*M, J1.R.Stats);
    expectIdentical(J1, J4, 4);
  }
}

TEST(ParallelSim, WatchdogTrapIdenticalAcrossJobs) {
  // A tiny watchdog makes the launch fail mid-grid. The parallel path
  // must report the same trap as the serial path AND leave the same
  // partial writes in memory (the work of SMs before the failing one,
  // plus the failing SM's completed portion).
  // The trace, profile and probes the trapping launch leaves behind
  // must match as well.
  FullRun Serial = runTunedNN(gtx580(), 1, /*WatchdogCycles=*/2000,
                              /*Observe=*/true);
  ASSERT_FALSE(Serial.Ok);
  ASSERT_TRUE(Serial.Trap.valid()) << Serial.Error;
  EXPECT_EQ(Serial.Trap.Kind, TrapKind::WatchdogTimeout);
  EXPECT_FALSE(Serial.Trace.Events.empty());
  EXPECT_GT(Serial.Profile.totalIssues(), 0u);
  EXPECT_NE(Serial.ProbeReport.find("probe pc_issues"), std::string::npos);
  for (int Jobs : {2, 8})
    expectIdentical(Serial, runTunedNN(gtx580(), Jobs, 2000, true), Jobs);
}

//===----------------------------------------------------------------------===//
// FaultInjector batch parallelism
//===----------------------------------------------------------------------===//

/// The FaultInjectionTest fixture's target, reduced: mutants of the
/// tuned Fermi kernel, parallelized per-mutant by runBatch.
class ParallelFaultBatch : public ::testing::Test {
protected:
  void SetUp() override {
    const MachineDesc &M = gtx580();
    SgemmKernelConfig Cfg = baselineConfig(SgemmImpl::AsmTuned, M,
                                           GemmVariant::NN, 192, 192, 64);
    auto K = generateSgemmKernel(M, Cfg);
    ASSERT_TRUE(K.hasValue()) << K.message();

    Module Mod;
    Mod.Arch = GpuGeneration::Fermi;
    Mod.Kernels.push_back(K.take());

    GlobalMemory Layout(0);
    auto AAddr = Layout.tryAllocate(size_t(192) * 64 * 4);
    auto BAddr = Layout.tryAllocate(size_t(64) * 192 * 4);
    auto CAddr = Layout.tryAllocate(size_t(192) * 192 * 4);
    ASSERT_TRUE(AAddr.hasValue() && BAddr.hasValue() &&
                CAddr.hasValue());

    SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
    LaunchConfig Launch;
    Launch.Dims.GridX = Shape.GridX;
    Launch.Dims.GridY = Shape.GridY;
    Launch.Dims.BlockX = Shape.BlockX;
    Launch.Params = {*AAddr, *BAddr, *CAddr, 0x3f800000u, 0u};
    Launch.Mode = SimMode::Full;

    FI.emplace(M, std::move(Mod), Launch, Layout.size());
  }

  std::optional<FaultInjector> FI;
};

TEST_F(ParallelFaultBatch, BatchSignaturesMatchSequentialAtEveryJobs) {
  std::vector<FaultPlan> Plans;
  for (FaultKind Kind :
       {FaultKind::CodeBitFlip, FaultKind::BranchRetarget,
        FaultKind::SharedShrink, FaultKind::AddressScramble})
    for (uint64_t Seed = 0; Seed < 3; ++Seed)
      Plans.push_back({Kind, Seed, 1});

  std::vector<std::string> Expected;
  for (const FaultPlan &P : Plans)
    Expected.push_back(FI->runOne(P).signature());

  for (int Jobs : {1, 8}) {
    auto Runs = FI->runBatch(Plans, Jobs);
    ASSERT_EQ(Runs.size(), Plans.size());
    for (size_t I = 0; I < Runs.size(); ++I)
      EXPECT_EQ(Runs[I].signature(), Expected[I])
          << "plan " << I << " (" << faultKindName(Plans[I].Kind)
          << " seed " << Plans[I].Seed << ") jobs " << Jobs;
  }
}

} // namespace
