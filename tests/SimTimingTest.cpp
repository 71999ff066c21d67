//===- tests/SimTimingTest.cpp - timing-model calibration tests -----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies that the simulator reproduces the paper's measured throughput
/// numbers: the Fermi 32-inst/cycle issue ceiling, the Section 4.1 LDS.X
/// throughputs, the Kepler ~132 ceiling with the Table 2 register-bank
/// effects, the ~178 repeated-operand fast path, and the qualitative
/// effects (dependence sensitivity, control-notation quality, shared
/// memory bank conflicts, global coalescing).
///
//===----------------------------------------------------------------------===//

#include "asmtool/Assembler.h"
#include "asmtool/NotationTuner.h"
#include "sim/Timing.h"
#include "support/Format.h"
#include "support/LittleEndian.h"
#include "sim/Launcher.h"
#include "sim/Profile.h"
#include "ubench/MixBench.h"
#include "ubench/OpPattern.h"
#include "ubench/PerfDatabase.h"

#include <gtest/gtest.h>

using namespace gpuperf;

namespace {

double measureMix(const MachineDesc &M, int Ratio, MemWidth W,
                  bool Dependent) {
  MixBenchParams P;
  P.FfmaPerLds = Ratio;
  P.Width = W;
  P.Dependent = Dependent;
  Kernel K = generateMixBench(M, P);
  return measureThroughput(M, K);
}

double measurePattern(const MachineDesc &M, const Instruction &Pattern) {
  Kernel K = generateOpPatternBench(M, Pattern);
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 1024;
  Cfg.BlocksPerSM = 1;
  return measureThroughput(M, K, Cfg);
}

} // namespace

// --- Fermi ceilings (Table 1, Section 4.1) -----------------------------------

TEST(FermiTiming, PureFfmaReaches32PerCycle) {
  double T = measureMix(gtx580(), -1, MemWidth::B64, false);
  EXPECT_NEAR(T, 32.0, 1.5);
}

TEST(FermiTiming, PureLdsThroughputs) {
  // Section 4.1: LDS peaks at 16 thread insts/cycle; LDS.64 at 8 (the
  // data rate does not improve); LDS.128 at only 2.
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B32, false), 16.0, 1.0);
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B64, false), 8.0, 0.6);
  EXPECT_NEAR(measureMix(gtx580(), 0, MemWidth::B128, false), 2.0, 0.3);
}

TEST(FermiTiming, MixedRatiosApproachIssueCeiling) {
  // Figure 2 top: LDS saturates by ratio 3, LDS.64 by ratio 6; LDS.128
  // at ratio 12 is still LDST-pipe bound near 2*(12+1) = 26.
  double Lds3 = measureMix(gtx580(), 3, MemWidth::B32, false);
  double Lds64R6 = measureMix(gtx580(), 6, MemWidth::B64, false);
  double Lds128R12 = measureMix(gtx580(), 12, MemWidth::B128, false);
  EXPECT_NEAR(Lds3, 31.3, 1.5);
  EXPECT_NEAR(Lds64R6, 30.4, 2.0);
  EXPECT_NEAR(Lds128R12, 24.5, 2.5);
}

TEST(FermiTiming, DependentMixSaturatesByMidOccupancy) {
  // Figure 4 top: the dependent 6:1 mix is near-peak from 512 threads.
  PerfDatabase DB(gtx580());
  double At128 = DB.mixThroughput(6, MemWidth::B64, true, 128);
  double At512 = DB.mixThroughput(6, MemWidth::B64, true, 512);
  double At1024 = DB.mixThroughput(6, MemWidth::B64, true, 1024);
  EXPECT_LT(At128, 0.8 * At512);
  EXPECT_GT(At512, 28.0);
  EXPECT_GE(At1024, At512 - 1.0);
}

// --- Kepler ceilings (Section 3.3, Table 2) -----------------------------------

TEST(KeplerTiming, FfmaCeilingIs132NotSPCount) {
  double T = measureMix(gtx680(), -1, MemWidth::B64, false);
  EXPECT_NEAR(T, 132.0, 5.0);
  // Far below the 192-SP processing throughput: the paper's core finding.
  EXPECT_LT(T, 140.0);
}

TEST(KeplerTiming, PureLds64Throughput) {
  EXPECT_NEAR(measureMix(gtx680(), 0, MemWidth::B64, false), 33.1, 1.5);
}

TEST(KeplerTiming, RepeatedOperandFastPath) {
  // "FFMA RA, RB, RB, RA ... can approach around 178" (Section 3.3).
  // R3 (odd0) and R4 (even1) are on different banks.
  double T = measurePattern(gtx680(), makeFFMA(4, 3, 3, 4));
  EXPECT_NEAR(T, 178.0, 8.0);
}

TEST(KeplerTiming, DependenceNeedsMoreThreadsThanFermi) {
  // Figure 4 bottom: with fewer than 1024 active threads Kepler is very
  // sensitive to the LDS->FFMA dependence.
  PerfDatabase DB(gtx680());
  double At512 = DB.mixThroughput(6, MemWidth::B64, true, 512);
  double At2048 = DB.mixThroughput(6, MemWidth::B64, true, 2048);
  EXPECT_LT(At512, 0.75 * At2048);
  EXPECT_GT(At2048, 110.0);
}

TEST(KeplerTiming, NoNotationIsVeryPoor) {
  // Section 3.2: without the control words the binary runs, but slowly.
  MixBenchParams P;
  P.FfmaPerLds = -1;
  P.Notation = NotationQuality::None;
  double None = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Tuned;
  double Tuned =
      measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  EXPECT_LT(None, 0.4 * Tuned);
}

TEST(KeplerTiming, HeuristicNotationBetweenNoneAndTuned) {
  MixBenchParams P;
  P.FfmaPerLds = 6;
  P.Dependent = true;
  P.Notation = NotationQuality::None;
  double None = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Heuristic;
  double Heur = measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  P.Notation = NotationQuality::Tuned;
  double Tuned =
      measureThroughput(gtx680(), generateMixBench(gtx680(), P));
  EXPECT_LT(None, Heur);
  EXPECT_LE(Heur, Tuned * 1.02);
}

// --- Table 2 (parameterized over all patterns) ----------------------------------

class Table2Test : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Test, MatchesPaperThroughput) {
  const Table2Row &Row = GetParam();
  double T = measurePattern(gtx680(), Row.Pattern);
  // Within 6% of the paper's measured value.
  EXPECT_NEAR(T, Row.PaperThroughput, 0.06 * Row.PaperThroughput)
      << Row.Syntax;
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, Table2Test, ::testing::ValuesIn(table2Patterns()),
    [](const ::testing::TestParamInfo<Table2Row> &Info) {
      std::string Name = Info.param.Syntax;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

// --- Shared-memory bank conflicts ---------------------------------------------

namespace {

uint64_t cyclesFor(const MachineDesc &M, const std::string &Body,
                   int Threads, int SharedBytes) {
  auto Mod = assembleKernelBody(M.Generation, Body, SharedBytes);
  EXPECT_TRUE(Mod.hasValue()) << (Mod.hasValue() ? "" : Mod.message());
  Kernel *K = Mod->findKernel("k");
  if (M.Generation == GpuGeneration::Kepler)
    tuneNotations(M, *K, NotationQuality::Tuned);
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = Threads;
  Config.Dims.GridX = 1;
  auto R = launchKernel(M, *K, Config, GM);
  EXPECT_TRUE(R.hasValue()) << (R.hasValue() ? "" : R.message());
  return R->Stats.Cycles;
}

std::string ldsStrideBody(int StrideBytes, int Repeats) {
  // addr = (tid * Stride) % 4096; repeated loads, destinations rotated so
  // write-after-write dependences do not serialize the pipe measurement.
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  IMUL R1, R0, %d\n"
                                  "  LOP.AND R1, R1, 4095\n",
                                  StrideBytes);
  for (int I = 0; I < Repeats; ++I)
    Body += formatString("  LDS R%d, [R1]\n", 4 + 2 * (I % 8));
  Body += "  EXIT\n";
  return Body;
}

} // namespace

TEST(SharedBankConflicts, StridedAccessSerializesOnFermi) {
  // Stride 4 bytes: conflict-free. Stride 128: all 32 lanes hit the same
  // bank -> 32-way serialization.
  uint64_t Sequential =
      cyclesFor(gtx580(), ldsStrideBody(4, 64), 256, 4096);
  uint64_t Conflicted =
      cyclesFor(gtx580(), ldsStrideBody(128, 64), 256, 4096);
  EXPECT_GT(Conflicted, 10 * Sequential);
}

TEST(SharedBankConflicts, CountedInStats) {
  auto Mod = assembleKernelBody(GpuGeneration::Fermi,
                                ldsStrideBody(128, 8), 4096);
  ASSERT_TRUE(Mod.hasValue());
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = 32;
  auto R = launchKernel(gtx580(), *Mod->findKernel("k"), Config, GM);
  ASSERT_TRUE(R.hasValue());
  EXPECT_GE(R->Stats.SharedConflictEvents, 8u);
}

TEST(SharedBankConflicts, KeplerWideBanksForgiveLds64) {
  // On Kepler's 8-byte banks a sequential LDS.64 pattern is conflict-free.
  std::string Body = "  S2R R0, SR_TID.X\n"
                     "  SHL R1, R0, 3\n";
  for (int I = 0; I < 32; ++I)
    Body += "  LDS.64 R4, [R1]\n";
  Body += "  EXIT\n";
  auto Mod = assembleKernelBody(GpuGeneration::Kepler, Body, 4096);
  ASSERT_TRUE(Mod.hasValue());
  Kernel *K = Mod->findKernel("k");
  tuneNotations(gtx680(), *K, NotationQuality::Tuned);
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = 32;
  auto R = launchKernel(gtx680(), *K, Config, GM);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Stats.SharedConflictEvents, 0u);
}

// --- Global-memory coalescing -----------------------------------------------------

TEST(GlobalCoalescing, SequentialWarpLoadIsOneTransaction) {
  GlobalMemory GM(1 << 20);
  std::string Body = "  S2R R0, SR_TID.X\n"
                     "  SHL R1, R0, 2\n"
                     "  IADD R1, R1, 512\n"
                     "  LD R4, [R1]\n"
                     "  EXIT\n";
  auto Mod = assembleKernelBody(GpuGeneration::Fermi, Body, 0);
  ASSERT_TRUE(Mod.hasValue());
  LaunchConfig Config;
  Config.Dims.BlockX = 32;
  auto R = launchKernel(gtx580(), *Mod->findKernel("k"), Config, GM);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Stats.GlobalTransactions, 1u);
  EXPECT_EQ(R->Stats.GlobalBytes, 128u);
}

TEST(GlobalCoalescing, StridedWarpLoadIs32Transactions) {
  GlobalMemory GM(1 << 20);
  std::string Body = "  S2R R0, SR_TID.X\n"
                     "  SHL R1, R0, 7\n" // 128-byte stride
                     "  IADD R1, R1, 512\n"
                     "  LD R4, [R1]\n"
                     "  EXIT\n";
  auto Mod = assembleKernelBody(GpuGeneration::Fermi, Body, 0);
  ASSERT_TRUE(Mod.hasValue());
  LaunchConfig Config;
  Config.Dims.BlockX = 32;
  auto R = launchKernel(gtx580(), *Mod->findKernel("k"), Config, GM);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Stats.GlobalTransactions, 32u);
}

TEST(GlobalCoalescing, BandwidthBoundsStreamingKernel) {
  // A kernel that streams many loads cannot exceed the per-SM share of
  // the chip bandwidth.
  const MachineDesc &M = gtx580();
  std::string Body = "  S2R R0, SR_TID.X\n"
                     "  SHL R1, R0, 2\n";
  for (int I = 0; I < 64; ++I)
    Body += formatString("  LD R%d, [R1+%d]\n", 4 + (I % 8) * 2,
                         I * 4096);
  // Consume the loads so the kernel does not exit before the data (and
  // therefore the bandwidth cost) has fully arrived.
  for (int R = 0; R < 8; ++R)
    Body += formatString("  FADD R40, R40, R%d\n", 4 + R * 2);
  Body += "  EXIT\n";
  auto Mod = assembleKernelBody(GpuGeneration::Fermi, Body, 0);
  ASSERT_TRUE(Mod.hasValue()) << Mod.message();
  GlobalMemory GM(1 << 22);
  LaunchConfig Config;
  Config.Dims.BlockX = 512;
  auto R = launchKernel(M, *Mod->findKernel("k"), Config, GM);
  ASSERT_TRUE(R.hasValue()) << R.message();
  double Bytes = static_cast<double>(R->Stats.GlobalBytes);
  double BytesPerCycle = Bytes / R->Stats.Cycles;
  EXPECT_LE(BytesPerCycle, memBytesPerCyclePerSM(M) * 1.05);
}

// --- The tabulated per-instruction timing record -----------------------------

namespace {

/// Every opcode x width, with register sources and with an immediate,
/// plus the Section 3.3 operand patterns the bank rules distinguish.
std::vector<Instruction> timingRecordCases() {
  std::vector<Instruction> Cases;
  for (int Op = 0; Op < static_cast<int>(Opcode::NumOpcodes); ++Op)
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (bool Imm : {false, true}) {
        Instruction I;
        I.Op = static_cast<Opcode>(Op);
        I.Width = W;
        I.Dst = 8;
        I.Src[0] = 1;
        I.Src[1] = 4;
        I.Src[2] = 5;
        I.HasImm = Imm;
        I.Imm = 16;
        Cases.push_back(I);
      }
  Cases.push_back(makeFFMA(1, 0, 2, 5));   // 2-way: R0, R2 share even0.
  Cases.push_back(makeFFMA(1, 0, 2, 8));   // 3-way: R0, R2, R8 on even0.
  Cases.push_back(makeFFMA(4, 3, 3, 4));   // Repeated source.
  Cases.push_back(makeFFMA(10, 1, 4, 10)); // Accumulating.
  Cases.push_back(makeIMAD(1, 0, 2, 8));   // Quarter-rate, 3-way.
  return Cases;
}

} // namespace

TEST(TimingRecord, EqualsEachTimingFunction) {
  for (const MachineDesc *M : {&gt200(), &gtx580(), &gtx680(), &teslaK20X()})
    for (const Instruction &I : timingRecordCases()) {
      const InstTiming T = instTiming(*M, I);
      const std::string Where = std::string(M->Name) + ": " + I.toString();
      EXPECT_EQ(T.DispatchPort, dispatchPortCycles(*M, I)) << Where;
      EXPECT_EQ(T.IssuePipe, issuePipeCycles(*M, I)) << Where;
      EXPECT_EQ(T.MathPipe, mathPipeCycles(*M, I)) << Where;
      EXPECT_EQ(T.LdstPipe, ldstPipeCycles(*M, I)) << Where;
      EXPECT_EQ(T.BankConflictExtra, bankConflictExtraCycles(*M, I)) << Where;
      EXPECT_EQ(T.ImplicitConflict, implicitConflictAllowance(*M, I))
          << Where;
      EXPECT_EQ(T.ResultLatency, resultLatency(*M, I)) << Where;
      EXPECT_EQ(T.Class, opcodeInfo(I.Op).Class) << Where;
    }
  // The special FFMAs really exercise the bank rules on Kepler.
  const MachineDesc &K = gtx680();
  EXPECT_GT(instTiming(K, makeFFMA(1, 0, 2, 8)).BankConflictExtra,
            instTiming(K, makeFFMA(1, 0, 2, 5)).BankConflictExtra);
  EXPECT_GT(instTiming(K, makeFFMA(1, 0, 2, 5)).BankConflictExtra, 0.0);
  EXPECT_LT(instTiming(K, makeFFMA(4, 3, 3, 4)).IssuePipe,
            instTiming(K, makeFFMA(1, 0, 4, 5)).IssuePipe);
  EXPECT_GT(instTiming(K, makeFFMA(10, 1, 4, 10)).IssuePipe,
            instTiming(K, makeFFMA(1, 0, 4, 5)).IssuePipe);
}

// --- Latency-driven occupancy curves -----------------------------------------------

TEST(OccupancyCurves, ThroughputGrowsWithActiveThreads) {
  PerfDatabase DB(gtx680());
  double Prev = 0;
  for (int Threads : {64, 256, 1024, 2048}) {
    double T = DB.mixThroughput(6, MemWidth::B64, true, Threads);
    EXPECT_GE(T, Prev * 0.98) << Threads;
    Prev = T;
  }
}

// --- Issue-check order: traps before busy pipes ----------------------------------

namespace {

/// Runs one block of \p Threads threads through \p Code (12 registers
/// allocated; default notations on Kepler) and returns its trap.
TrapInfo trapOfBlock(const MachineDesc &M, std::vector<Instruction> Code,
                     int Threads) {
  Kernel K;
  K.Name = "k";
  K.RegsPerThread = 12;
  K.Code = std::move(Code);
  if (M.Generation == GpuGeneration::Kepler)
    K.addDefaultNotations();
  GlobalMemory GM;
  LaunchConfig Config;
  Config.Dims = LaunchDims{1, 1, Threads, 1};
  TrapInfo T;
  EXPECT_FALSE(launchKernel(M, K, Config, GM, &T).hasValue());
  return T;
}

/// Three independent FFMAs whose sources R0 and R8 share a register bank:
/// on Kepler each takes two issue slots, so 16 warps keep the SM-wide
/// issue pipe busy; on Fermi each holds its scheduler's dispatch port two
/// cycles.
std::vector<Instruction> pipeFillingFfmas() {
  return {makeFFMA(1, 0, 4, 8), makeFFMA(2, 0, 4, 8), makeFFMA(3, 0, 4, 8)};
}

} // namespace

// A warp at an invalid PC, or at an instruction whose registers do not
// fit the file, traps when the scheduler reaches it even if the issue
// pipe (Kepler) or its dispatch port (Fermi) is busy that cycle: the trap
// checks come before the pipe checks. With the pipe checked first, each
// of these warps would trap at a later cycle than the pinned one.
TEST(IssueCheckOrder, TrapsWhileIssuePipeOrPortBusy) {
  struct Case {
    const MachineDesc *M;
    bool BadRegs;
    int Warp;
    uint64_t Cycle;
  };
  for (const Case &C : {Case{&gtx580(), false, 0, 33},
                        Case{&gtx580(), true, 0, 33},
                        Case{&gtx680(), false, 2, 15},
                        Case{&gtx680(), true, 2, 15}}) {
    std::vector<Instruction> Code = pipeFillingFfmas();
    if (C.BadRegs) {
      Code.push_back(makeFFMA(40, 0, 4, 8));
      Code.push_back(makeEXIT());
    }
    const TrapInfo T = trapOfBlock(*C.M, Code, 512);
    SCOPED_TRACE(C.M->Name + (C.BadRegs ? " bad registers" : " invalid PC"));
    EXPECT_EQ(T.Kind, C.BadRegs ? TrapKind::RegisterIndexOOB
                                : TrapKind::InvalidPC);
    EXPECT_EQ(T.Cycle, C.Cycle);
    EXPECT_EQ(T.BlockId, 0);
    EXPECT_EQ(T.WarpId, C.Warp);
    EXPECT_EQ(T.PC, 3);
    EXPECT_EQ(T.LaneMask, 0xffffffffu);
    EXPECT_EQ(T.Lane, -1);
    EXPECT_EQ(T.Address, 0u);
    EXPECT_EQ(T.InstText, C.BadRegs ? "FFMA R40, R0, R4, R8" : "");
    EXPECT_EQ(T.Detail,
              C.BadRegs ? "instruction references registers outside the 12 "
                          "allocated (or a non-architectural predicate)"
                        : "PC 3 outside the kernel's 3 instructions (bad "
                          "branch target or missing EXIT)");
  }
}

// --- Scheduler slot attribution, pinned ------------------------------------------

namespace {

/// Warps run 1 to 4 iterations of an LDS/FFMA loop (two-way bank
/// conflicts on Fermi), then meet at two barriers: the last warp to
/// arrive releases warps of every other scheduler, and warps sit at
/// BRA and BAR (Control) while the pipes are busy.
const char *UnevenLoopBody = "  S2R R0, SR_TID.X\n"
                             "  SHR R2, R0, 5\n"
                             "  LOP.AND R2, R2, 3\n"
                             "  IADD R2, R2, 1\n"
                             "  SHL R1, R0, 3\n"
                             "  LOP.AND R1, R1, 4095\n"
                             "loop:\n"
                             "  LDS R4, [R1]\n"
                             "  FFMA R5, R4, R4, R5\n"
                             "  FFMA R6, R5, R4, R6\n"
                             "  FFMA R8, R4, R4, R8\n"
                             "  IADD R2, R2, -1\n"
                             "  ISETP.NE P0, R2, RZ\n"
                             "  @P0 BRA loop\n"
                             "  BAR.SYNC\n"
                             "  FFMA R9, R5, R6, R8\n"
                             "  STS [R1], R9\n"
                             "  BAR.SYNC\n"
                             "  LDS.64 R10, [R1]\n"
                             "  FFMA R12, R10, R11, R12\n"
                             "  EXIT\n";

/// Independent FFMAs whose sources share a register bank, split by an
/// unconditional branch: the issue pipe (Kepler) or the dispatch ports
/// (Fermi) stay busy, warps that have not issued yet tie on LastIssue,
/// and a Control instruction reaches the head of a busy scheduler.
const char *IssueBoundBody = "  FFMA R1, R0, R4, R8\n"
                             "  FFMA R2, R0, R4, R8\n"
                             "  FFMA R3, R0, R4, R8\n"
                             "  BRA next\n"
                             "next:\n"
                             "  FFMA R1, R0, R4, R8\n"
                             "  FFMA R2, R1, R4, R8\n"
                             "  FFMA R3, R0, R4, R8\n"
                             "  EXIT\n";

/// Straight-line LDS.128, LDS.64 and FFMA: the LD/ST pipe stays busy
/// while other warps wait on the dispatch port or the math pipe (Fermi)
/// or the issue pipe (Kepler), so a slot's warps are blocked by
/// different pipes at once.
const char *LdsMixBody = "  S2R R0, SR_TID.X\n"
                         "  SHL R1, R0, 4\n"
                         "  LOP.AND R1, R1, 4095\n"
                         "  LDS.128 R4, [R1]\n"
                         "  FFMA R8, R0, R0, R8\n"
                         "  FFMA R9, R0, R0, R9\n"
                         "  LDS.64 R10, [R1]\n"
                         "  FFMA R12, R4, R5, R12\n"
                         "  LDS.128 R4, [R1]\n"
                         "  FFMA R13, R6, R7, R13\n"
                         "  FFMA R14, R10, R11, R14\n"
                         "  LDS.64 R10, [R1]\n"
                         "  FFMA R8, R4, R5, R8\n"
                         "  FFMA R9, R6, R7, R9\n"
                         "  FFMA R12, R10, R11, R12\n"
                         "  EXIT\n";

/// Warps loop 1 to 4 times over LDS.128 and FFMA, then meet at a barrier
/// whose next instruction is an LDS.128: warps that arrive early wait
/// there while the LD/ST pipe is busy and the others still compute.
const char *BarrierLdsBody = "  S2R R0, SR_TID.X\n"
                             "  SHR R2, R0, 5\n"
                             "  LOP.AND R2, R2, 3\n"
                             "  IADD R2, R2, 1\n"
                             "  SHL R1, R0, 4\n"
                             "  LOP.AND R1, R1, 4095\n"
                             "loop:\n"
                             "  LDS.128 R4, [R1]\n"
                             "  FFMA R8, R4, R5, R8\n"
                             "  FFMA R9, R6, R7, R9\n"
                             "  IADD R2, R2, -1\n"
                             "  ISETP.NE P0, R2, RZ\n"
                             "  @P0 BRA loop\n"
                             "  BAR.SYNC\n"
                             "  LDS.128 R4, [R1]\n"
                             "  FFMA R8, R4, R5, R8\n"
                             "  FFMA R9, R6, R7, R9\n"
                             "  EXIT\n";

/// One LDS.128, independent FFMAs, then a barrier whose next instruction
/// is an LDS.128: on GT200's single scheduler the math pipe stays busy
/// four cycles per FFMA, so warps at the barrier are the only ones at an
/// LD/ST instruction while the others wait on the math pipe.
const char *BarrierAfterMathBody = "  S2R R0, SR_TID.X\n"
                                   "  SHL R1, R0, 4\n"
                                   "  LOP.AND R1, R1, 4095\n"
                                   "  LDS.128 R4, [R1]\n"
                                   "  FFMA R8, R0, R0, R8\n"
                                   "  FFMA R9, R0, R0, R9\n"
                                   "  FFMA R10, R0, R0, R10\n"
                                   "  FFMA R11, R0, R0, R11\n"
                                   "  FFMA R12, R4, R5, R12\n"
                                   "  FFMA R13, R6, R7, R13\n"
                                   "  BAR.SYNC\n"
                                   "  LDS.128 R4, [R1]\n"
                                   "  FFMA R8, R4, R5, R8\n"
                                   "  FFMA R9, R6, R7, R9\n"
                                   "  EXIT\n";

/// Warp w loops w + 1 times, without barriers: with fewer warps than
/// schedulers times two, a scheduler whose warps have exited runs empty
/// while the others still issue.
const char *WarpTripBody = "  S2R R0, SR_TID.X\n"
                           "  SHR R2, R0, 5\n"
                           "  IADD R2, R2, 1\n"
                           "  SHL R1, R0, 3\n"
                           "  LOP.AND R1, R1, 4095\n"
                           "loop:\n"
                           "  LDS.64 R4, [R1]\n"
                           "  FFMA R6, R4, R5, R6\n"
                           "  FFMA R7, R4, R5, R7\n"
                           "  IADD R2, R2, -1\n"
                           "  ISETP.NE P0, R2, RZ\n"
                           "  @P0 BRA loop\n"
                           "  EXIT\n";

/// The stats and the per-PC profile of one block of \p Threads threads
/// running \p Body on \p M (notations of quality \p Q on Kepler), one
/// line per PC that issued or was charged a slot.
std::string slotRecord(const MachineDesc &M, const char *Body, int Threads,
                       NotationQuality Q) {
  auto Mod = assembleKernelBody(M.Generation, Body, 4096);
  if (!Mod)
    return Mod.message();
  Kernel *K = Mod->findKernel("k");
  if (M.Generation == GpuGeneration::Kepler)
    tuneNotations(M, *K, Q);
  GlobalMemory GM;
  KernelProfile Profile;
  LaunchConfig Config;
  Config.Dims.BlockX = Threads;
  Config.Profile = &Profile;
  auto R = launchKernel(M, *K, Config, GM);
  if (!R)
    return R.message();
  const SimStats &S = R->Stats;
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  std::string Out = formatString(
      "cycles %llu insts %llu replays %llu dual %llu conflicts %llu "
      "barriers %llu idle %llu\nslots",
      U(S.Cycles), U(S.WarpInstsIssued), U(S.ReplayPenalties),
      U(S.DualIssues), U(S.SharedConflictEvents), U(S.BarrierWaits),
      U(S.IdleCycles));
  for (size_t Use = 0; Use < NumSlotUses; ++Use)
    Out += formatString(" %llu", U(S.Breakdown.Slots[Use]));
  Out += "\n";
  auto Line = [&](const std::string &Name, const PCCounters &C) {
    if (C.Issues == 0 && C.Replays == 0 && C.lostSlots() == 0)
      return;
    Out += formatString("%s: issues %llu dual %llu replays %llu lost",
                        Name.c_str(), U(C.Issues), U(C.DualIssues),
                        U(C.Replays));
    for (size_t Use = 1; Use < NumSlotUses; ++Use)
      Out += formatString(" %llu", U(C.StallSlots[Use]));
    Out += "\n";
  };
  for (size_t PC = 0; PC < Profile.codeSize(); ++PC)
    Line(formatString("%zu", PC), Profile.at(PC));
  Line("nopc", Profile.noPC());
  return Out;
}

} // namespace

// Every slot's cause and PC, pinned to values recorded before the
// scheduler decided port- and pipe-blocked slots without checking each
// warp: warps that have not issued tie on LastIssue, barriers are
// released by another scheduler's warp, Control instructions sit at the
// head while the pipe is busy, and Kepler notations stall the oldest
// warp. The LdsMixBody and barrier cases were recorded before the gate
// covered the math and LD/ST pipes: the LD/ST pipe decides slots while
// other warps wait on the math pipe (the oldest candidate is not the
// one charged), and warps at a barrier are the only ones at an LD/ST
// instruction (no candidate has the highest verdict). The WarpTripBody
// cases leave one scheduler without live warps while the others issue.
// The record is hashed; its first two lines are also compared as text,
// so a failure shows which counters moved.
TEST(SchedulerSlots, StatsAndProfileMatchRecordedValues) {
  using Q = NotationQuality;
  struct Case {
    const MachineDesc *M;
    const char *Body;
    int Threads;
    Q Quality;
    const char *Stats;
    uint64_t Hash;
  };
  const Case Cases[] = {
      {&gtx580(), UnevenLoopBody, 384, Q::Tuned,
       "cycles 664 insts 366 replays 0 dual 0 conflicts 42 barriers 24 "
       "idle 319\nslots 366 206 0 455 129 148 24",
       0x57b8434fb627df24ull},
      {&gtx680(), UnevenLoopBody, 384, Q::Tuned,
       "cycles 370 insts 366 replays 0 dual 64 conflicts 0 barriers 24 "
       "idle 178\nslots 302 704 3 11 66 388 6",
       0xca32a473e90180a6ull},
      {&gtx680(), UnevenLoopBody, 384, Q::Heuristic,
       "cycles 410 insts 366 replays 412 dual 51 conflicts 0 barriers 24 "
       "idle 214\nslots 315 762 7 48 54 438 16",
       0x7ad4bb41a7fc0aecull},
      {&gtx680(), UnevenLoopBody, 384, Q::None,
       "cycles 593 insts 366 replays 0 dual 0 conflicts 0 barriers 24 "
       "idle 249\nslots 366 1082 7 291 0 612 14",
       0xae64c20fb8e01d03ull},
      {&gtx580(), IssueBoundBody, 512, Q::Tuned,
       "cycles 115 insts 128 replays 0 dual 0 conflicts 0 barriers 0 "
       "idle 2\nslots 128 2 0 99 0 0 1",
       0x1aab7803bec71cf5ull},
      {&gtx680(), IssueBoundBody, 512, Q::Tuned,
       "cycles 44 insts 128 replays 0 dual 47 conflicts 0 barriers 0 "
       "idle 0\nslots 81 11 17 59 0 0 8",
       0xfef185658d1832efull},
      {&gtx680(), IssueBoundBody, 96, Q::Tuned,
       "cycles 24 insts 24 replays 4 dual 8 conflicts 0 barriers 0 "
       "idle 13\nslots 16 43 1 4 0 0 32",
       0x9111822a7fae4605ull},
      {&gtx580(), LdsMixBody, 512, Q::Tuned,
       "cycles 849 insts 256 replays 0 dual 0 conflicts 32 "
       "barriers 0 idle 594\nslots 256 34 0 246 868 0 294",
       0x8c898878c606e64eull},
      {&gtx680(), LdsMixBody, 512, Q::Tuned,
       "cycles 186 insts 256 replays 0 dual 66 conflicts 32 "
       "barriers 0 idle 62\nslots 190 273 0 0 245 0 36",
       0x9f0b46e24d975912ull},
      {&gtx680(), LdsMixBody, 512, Q::Heuristic,
       "cycles 194 insts 256 replays 303 dual 58 conflicts 32 "
       "barriers 0 idle 60\nslots 198 233 11 47 248 0 39",
       0x0a72518a83b4eb24ull},
      {&gt200(), LdsMixBody, 128, Q::Tuned,
       "cycles 351 insts 64 replays 0 dual 0 conflicts 8 "
       "barriers 0 idle 287\nslots 64 0 0 132 155 0 0",
       0x9104edcab51fbecdull},
      {&gtx580(), BarrierLdsBody, 224, Q::Tuned,
       "cycles 569 insts 173 replays 0 dual 0 conflicts 0 "
       "barriers 7 idle 407\nslots 173 273 0 303 326 31 32",
       0xd27cf83223b7890cull},
      {&gtx580(), BarrierLdsBody, 288, Q::Tuned,
       "cycles 654 insts 225 replays 0 dual 0 conflicts 0 "
       "barriers 9 idle 444\nslots 225 242 0 296 451 14 80",
       0x975071a5db3b222cull},
      {&gtx680(), BarrierLdsBody, 384, Q::Heuristic,
       "cycles 362 insts 312 replays 426 dual 52 conflicts 0 "
       "barriers 12 idle 178\nslots 260 643 0 39 95 377 34",
       0x1168f2c00385008cull},
      {&gt200(), BarrierAfterMathBody, 256, Q::Tuned,
       "cycles 442 insts 120 replays 0 dual 0 conflicts 0 "
       "barriers 8 idle 322\nslots 120 0 0 210 112 0 0",
       0x0f293be79b0be41eull},
      {&gtx580(), WarpTripBody, 96, Q::Tuned,
       "cycles 288 insts 54 replays 0 dual 0 conflicts 0 "
       "barriers 0 idle 234\nslots 54 195 0 243 6 0 78",
       0x3e6b8c3001f0ff3full},
      {&gtx680(), WarpTripBody, 160, Q::Tuned,
       "cycles 307 insts 120 replays 0 dual 18 conflicts 0 "
       "barriers 0 idle 231\nslots 102 790 2 5 1 0 328",
       0x137793c27e2f1169ull},
  };
  for (const Case &C : Cases) {
    const std::string R = slotRecord(*C.M, C.Body, C.Threads, C.Quality);
    SCOPED_TRACE(formatString("%s, %d threads, %s notations\n%s",
                              C.M->Name.c_str(), C.Threads,
                              notationQualityName(C.Quality), R.c_str()));
    EXPECT_EQ(R.substr(0, R.find('\n', R.find('\n') + 1)), C.Stats);
    Fnv1a H;
    H.bytes(R.data(), R.size());
    EXPECT_EQ(H.value(), C.Hash);
  }
}
