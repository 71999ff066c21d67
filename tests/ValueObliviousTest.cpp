//===- tests/ValueObliviousTest.cpp - timing-only launches ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LaunchConfig::TimingOnly skips the float math and the data moves of
/// loads and stores, and runSgemmConfig without Verify leaves the
/// operands unfilled, for every kernel that proveValueOblivious accepts.
/// These tests pin three things:
///  * the proof rejects each way a loaded or float value can reach
///    timing, and accepts every kernel the benches launch timing-only,
///    so the fast path cannot silently switch off;
///  * the launcher ignores the request for a rejected kernel;
///  * a timing-only SGEMM launch is bit-identical to a filled, valued
///    one in cycles, statistics, per-PC profile and stock-probe report,
///    on both machines, every implementation, variant and schedule,
///    both simulation modes and several grid sizes.
///
//===----------------------------------------------------------------------===//

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "probe/ProbeEngine.h"
#include "sgemm/SgemmRunner.h"
#include "sim/Launcher.h"
#include "sim/ValueOblivious.h"
#include "support/Format.h"
#include "ubench/MixBench.h"
#include "ubench/OpPattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace gpuperf;

namespace {

Kernel kernelOf(std::vector<Instruction> Code) {
  Kernel K;
  K.Name = "t";
  K.Code = std::move(Code);
  K.SharedBytes = 1024;
  K.recomputeRegUsage();
  return K;
}

Instruction guarded(Instruction I, uint8_t Pred, bool Neg = false) {
  I.GuardPred = Pred;
  I.GuardNeg = Neg;
  return I;
}

Instruction isetp(CmpOp C, uint8_t Pd, uint8_t Ra, int32_t Imm) {
  Instruction I = makeISETP(C, Pd, Ra, RegRZ);
  I.HasImm = true;
  I.Imm = Imm;
  return I;
}

/// R1 = 4 * tid.x + 256: a per-lane word address in the first global
/// allocation, and in bounds of the tests' shared memory.
std::vector<Instruction> laneAddress() {
  return {makeS2R(0, SpecialReg::TID_X), makeSHLImm(1, 0, 2),
          makeIADDImm(1, 1, 256)};
}

std::vector<Instruction> withPrologue(std::vector<Instruction> Body) {
  std::vector<Instruction> Code = laneAddress();
  Code.insert(Code.end(), Body.begin(), Body.end());
  Code.push_back(makeEXIT());
  return Code;
}

/// \p Base shaped for a grid of \p Blocks x 1 tiles and two k-slices,
/// sizes that runSgemmConfig pads to themselves.
std::pair<SgemmKernelConfig, SgemmProblem>
shaped(SgemmKernelConfig Base, GemmVariant V, int Blocks) {
  SgemmProblem P;
  P.Variant = V;
  P.M = Blocks * Base.blockTile();
  P.N = Base.blockTile();
  P.K = 2 * Base.L;
  P.Alpha = 1.25f;
  P.Beta = -0.5f;
  Base.Variant = V;
  Base.M = P.M;
  Base.N = P.N;
  Base.K = P.K;
  Base.Lda = transA(V) ? P.K : P.M;
  Base.Ldb = transB(V) ? P.N : P.K;
  Base.Ldc = P.M;
  return {Base, P};
}

void expectRejected(const Kernel &K, const std::string &Why) {
  Status S = proveValueOblivious(K);
  ASSERT_TRUE(S.failed()) << "accepted a kernel that should fail: " << Why;
  EXPECT_NE(S.message().find(Why), std::string::npos) << S.message();
}

/// The stock probes/ specs in one engine.
ProbeEngine stockProbes() {
  std::vector<ProbeSpec> All;
  for (const char *Name : {"block_sched", "gmem_bytes", "opclass_mix",
                           "smem_bank_conflicts", "warp_progress"}) {
    auto Specs = loadProbeSpecFile(
        formatString("%s/%s.probe", GPUPERF_PROBES_DIR, Name));
    EXPECT_TRUE(Specs.hasValue()) << Specs.message();
    if (Specs.hasValue())
      for (ProbeSpec &S : Specs.take())
        All.push_back(std::move(S));
  }
  return ProbeEngine(std::move(All));
}

void expectSameStats(const SimStats &A, const SimStats &B) {
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.AggregateCycles, B.AggregateCycles);
  EXPECT_EQ(A.WarpInstsIssued, B.WarpInstsIssued);
  EXPECT_EQ(A.ThreadInstsIssued, B.ThreadInstsIssued);
  EXPECT_TRUE(A.ThreadInstsByOpcode == B.ThreadInstsByOpcode);
  EXPECT_EQ(A.GlobalBytes, B.GlobalBytes);
  EXPECT_EQ(A.GlobalTransactions, B.GlobalTransactions);
  EXPECT_EQ(A.ReplayPenalties, B.ReplayPenalties);
  EXPECT_EQ(A.SharedConflictEvents, B.SharedConflictEvents);
  EXPECT_EQ(A.BarrierWaits, B.BarrierWaits);
  EXPECT_EQ(A.IdleCycles, B.IdleCycles);
  EXPECT_EQ(A.DualIssues, B.DualIssues);
  EXPECT_EQ(A.Breakdown, B.Breakdown);
}

} // namespace

// --- The proof: what it rejects ----------------------------------------------

TEST(ValueObliviousProof, RejectsPointerChase) {
  // The second load's address is the first load's result.
  expectRejected(kernelOf(withPrologue({makeLD(MemWidth::B32, 2, 1, 0),
                                        makeLD(MemWidth::B32, 3, 2, 0)})),
                 "PC 4 (LD R3, [R2+0]): address register R2");
}

TEST(ValueObliviousProof, RejectsFloatResultSteeringABranch) {
  expectRejected(
      kernelOf(withPrologue({makeMOV32I(2, 0x3f800000u),
                             makeFFMA(3, 2, 2, 2),
                             isetp(CmpOp::GT, 0, 3, 0),
                             guarded(makeBRA(1), 0), makeIADDImm(4, 4, 1)})),
      "guard predicate P0");
}

TEST(ValueObliviousProof, RejectsLoadedValueReachingAStoreAddress) {
  // LD -> MOV -> IADD -> SHL -> STS address.
  expectRejected(
      kernelOf(withPrologue({makeLD(MemWidth::B32, 2, 1, 0), makeMOV(3, 2),
                             makeIADDImm(4, 3, 4), makeSHLImm(5, 4, 2),
                             makeSTS(MemWidth::B32, 5, 0, 0)})),
      "PC 7 (STS [R5+0], R0): address register R5");
}

TEST(ValueObliviousProof, RejectsLoadedValueGuardingAnFfma) {
  expectRejected(
      kernelOf(withPrologue({makeLDS(MemWidth::B32, 2, 1, 0),
                             isetp(CmpOp::NE, 1, 2, 0),
                             guarded(makeFFMA(3, 3, 3, 3), 1, true)})),
      "guard predicate P1");
}

TEST(ValueObliviousProof, GuardedRedefinitionDoesNotKill) {
  // The guard may leave some lanes holding the loaded value.
  expectRejected(
      kernelOf(withPrologue({makeLD(MemWidth::B32, 2, 1, 0),
                             isetp(CmpOp::LT, 0, 0, 16),
                             guarded(makeMOV32I(2, 256), 0),
                             makeLD(MemWidth::B32, 3, 2, 0)})),
      "address register R2");
}

TEST(ValueObliviousProof, RejectsTaintArrivingAroundALoop) {
  // R2 is an address at the loop head; the loop's bottom reloads it from
  // memory, so only the back edge carries the taint.
  expectRejected(
      kernelOf(withPrologue({makeMOV32I(2, 256), makeMOV32I(4, 0),
                             makeLD(MemWidth::B32, 3, 2, 0), // loop head
                             makeIADDImm(4, 4, 1),
                             makeLD(MemWidth::B32, 2, 1, 0),
                             isetp(CmpOp::LT, 0, 4, 4),
                             guarded(makeBRA(-5), 0)})),
      "PC 5 (LD R3, [R2+0]): address register R2");
}

// --- The proof: what it accepts ----------------------------------------------

TEST(ValueObliviousProof, UntaintedRedefinitionKills) {
  // Loaded data may be stored anywhere once the address is recomputed.
  EXPECT_FALSE(proveValueOblivious(
                   kernelOf(withPrologue(
                       {makeLD(MemWidth::B64, 2, 1, 0), makeFFMA(4, 2, 3, 4),
                        makeMOV32I(2, 512), makeST(MemWidth::B32, 2, 0, 4),
                        makeSTS(MemWidth::B64, 1, 0, 2)})))
                   .failed());
}

TEST(ValueObliviousProof, IgnoresUnreachableCode) {
  // The pointer chase sits behind an unconditional branch.
  EXPECT_FALSE(proveValueOblivious(
                   kernelOf(withPrologue({makeBRA(2),
                                          makeLD(MemWidth::B32, 2, 1, 0),
                                          makeLD(MemWidth::B32, 3, 2, 0)})))
                   .failed());
}

TEST(ValueObliviousProof, AcceptsEveryGeneratedSgemmKernel) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()})
    for (SgemmImpl Impl : {SgemmImpl::AsmTuned, SgemmImpl::AsmNaive,
                           SgemmImpl::CublasLike, SgemmImpl::MagmaLike})
      for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT,
                            GemmVariant::TN, GemmVariant::TT})
        for (SgemmSchedule S : {SgemmSchedule::Drip, SgemmSchedule::List}) {
          SgemmKernelConfig Cfg = baselineConfig(Impl, *M, V, 192, 192, 64);
          Cfg.Schedule = S;
          auto K = generateSgemmKernel(*M, shaped(Cfg, V, 2).first);
          ASSERT_TRUE(K.hasValue()) << K.message();
          Status St = proveValueOblivious(*K);
          EXPECT_FALSE(St.failed())
              << M->Name << " " << sgemmImplName(Impl) << " "
              << gemmVariantName(V) << " " << sgemmScheduleName(S) << ": "
              << St.message();
        }
}

TEST(ValueObliviousProof, AcceptsEveryMicrobenchmarkKernel) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (int Ratio = -1; Ratio <= 12; ++Ratio)
        for (bool Dependent : {false, true})
          for (bool Pipelined : {false, true})
            for (int Chains : {1, 2, 6, 14}) {
              MixBenchParams P;
              P.FfmaPerLds = Ratio;
              P.Width = W;
              P.Dependent = Dependent;
              P.PipelinedConsume = Pipelined;
              P.DepChains = Chains;
              Status St = proveValueOblivious(generateMixBench(*M, P));
              EXPECT_FALSE(St.failed()) << M->Name << ": " << St.message();
            }
    for (const Table2Row &Row : table2Patterns()) {
      Status St =
          proveValueOblivious(generateOpPatternBench(*M, Row.Pattern));
      EXPECT_FALSE(St.failed()) << M->Name << ": " << St.message();
    }
  }
}

// --- Launches: what a timing-only request skips and keeps --------------------

namespace {

/// Everything a caller can see of one launch.
struct Seen {
  bool Ok = false;
  std::string Error;
  TrapInfo Trap;
  LaunchResult R;
  std::vector<uint8_t> Memory;
};

/// A pointer chase: each lane loads a pointer from table[tid] and
/// stores tid through it; \p OutOfBounds makes lane 37's pointer trap.
Seen runPointerChase(bool TimingOnly, bool OutOfBounds) {
  Kernel K = kernelOf(withPrologue({makeLD(MemWidth::B32, 2, 1, 0),
                                    makeST(MemWidth::B32, 2, 0, 0)}));
  EXPECT_TRUE(proveValueOblivious(K).failed());
  GlobalMemory GM(0);
  const uint32_t Table = GM.allocate(64 * 4); // 256, as laneAddress assumes.
  const uint32_t Targets = GM.allocate(64 * 4);
  for (uint32_t Lane = 0; Lane < 64; ++Lane)
    GM.store32(Table + 4 * Lane,
               OutOfBounds && Lane == 37 ? 0x10000000u
                                         : Targets + 4 * (63 - Lane));
  LaunchConfig C;
  C.Dims.BlockX = 64;
  C.TimingOnly = TimingOnly;
  Seen Out;
  auto LR = launchKernel(gtx580(), K, C, GM, &Out.Trap);
  Out.Ok = LR.hasValue();
  if (Out.Ok)
    Out.R = *LR;
  else
    Out.Error = LR.message();
  std::span<const uint8_t> Bytes = GM.bytes(0, GM.size());
  Out.Memory.assign(Bytes.begin(), Bytes.end());
  return Out;
}

} // namespace

TEST(ValueObliviousLaunch, RejectedKernelIgnoresTimingOnly) {
  for (bool OutOfBounds : {false, true}) {
    SCOPED_TRACE(OutOfBounds ? "trapping" : "clean");
    Seen Valued = runPointerChase(false, OutOfBounds);
    Seen Timed = runPointerChase(true, OutOfBounds);
    ASSERT_EQ(Valued.Ok, !OutOfBounds) << Valued.Error;
    EXPECT_EQ(Timed.Ok, Valued.Ok);
    EXPECT_EQ(Timed.Error, Valued.Error);
    EXPECT_EQ(Timed.Trap.toString(), Valued.Trap.toString());
    expectSameStats(Timed.R.Stats, Valued.R.Stats);
    EXPECT_TRUE(Timed.Memory == Valued.Memory);
  }
}

TEST(ValueObliviousLaunch, AcceptedKernelKeepsTrapsButMovesNoData) {
  // Lane 40 (warp 1, lane 8) stores past the end of the allocation; in a
  // valued launch warp 1's lanes before it keep their stores of tid.
  Kernel K = kernelOf(withPrologue({makeLD(MemWidth::B32, 2, 1, 0),
                                    makeFFMA(3, 2, 2, 2),
                                    isetp(CmpOp::EQ, 0, 0, 40),
                                    guarded(makeMOV32I(1, 0x100000), 0),
                                    makeST(MemWidth::B32, 1, 0, 0)}));
  ASSERT_FALSE(proveValueOblivious(K).failed());
  std::string Trap[2];
  for (bool TimingOnly : {false, true}) {
    GlobalMemory GM(0);
    GM.allocate(256 * 4);
    LaunchConfig C;
    C.Dims.BlockX = 64;
    C.TimingOnly = TimingOnly;
    TrapInfo T;
    auto LR = launchKernel(gtx580(), K, C, GM, &T);
    ASSERT_FALSE(LR.hasValue());
    Trap[TimingOnly] = T.toString();
    EXPECT_EQ(GM.load32(256 + 4 * 39), TimingOnly ? 0u : 39u);
  }
  EXPECT_EQ(Trap[1], Trap[0]);
  EXPECT_NE(Trap[0].find("GLOBAL_STORE_OOB"), std::string::npos) << Trap[0];
  EXPECT_NE(Trap[0].find("warp 1"), std::string::npos) << Trap[0];
  EXPECT_NE(Trap[0].find("lane 8"), std::string::npos) << Trap[0];
}

namespace {

/// Stats and stock-probe report of \p K launched as measureThroughput
/// launches it: one projected wave of \p Blocks blocks per SM.
std::pair<SimStats, std::string> launchProjected(const MachineDesc &M,
                                                 const Kernel &K,
                                                 int Threads, int Blocks,
                                                 bool TimingOnly) {
  GlobalMemory GM(0);
  GM.allocate(64 * 1024);
  LaunchConfig C;
  C.Dims.BlockX = Threads;
  C.Dims.GridX = Blocks * M.NumSMs;
  C.Mode = SimMode::ProjectOneWave;
  C.MaxResidentBlocksOverride = Blocks;
  C.TimingOnly = TimingOnly;
  ProbeEngine Probes = stockProbes();
  C.Probes = &Probes;
  auto LR = launchKernel(M, K, C, GM);
  EXPECT_TRUE(LR.hasValue()) << LR.message();
  return {LR.hasValue() ? LR->Stats : SimStats(), Probes.report()};
}

} // namespace

TEST(ValueObliviousLaunch, KeepsBankConflictsAndCoalescing) {
  // Strided shared and global accesses around float math on loaded
  // values: an STS of 2-way and an LDS of 32-way bank conflicts, and an
  // LD and ST of one transaction per lane.
  Kernel K = kernelOf(withPrologue(
      {makeSHLImm(2, 0, 3), makeSTS(MemWidth::B32, 2, 0, 0),
       makeSHLImm(3, 0, 7), makeLD(MemWidth::B32, 4, 3, 256),
       makeLDS(MemWidth::B32, 5, 3, 0), makeFFMA(6, 4, 5, 6),
       makeFADD(7, 6, 4), makeFMUL(7, 7, 7),
       makeST(MemWidth::B32, 3, 256, 7)}));
  K.SharedBytes = 64 * 128;
  ASSERT_FALSE(proveValueOblivious(K).failed());
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    SCOPED_TRACE(M->Name);
    auto Valued = launchProjected(*M, K, 64, 2, false);
    auto Timed = launchProjected(*M, K, 64, 2, true);
    EXPECT_GT(Valued.first.SharedConflictEvents, 0u);
    // 2 blocks x 64 lanes x (LD + ST).
    EXPECT_EQ(Valued.first.GlobalTransactions, 2u * 64 * 2);
    expectSameStats(Timed.first, Valued.first);
    EXPECT_EQ(Timed.second, Valued.second);
  }
}

TEST(ValueObliviousLaunch, MixBenchMatchesValuedLaunch) {
  // measureThroughput launches timing-only; PerfDatabase values must be
  // what a valued launch measures.
  for (const MachineDesc *M : {&gtx580(), &gtx680()})
    for (MemWidth W : {MemWidth::B32, MemWidth::B64, MemWidth::B128})
      for (bool Dependent : {false, true}) {
        SCOPED_TRACE(formatString("%s width %d dependent %d",
                                  M->Name.c_str(), memWidthBytes(W),
                                  Dependent));
        MixBenchParams P;
        P.Width = W;
        P.Dependent = Dependent;
        P.BodyInsts = 256;
        Kernel K = generateMixBench(*M, P);
        auto Valued = launchProjected(*M, K, 1024, 2, false);
        auto Timed = launchProjected(*M, K, 1024, 2, true);
        expectSameStats(Timed.first, Valued.first);
        EXPECT_EQ(Timed.second, Valued.second);
        SimStats Measured;
        measureThroughput(*M, K, MeasureConfig(), &Measured);
        expectSameStats(Measured, Valued.first);
      }
}

// --- Timing-only SGEMM against valued SGEMM ----------------------------------

namespace {

enum class Grid { SubWave, WholeWave, PartialTail };
const char *gridName(Grid G) {
  return G == Grid::SubWave     ? "sub-wave"
         : G == Grid::WholeWave ? "whole-wave"
                                : "partial-tail";
}

/// What one SGEMM launch shows a timing-only caller.
struct SgemmSeen {
  std::string Error;
  LaunchResult R;
  KernelProfile Profile;
  std::string Probes;
  bool MemoryZero = false; ///< No byte of device memory was written.
};

SgemmSeen launchSgemm(const MachineDesc &M, const SgemmKernelConfig &Cfg,
                      const Kernel &K, const SgemmProblem &P, SimMode Mode,
                      int Jobs, bool TimingOnly) {
  SgemmSeen Out;
  auto Ops = makeSgemmOperands(
      Cfg, P, TimingOnly ? std::nullopt : std::optional<uint64_t>(7));
  if (!Ops) {
    Out.Error = Ops.message();
    return Out;
  }
  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  LaunchConfig C;
  C.Dims.GridX = Shape.GridX;
  C.Dims.GridY = Shape.GridY;
  C.Dims.BlockX = Shape.BlockX;
  C.Params = {Ops->Addr[0], Ops->Addr[1], Ops->Addr[2], 0x3fa00000u,
              0xbf000000u}; // alpha 1.25, beta -0.5
  C.Mode = Mode;
  C.Jobs = Jobs;
  C.TimingOnly = TimingOnly;
  ProbeEngine Probes = stockProbes();
  C.Profile = &Out.Profile;
  C.Probes = &Probes;
  auto LR = launchKernel(M, K, C, Ops->GM);
  if (!LR) {
    Out.Error = LR.message();
    return Out;
  }
  Out.R = *LR;
  Out.Probes = Probes.report();
  std::span<const uint8_t> Bytes = Ops->GM.bytes(0, Ops->GM.size());
  Out.MemoryZero =
      std::all_of(Bytes.begin(), Bytes.end(), [](uint8_t B) { return !B; });
  return Out;
}

struct MachineImpl {
  const MachineDesc *M;
  SgemmImpl Impl;
  const char *Name;
};

void PrintTo(const MachineImpl &P, std::ostream *OS) { *OS << P.Name; }

class TimingOnlySgemm : public ::testing::TestWithParam<MachineImpl> {};

} // namespace

TEST_P(TimingOnlySgemm, BitIdenticalToValuedLaunch) {
  const MachineDesc &M = *GetParam().M;
  const SgemmImpl Impl = GetParam().Impl;
  int Combo = static_cast<int>(Impl);
  for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT, GemmVariant::TN,
                        GemmVariant::TT})
    for (SgemmSchedule S : {SgemmSchedule::Drip, SgemmSchedule::List}) {
      SgemmKernelConfig Cfg = baselineConfig(Impl, M, V, 96, 96, 32);
      Cfg.Schedule = S;
      auto One = generateSgemmKernel(M, shaped(Cfg, V, 1).first);
      ASSERT_TRUE(One.hasValue()) << One.message();
      KernelResources Res;
      Res.RegsPerThread = One->RegsPerThread;
      Res.SharedBytesPerBlock = One->SharedBytes;
      Res.ThreadsPerBlock = Cfg.TB;
      const int PerWave = computeOccupancy(M, Res).ActiveBlocks * M.NumSMs;
      ASSERT_GT(PerWave, 2);

      // One projected and one full launch per combination. The grid and
      // the job count rotate, so that each machine and implementation
      // sees every pairing of grid, mode and Jobs.
      const int I = Combo++;
      struct Run {
        SimMode Mode;
        int Jobs;
        Grid G;
      };
      const Run Runs[] = {
          {SimMode::ProjectOneWave, 1, static_cast<Grid>(I % 3)},
          {SimMode::Full, 1 + I % 2, static_cast<Grid>((I + 1) % 3)}};
      for (const Run &Rn : Runs) {
        const int Blocks = Rn.G == Grid::SubWave     ? 2
                           : Rn.G == Grid::WholeWave ? PerWave
                                                     : PerWave + 3;
        SCOPED_TRACE(formatString(
            "%s %s %s %s, %s at jobs %d, %s grid of %d blocks",
            M.Name.c_str(), sgemmImplName(Impl), gemmVariantName(V),
            sgemmScheduleName(S),
            Rn.Mode == SimMode::Full ? "full" : "projected", Rn.Jobs,
            gridName(Rn.G), Blocks));
        auto [Shaped, P] = shaped(Cfg, V, Blocks);
        auto K = generateSgemmKernel(M, Shaped);
        ASSERT_TRUE(K.hasValue()) << K.message();
        SgemmSeen Valued =
            launchSgemm(M, Shaped, *K, P, Rn.Mode, Rn.Jobs, false);
        SgemmSeen Timed =
            launchSgemm(M, Shaped, *K, P, Rn.Mode, Rn.Jobs, true);
        ASSERT_EQ(Valued.Error, "");
        ASSERT_EQ(Timed.Error, "");
        EXPECT_EQ(Timed.R.TotalCycles, Valued.R.TotalCycles);
        EXPECT_EQ(Timed.R.WavesSimulated, Valued.R.WavesSimulated);
        expectSameStats(Timed.R.Stats, Valued.R.Stats);
        EXPECT_TRUE(Timed.Profile == Valued.Profile);
        EXPECT_EQ(Timed.Probes, Valued.Probes);
        // The fast path ran: the valued launch wrote C, the timing-only
        // one wrote no byte at all.
        EXPECT_FALSE(Valued.MemoryZero);
        EXPECT_TRUE(Timed.MemoryZero);

        // runSgemmConfig takes the timing-only path by itself.
        SgemmRunOptions O;
        O.Mode = Rn.Mode;
        O.Jobs = Rn.Jobs;
        ProbeEngine Probes = stockProbes();
        O.Probes = &Probes;
        auto R = runSgemmConfig(M, Cfg, P, O);
        ASSERT_TRUE(R.hasValue()) << R.message();
        EXPECT_EQ(R->Launch.TotalCycles, Valued.R.TotalCycles);
        expectSameStats(R->Launch.Stats, Valued.R.Stats);
        EXPECT_EQ(Probes.report(), Valued.Probes);
      }
    }
}

INSTANTIATE_TEST_SUITE_P(
    MachinesAndImpls, TimingOnlySgemm,
    ::testing::Values(
        MachineImpl{&gtx580(), SgemmImpl::AsmTuned, "GTX580_AsmTuned"},
        MachineImpl{&gtx580(), SgemmImpl::AsmNaive, "GTX580_AsmNaive"},
        MachineImpl{&gtx580(), SgemmImpl::CublasLike, "GTX580_CublasLike"},
        MachineImpl{&gtx580(), SgemmImpl::MagmaLike, "GTX580_MagmaLike"},
        MachineImpl{&gtx680(), SgemmImpl::AsmTuned, "GTX680_AsmTuned"},
        MachineImpl{&gtx680(), SgemmImpl::AsmNaive, "GTX680_AsmNaive"},
        MachineImpl{&gtx680(), SgemmImpl::CublasLike, "GTX680_CublasLike"},
        MachineImpl{&gtx680(), SgemmImpl::MagmaLike, "GTX680_MagmaLike"}),
    [](const ::testing::TestParamInfo<MachineImpl> &Info) {
      return std::string(Info.param.Name);
    });
