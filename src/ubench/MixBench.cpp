//===- ubench/MixBench.cpp - FFMA/LDS.X instruction-mix benchmarks --------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "ubench/MixBench.h"

#include "support/Format.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace gpuperf;

namespace {

/// Shared-memory window each benchmark cycles through.
constexpr int SharedBytes = 4096;

/// All registers stay below R32 so that 32 registers/thread suffice and
/// the benchmark can reach full occupancy (2048 threads on Kepler needs
/// 64K/2048 = 32 registers; Section 4.3 is about exactly this pressure).
///
/// Independent-mode accumulators: banks E1/O1 only, so sources
/// {R2(E0), R3(O0), Acc} are always conflict-free.
constexpr uint8_t IndepAcc[8] = {12, 13, 14, 15, 20, 21, 22, 23};
constexpr int NumIndepAcc = 8;
/// Dependent-mode accumulators: banks O0/O1 only; the sources are then
/// {R2(E0), LoadReg(E1), Acc(O0/O1)} -- conflict-free. The first
/// DepChains of these rotate, forming that many serial dependence chains
/// per load; the Figure 4 benchmark uses 2, which is what makes it
/// latency-sensitive at low occupancy.
constexpr uint8_t DepAcc[14] = {9,  11, 17, 19, 25, 27, 5,
                                7,  13, 15, 21, 23, 29, 31};
constexpr int MaxDepAcc = 14;
/// Rotating destinations for loads whose results are consumed (both are
/// 4-register aligned so every width works; first words on bank E1).
constexpr uint8_t DepLoadReg[2] = {4, 28};
/// Rotating destinations for dead loads (independent mode).
constexpr uint8_t IndepLoadReg[4] = {8, 16, 24, 28};

} // namespace

Kernel gpuperf::generateMixBench(const MachineDesc &M,
                                 const MixBenchParams &P) {
  assert(P.FfmaPerLds >= -1 && "ratio must be -1 (pure FFMA) or >= 0");
  Kernel K;
  K.Name = formatString(
      "mix_%s_r%d_%s", P.Dependent ? "dep" : "indep", P.FfmaPerLds,
      P.Width == MemWidth::B32    ? "lds32"
      : P.Width == MemWidth::B64  ? "lds64"
                                  : "lds128");
  K.SharedBytes = SharedBytes;

  const int WidthBytes = memWidthBytes(P.Width);
  const int Slots = SharedBytes / WidthBytes;

  // Prologue: R1 = (tid % Slots) * WidthBytes as the shared address;
  // R2/R3 hold float multiplicands.
  K.Code.push_back(makeS2R(0, SpecialReg::TID_X));
  // R1 = (tid & (Slots-1)) << log2(WidthBytes).
  Instruction And;
  And.Op = Opcode::LOP_AND;
  And.Dst = 1;
  And.Src[0] = 0;
  And.HasImm = true;
  And.Imm = Slots - 1;
  K.Code.push_back(And);
  int Log2W = P.Width == MemWidth::B32 ? 2 : P.Width == MemWidth::B64 ? 3
                                                                      : 4;
  K.Code.push_back(makeSHLImm(1, 1, Log2W));
  K.Code.push_back(makeMOV32I(2, 0x3f800000u)); // 1.0f
  K.Code.push_back(makeMOV32I(3, 0x3f000000u)); // 0.5f

  assert(P.DepChains >= 1 && P.DepChains <= MaxDepAcc &&
         "dependent chain count out of range");
  const uint8_t *Acc = P.Dependent ? DepAcc : IndepAcc;
  const int NumAcc = P.Dependent ? P.DepChains : NumIndepAcc;
  int AccIdx = 0, LoadIdx = 0;

  auto EmitFFMA = [&](uint8_t OperandB) {
    uint8_t A = Acc[AccIdx];
    AccIdx = (AccIdx + 1) % NumAcc;
    K.Code.push_back(makeFFMA(A, 2, OperandB, A));
  };
  auto EmitLoad = [&]() -> uint8_t {
    uint8_t Dst;
    if (P.Dependent) {
      Dst = DepLoadReg[LoadIdx % 2];
    } else {
      Dst = IndepLoadReg[LoadIdx % 4];
    }
    ++LoadIdx;
    K.Code.push_back(makeLDS(P.Width, Dst, 1, 0));
    return Dst;
  };

  int Emitted = 0;
  // PipelinedConsume: use the previous group's load while the next one is
  // in flight (the structure of real software-pipelined kernels).
  uint8_t PrevLoaded = DepLoadReg[1];
  while (Emitted < P.BodyInsts) {
    if (P.FfmaPerLds < 0) {
      EmitFFMA(3);
      ++Emitted;
      continue;
    }
    if (P.FfmaPerLds == 0) {
      EmitLoad();
      ++Emitted;
      continue;
    }
    uint8_t Loaded = EmitLoad();
    ++Emitted;
    uint8_t Consumed = P.PipelinedConsume ? PrevLoaded : Loaded;
    for (int F = 0; F < P.FfmaPerLds && Emitted < P.BodyInsts;
         ++F, ++Emitted)
      EmitFFMA(P.Dependent ? Consumed : 3);
    PrevLoaded = Loaded;
  }
  K.Code.push_back(makeEXIT());
  K.recomputeRegUsage();
  tuneNotations(M, K, P.Notation);
  return K;
}

double gpuperf::measureThroughput(const MachineDesc &M, const Kernel &K,
                                  const MeasureConfig &Cfg,
                                  SimStats *StatsOut) {
  GlobalMemory GM(1 << 20);
  LaunchConfig Config;
  Config.Dims.BlockX = Cfg.ThreadsPerBlock;
  Config.Dims.GridX = Cfg.BlocksPerSM * M.NumSMs;
  Config.Mode = SimMode::ProjectOneWave;
  Config.MaxResidentBlocksOverride = Cfg.BlocksPerSM;
  Config.TimingOnly = true; // Only the stats are read.
  auto R = launchKernel(M, K, Config, GM);
  if (!R.hasValue()) {
    std::fprintf(stderr, "microbenchmark launch failed: %s\n",
                 R.message().c_str());
    std::abort();
  }
  if (StatsOut)
    *StatsOut = R->Stats;
  return R->Stats.threadInstsPerCycle();
}
