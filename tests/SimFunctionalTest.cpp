//===- tests/SimFunctionalTest.cpp - functional simulator tests -----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end functional tests: assembly text -> assembler -> launcher ->
/// simulated memory state. Every opcode's semantics is covered.
///
//===----------------------------------------------------------------------===//

#include "asmtool/Assembler.h"
#include "sim/Launcher.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

using namespace gpuperf;

namespace {

/// Assembles a kernel body and launches it; fails the test on error.
Expected<LaunchResult> runBody(GpuGeneration Arch, const std::string &Body,
                               LaunchDims Dims,
                               std::vector<uint32_t> Params,
                               GlobalMemory &GM, int SharedBytes = 0) {
  auto M = assembleKernelBody(Arch, Body, SharedBytes);
  if (!M.hasValue())
    return Expected<LaunchResult>::error("assembly failed: " + M.message());
  const MachineDesc &Machine =
      Arch == GpuGeneration::Kepler ? gtx680() : gtx580();
  LaunchConfig Config;
  Config.Dims = Dims;
  Config.Params = std::move(Params);
  return launchKernel(Machine, *M->findKernel("k"), Config, GM);
}

LaunchResult mustRun(GpuGeneration Arch, const std::string &Body,
                     LaunchDims Dims, std::vector<uint32_t> Params,
                     GlobalMemory &GM, int SharedBytes = 0) {
  auto R = runBody(Arch, Body, Dims, std::move(Params), GM, SharedBytes);
  if (!R.hasValue()) {
    ADD_FAILURE() << R.message();
    return LaunchResult();
  }
  return R.take();
}

} // namespace

TEST(SimFunctional, StoreConstantPerThread) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(32 * 4);
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  SHL R1, R0, 2\n"
                                  "  MOV32I R2, %u\n"
                                  "  IADD R1, R1, %u\n"
                                  "  ST [R1], R2\n"
                                  "  EXIT\n",
                                  1234u, Out);
  LaunchDims Dims;
  Dims.BlockX = 32;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  for (int T = 0; T < 32; ++T)
    EXPECT_EQ(GM.load32(Out + 4 * T), 1234u) << "thread " << T;
}

TEST(SimFunctional, ThreadAndBlockIds) {
  GlobalMemory GM;
  constexpr int Blocks = 3, Threads = 64;
  uint32_t Out = GM.allocate(Blocks * Threads * 4);
  // out[ctaid*ntid + tid] = ctaid * 1000 + tid
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  S2R R1, SR_CTAID.X\n"
                                  "  S2R R2, SR_NTID.X\n"
                                  "  IMAD R3, R1, R2, R0\n"
                                  "  SHL R3, R3, 2\n"
                                  "  IADD R3, R3, %u\n"
                                  "  IMAD R4, R1, 1000, R0\n"
                                  "  ST [R3], R4\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = Threads;
  Dims.GridX = Blocks;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  for (int B = 0; B < Blocks; ++B)
    for (int T = 0; T < Threads; ++T)
      EXPECT_EQ(GM.load32(Out + 4 * (B * Threads + T)),
                static_cast<uint32_t>(B * 1000 + T));
}

TEST(SimFunctional, IntegerAluOps) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(8 * 4);
  // Compute a handful of ALU results in lane 0 and store them.
  std::string Body = formatString(
      "  MOV32I R0, 21\n"
      "  MOV32I R1, 3\n"
      "  IADD R2, R0, R1\n"       // 24
      "  IMUL R3, R0, R1\n"       // 63
      "  IMAD R4, R0, R1, R2\n"   // 87
      "  ISCADD R5, R1, R0, 3\n"  // (3<<3)+21 = 45
      "  SHL R6, R1, 4\n"         // 48
      "  SHR R7, R0, 2\n"         // 5
      "  LOP.AND R8, R0, 7\n"     // 5
      "  LOP.OR R9, R0, 8\n"      // 29
      "  MOV32I R11, %u\n"
      "  ST [R11+0], R2\n"
      "  ST [R11+4], R3\n"
      "  ST [R11+8], R4\n"
      "  ST [R11+12], R5\n"
      "  ST [R11+16], R6\n"
      "  ST [R11+20], R7\n"
      "  ST [R11+24], R8\n"
      "  ST [R11+28], R9\n"
      "  EXIT\n",
      Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  uint32_t Expect[8] = {24, 63, 87, 45, 48, 5, 5, 29};
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(GM.load32(Out + 4 * I), Expect[I]) << "slot " << I;
}

TEST(SimFunctional, XorImmediateToggles) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(4);
  std::string Body = formatString("  MOV32I R0, 0x1200\n"
                                  "  LOP.XOR R0, R0, 0x1000\n"
                                  "  MOV32I R1, %u\n"
                                  "  ST [R1], R0\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  EXPECT_EQ(GM.load32(Out), 0x200u);
}

TEST(SimFunctional, FloatMathMatchesHost) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(3 * 4);
  float A = 1.5f, B = -2.25f, C = 10.0f;
  auto Bits = [](float F) {
    uint32_t U;
    std::memcpy(&U, &F, 4);
    return U;
  };
  std::string Body = formatString("  MOV32I R0, %u\n"
                                  "  MOV32I R1, %u\n"
                                  "  MOV32I R2, %u\n"
                                  "  FFMA R3, R0, R1, R2\n"
                                  "  FADD R4, R0, R1\n"
                                  "  FMUL R5, R0, R2\n"
                                  "  MOV32I R10, %u\n"
                                  "  ST [R10+0], R3\n"
                                  "  ST [R10+4], R4\n"
                                  "  ST [R10+8], R5\n"
                                  "  EXIT\n",
                                  Bits(A), Bits(B), Bits(C), Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  EXPECT_EQ(GM.loadFloat(Out + 0), std::fma(A, B, C));
  EXPECT_EQ(GM.loadFloat(Out + 4), A + B);
  EXPECT_EQ(GM.loadFloat(Out + 8), A * C);
}

TEST(SimFunctional, LdcReadsParams) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(8);
  std::string Body = formatString("  LDC R0, c[0x0]\n"
                                  "  LDC R1, c[0x4]\n"
                                  "  MOV32I R2, %u\n"
                                  "  ST [R2], R0\n"
                                  "  ST [R2+4], R1\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {111, 222}, GM);
  EXPECT_EQ(GM.load32(Out), 111u);
  EXPECT_EQ(GM.load32(Out + 4), 222u);
}

TEST(SimFunctional, SharedMemoryBarrierExchange) {
  GlobalMemory GM;
  constexpr int Threads = 64;
  uint32_t Out = GM.allocate(Threads * 4);
  // s[tid] = tid*7; barrier; out[tid] = s[(tid+32)%64]
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  SHL R1, R0, 2\n"
                                  "  IMUL R2, R0, 7\n"
                                  "  STS [R1], R2\n"
                                  "  BAR.SYNC\n"
                                  "  IADD R3, R0, 32\n"
                                  "  LOP.AND R3, R3, 63\n"
                                  "  SHL R3, R3, 2\n"
                                  "  LDS R4, [R3]\n"
                                  "  MOV32I R5, %u\n"
                                  "  IADD R5, R5, R1\n"
                                  "  ST [R5], R4\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = Threads;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM, Threads * 4);
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(GM.load32(Out + 4 * T),
              static_cast<uint32_t>(((T + 32) % 64) * 7));
}

TEST(SimFunctional, WideSharedAccesses) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(4 * 4);
  // Store 4 words via STS.128, read back two LDS.64 pairs.
  std::string Body = formatString("  MOV32I R4, 10\n"
                                  "  MOV32I R5, 20\n"
                                  "  MOV32I R6, 30\n"
                                  "  MOV32I R7, 40\n"
                                  "  MOV32I R0, 0\n"
                                  "  STS.128 [R0], R4\n"
                                  "  BAR.SYNC\n"
                                  "  LDS.64 R8, [R0]\n"
                                  "  LDS.64 R10, [R0+8]\n"
                                  "  MOV32I R1, %u\n"
                                  "  ST [R1+0], R8\n"
                                  "  ST [R1+4], R9\n"
                                  "  ST [R1+8], R10\n"
                                  "  ST [R1+12], R11\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM, 64);
  EXPECT_EQ(GM.load32(Out + 0), 10u);
  EXPECT_EQ(GM.load32(Out + 4), 20u);
  EXPECT_EQ(GM.load32(Out + 8), 30u);
  EXPECT_EQ(GM.load32(Out + 12), 40u);
}

TEST(SimFunctional, WideGlobalAccesses) {
  GlobalMemory GM;
  uint32_t In = GM.allocate(16);
  uint32_t Out = GM.allocate(16);
  for (int I = 0; I < 4; ++I)
    GM.store32(In + 4 * I, 100 + I);
  std::string Body = formatString("  MOV32I R0, %u\n"
                                  "  MOV32I R1, %u\n"
                                  "  LD.128 R4, [R0]\n"
                                  "  ST.128 [R1], R4\n"
                                  "  EXIT\n",
                                  In, Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(GM.load32(Out + 4 * I), static_cast<uint32_t>(100 + I));
}

TEST(SimFunctional, PredicatedStores) {
  GlobalMemory GM;
  constexpr int Threads = 32;
  uint32_t Out = GM.allocate(Threads * 4);
  for (int T = 0; T < Threads; ++T)
    GM.store32(Out + 4 * T, 0xffffffffu);
  // Only threads with tid < 10 store.
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  ISETP.LT P0, R0, 10\n"
                                  "  SHL R1, R0, 2\n"
                                  "  IADD R1, R1, %u\n"
                                  "  @P0 ST [R1], R0\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = Threads;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  for (int T = 0; T < Threads; ++T) {
    uint32_t Expect = T < 10 ? static_cast<uint32_t>(T) : 0xffffffffu;
    EXPECT_EQ(GM.load32(Out + 4 * T), Expect) << "thread " << T;
  }
}

TEST(SimFunctional, LoopAccumulates) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(4);
  // sum = 0; for (i = 50; i != 0; --i) sum += i;  => 1275
  std::string Body = formatString("  MOV32I R0, 0\n"
                                  "  MOV32I R1, 50\n"
                                  "loop:\n"
                                  "  IADD R0, R0, R1\n"
                                  "  IADD R1, R1, -1\n"
                                  "  ISETP.NE P0, R1, RZ\n"
                                  "  @P0 BRA loop\n"
                                  "  MOV32I R2, %u\n"
                                  "  ST [R2], R0\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 1;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  EXPECT_EQ(GM.load32(Out), 1275u);
}

TEST(SimFunctional, PartialWarpActiveMask) {
  GlobalMemory GM;
  constexpr int Threads = 40; // A full warp plus 8 lanes.
  uint32_t Out = GM.allocate(64 * 4);
  std::string Body = formatString("  S2R R0, SR_TID.X\n"
                                  "  SHL R1, R0, 2\n"
                                  "  IADD R1, R1, %u\n"
                                  "  MOV32I R2, 1\n"
                                  "  ST [R1], R2\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = Threads;
  mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  for (int T = 0; T < 64; ++T)
    EXPECT_EQ(GM.load32(Out + 4 * T), T < Threads ? 1u : 0u);
}

TEST(SimFunctional, RunsOnKeplerWithNotations) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(4);
  std::string Body = formatString("  MOV32I R0, 5 {s:1}\n"
                                  "  IADD R0, R0, 6\n"
                                  "  MOV32I R1, %u\n"
                                  "  ST [R1], R0\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 32;
  mustRun(GpuGeneration::Kepler, Body, Dims, {}, GM);
  EXPECT_EQ(GM.load32(Out), 11u);
}

// --- Fault detection -----------------------------------------------------------

TEST(SimFaults, SharedOutOfBounds) {
  GlobalMemory GM;
  auto R = runBody(GpuGeneration::Fermi,
                   "  MOV32I R0, 4096\n  LDS R1, [R0]\n  EXIT\n",
                   LaunchDims{1, 1, 32, 1}, {}, GM, 64);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("SHARED_LOAD_OOB"), std::string::npos);
}

TEST(SimFaults, MisalignedWideAccess) {
  GlobalMemory GM;
  auto R = runBody(GpuGeneration::Fermi,
                   "  MOV32I R0, 4\n  LDS.64 R2, [R0]\n  EXIT\n",
                   LaunchDims{1, 1, 32, 1}, {}, GM, 64);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("MISALIGNED_ACCESS"), std::string::npos);
}

TEST(SimFaults, LdcBeyondParams) {
  GlobalMemory GM;
  auto R = runBody(GpuGeneration::Fermi, "  LDC R0, c[0x40]\n  EXIT\n",
                   LaunchDims{1, 1, 32, 1}, {1, 2}, GM);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("parameter"), std::string::npos);
}

TEST(SimFaults, DivergentBranchReported) {
  GlobalMemory GM;
  auto R = runBody(GpuGeneration::Fermi,
                   "  S2R R0, SR_TID.X\n"
                   "  ISETP.LT P0, R0, 16\n"
                   "  @P0 BRA skip\n"
                   "  NOP\n"
                   "skip:\n"
                   "  EXIT\n",
                   LaunchDims{1, 1, 32, 1}, {}, GM);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("divergent"), std::string::npos);
}

TEST(SimFaults, UnlaunchableOccupancy) {
  GlobalMemory GM;
  // 1025 threads exceeds the block limit.
  auto R = runBody(GpuGeneration::Fermi, "  EXIT\n",
                   LaunchDims{1, 1, 1025, 1}, {}, GM);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("not launchable"), std::string::npos);
}

TEST(SimFaults, FitsFreshAgreesWithTryAllocate) {
  // Allocations start at 256 and are 256-aligned; the 32-bit space ends
  // at 4 GiB. fitsFresh must draw the same line tryAllocate does, without
  // allocating (only the failing side is checked through tryAllocate,
  // which would otherwise grow the image to gigabytes).
  const size_t Space = size_t(1) << 32;
  EXPECT_TRUE(GlobalMemory::fitsFresh({}));
  EXPECT_TRUE(GlobalMemory::fitsFresh({Space - 256}));
  EXPECT_FALSE(GlobalMemory::fitsFresh({Space - 255}));
  EXPECT_TRUE(GlobalMemory::fitsFresh({1, Space - 512}));
  EXPECT_FALSE(GlobalMemory::fitsFresh({1, Space - 511}));
  EXPECT_FALSE(GlobalMemory::fitsFresh({SIZE_MAX / 2, SIZE_MAX / 2 + 1024}))
      << "the running end must not wrap";
  GlobalMemory OneByte(0);
  ASSERT_TRUE(OneByte.tryAllocate(1).hasValue());
  EXPECT_FALSE(OneByte.tryAllocate(Space - 511).hasValue());
  EXPECT_FALSE(GlobalMemory(0).tryAllocate(Space - 255).hasValue());
}

// --- Device memory ----------------------------------------------------------------

namespace {

/// All bytes of \p GM are zero.
bool allZero(const GlobalMemory &GM, uint64_t Addr, size_t Bytes) {
  std::span<const uint8_t> Span = GM.bytes(Addr, Bytes);
  return Span.size() == Bytes &&
         std::all_of(Span.begin(), Span.end(), [](uint8_t B) { return !B; });
}

} // namespace

TEST(GlobalMemoryImage, FreshImageReadsZero) {
  const size_t Bytes = 64u << 20;
  GlobalMemory GM(Bytes);
  ASSERT_EQ(GM.size(), Bytes);
  for (uint64_t Addr = 0; Addr < Bytes; Addr += 4096)
    ASSERT_EQ(GM.load32(static_cast<uint32_t>(Addr)), 0u) << Addr;
  EXPECT_EQ(GM.load32(static_cast<uint32_t>(Bytes - 4)), 0u);
}

TEST(GlobalMemoryImage, GrowthKeepsOldBytesAndZeroesTheTail) {
  GlobalMemory GM(4096);
  const uint32_t A = *GM.tryAllocate(1024);
  for (uint32_t I = 0; I < 256; ++I)
    GM.store32(A + 4 * I, 0x9e3779b9u * (I + 1));
  const size_t OldSize = GM.size();
  const uint32_t B = *GM.tryAllocate(3u << 20);
  ASSERT_GT(GM.size(), OldSize);
  for (uint32_t I = 0; I < 256; ++I)
    EXPECT_EQ(GM.load32(A + 4 * I), 0x9e3779b9u * (I + 1));
  EXPECT_TRUE(allZero(GM, OldSize, GM.size() - OldSize));
  EXPECT_TRUE(allZero(GM, B, 3u << 20));
}

TEST(GlobalMemoryImage, CopyAndMoveKeepTheContents) {
  GlobalMemory GM(1 << 16);
  for (uint32_t Addr = 256; Addr < (1 << 16); Addr += 4)
    GM.store32(Addr, Addr * 2654435761u);
  auto Same = [](const GlobalMemory &X, const GlobalMemory &Y) {
    std::span<const uint8_t> A = X.bytes(0, X.size());
    std::span<const uint8_t> B = Y.bytes(0, Y.size());
    return A.size() == B.size() && std::equal(A.begin(), A.end(), B.begin());
  };
  GlobalMemory Copy = GM;
  EXPECT_TRUE(Same(Copy, GM));
  GlobalMemory Assigned(0);
  Assigned = GM;
  EXPECT_TRUE(Same(Assigned, GM));
  GlobalMemory Moved = std::move(Copy);
  EXPECT_TRUE(Same(Moved, GM));
  GlobalMemory MoveAssigned(0);
  MoveAssigned = std::move(Assigned);
  EXPECT_TRUE(Same(MoveAssigned, GM));
}

// bytes() carries no assert: the guard is the same in release builds.
TEST(GlobalMemoryImage, SpanAccessorRejectsOutOfRangeSpans) {
  GlobalMemory GM(4096);
  EXPECT_EQ(GM.bytes(0, 4096).size(), 4096u);
  EXPECT_EQ(GM.bytes(4092, 4).size(), 4u);
  EXPECT_EQ(GM.bytes(4096, 0).size(), 0u);
  EXPECT_TRUE(GM.bytes(4093, 4).empty());
  EXPECT_TRUE(GM.bytes(0, 4097).empty());
  EXPECT_TRUE(GM.bytes(4097, 0).empty());
  EXPECT_TRUE(GM.bytes(1, SIZE_MAX).empty()) << "Addr + Bytes must not wrap";
  EXPECT_TRUE(GM.bytes(UINT64_MAX, 1).empty());
  const GlobalMemory &Const = GM;
  EXPECT_TRUE(Const.bytes(4093, 4).empty());
  EXPECT_EQ(Const.bytes(8, 16).data(), GM.bytes(8, 16).data());
}

// --- Launch accounting ------------------------------------------------------------

TEST(SimAccounting, InstructionCountsByOpcode) {
  GlobalMemory GM;
  std::string Body = "  FADD R0, R1, R2\n"
                     "  FADD R0, R1, R2\n"
                     "  FMUL R3, R1, R2\n"
                     "  EXIT\n";
  LaunchResult R = mustRun(GpuGeneration::Fermi, Body,
                           LaunchDims{1, 1, 64, 1}, {}, GM);
  EXPECT_EQ(R.Stats.threadInsts(Opcode::FADD), 128u);
  EXPECT_EQ(R.Stats.threadInsts(Opcode::FMUL), 64u);
  EXPECT_EQ(R.Stats.threadInsts(Opcode::EXIT), 64u);
  EXPECT_EQ(R.Stats.ThreadInstsIssued, 64u * 4);
  EXPECT_EQ(R.Stats.WarpInstsIssued, 8u);
  EXPECT_GT(R.Stats.Cycles, 0u);
}

TEST(SimAccounting, WavesCoverWholeGrid) {
  GlobalMemory GM;
  uint32_t Out = GM.allocate(1024 * 4);
  // 64 blocks of 32 threads on Fermi: 8 blocks/SM limit, 16 SMs -> 1 wave;
  // with 256 blocks -> 2 waves.
  std::string Body = formatString("  S2R R0, SR_CTAID.X\n"
                                  "  S2R R1, SR_TID.X\n"
                                  "  SHL R2, R0, 2\n"
                                  "  IADD R2, R2, %u\n"
                                  "  ISETP.EQ P0, R1, RZ\n"
                                  "  @P0 ST [R2], R0\n"
                                  "  EXIT\n",
                                  Out);
  LaunchDims Dims;
  Dims.BlockX = 32;
  Dims.GridX = 256;
  LaunchResult R = mustRun(GpuGeneration::Fermi, Body, Dims, {}, GM);
  EXPECT_EQ(R.WavesTotal, 2);
  for (int B = 0; B < 256; ++B)
    EXPECT_EQ(GM.load32(Out + 4 * B), static_cast<uint32_t>(B));
}

TEST(SimAccounting, ProjectionModeScalesCycles) {
  GlobalMemory GM;
  std::string Body = "  FADD R0, R1, R2\n  EXIT\n";
  LaunchDims Dims;
  Dims.BlockX = 256;
  // 256-thread blocks of this tiny kernel are thread-limited: 6 blocks
  // per SM (1536/256), so 4 full chip waves on 16 SMs.
  Dims.GridX = 16 * 6 * 4;

  auto M = assembleKernelBody(GpuGeneration::Fermi, Body, 0);
  ASSERT_TRUE(M.hasValue());
  LaunchConfig Full;
  Full.Dims = Dims;
  Full.Mode = SimMode::Full;
  auto RFull = launchKernel(gtx580(), *M->findKernel("k"), Full, GM);
  ASSERT_TRUE(RFull.hasValue()) << RFull.message();

  LaunchConfig Proj = Full;
  Proj.Mode = SimMode::ProjectOneWave;
  auto RProj = launchKernel(gtx580(), *M->findKernel("k"), Proj, GM);
  ASSERT_TRUE(RProj.hasValue()) << RProj.message();

  // Projection should agree with full simulation within a few percent for
  // a data-independent kernel.
  EXPECT_NEAR(RProj->TotalCycles, RFull->TotalCycles,
              0.1 * RFull->TotalCycles);
  EXPECT_EQ(RProj->WavesSimulated, 1);
  EXPECT_EQ(RProj->WavesTotal, 4);
}
