//===- tests/SgemmTest.cpp - end-to-end SGEMM integration tests -----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests: generated SGEMM kernels run on the simulated GPUs
/// and must match the host reference bit-for-bit, across variants,
/// implementations, widths, blocking factors, alpha/beta values and
/// padded (non-tile-multiple) shapes.
///
//===----------------------------------------------------------------------===//

#include "sgemm/Reference.h"
#include "sgemm/SgemmRunner.h"
#include "support/Format.h"
#include "support/LittleEndian.h"
#include "support/MathUtils.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

using namespace gpuperf;

namespace {

SgemmRunResult mustRun(const MachineDesc &M, SgemmImpl Impl,
                       SgemmProblem P) {
  SgemmRunOptions O;
  O.Mode = SimMode::Full;
  O.Verify = true;
  auto R = runSgemm(M, Impl, P, O);
  if (!R.hasValue()) {
    ADD_FAILURE() << R.message();
    return SgemmRunResult();
  }
  return R.take();
}

SgemmRunResult mustRunConfig(const MachineDesc &M, SgemmKernelConfig Cfg,
                             SgemmProblem P) {
  SgemmRunOptions O;
  O.Mode = SimMode::Full;
  O.Verify = true;
  auto R = runSgemmConfig(M, Cfg, P, O);
  if (!R.hasValue()) {
    ADD_FAILURE() << R.message();
    return SgemmRunResult();
  }
  return R.take();
}

SgemmProblem problem(GemmVariant V, int M, int N, int K,
                     float Alpha = 1.0f, float Beta = 0.0f) {
  SgemmProblem P;
  P.Variant = V;
  P.M = M;
  P.N = N;
  P.K = K;
  P.Alpha = Alpha;
  P.Beta = Beta;
  return P;
}

} // namespace

// --- Variants x machines (parameterized) --------------------------------------

struct VariantCase {
  GemmVariant Variant;
  const MachineDesc *Machine;
};

class SgemmVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(SgemmVariantTest, VerifiesBitExact) {
  const VariantCase &C = GetParam();
  SgemmRunResult R = mustRun(*C.Machine, SgemmImpl::AsmTuned,
                             problem(C.Variant, 192, 192, 64, 1.25f,
                                     -0.5f));
  EXPECT_TRUE(R.Verified);
  EXPECT_EQ(R.MaxAbsError, 0.0);
  EXPECT_EQ(R.RegsPerThread, 63);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SgemmVariantTest,
    ::testing::Values(VariantCase{GemmVariant::NN, &gtx580()},
                      VariantCase{GemmVariant::NT, &gtx580()},
                      VariantCase{GemmVariant::TN, &gtx580()},
                      VariantCase{GemmVariant::TT, &gtx580()},
                      VariantCase{GemmVariant::NN, &gtx680()},
                      VariantCase{GemmVariant::NT, &gtx680()},
                      VariantCase{GemmVariant::TN, &gtx680()},
                      VariantCase{GemmVariant::TT, &gtx680()}),
    [](const ::testing::TestParamInfo<VariantCase> &Info) {
      return std::string(gemmVariantName(Info.param.Variant)) + "_" +
             Info.param.Machine->Name;
    });

// --- Implementations (parameterized) --------------------------------------------

class SgemmImplTest : public ::testing::TestWithParam<SgemmImpl> {};

TEST_P(SgemmImplTest, AllImplementationsVerifyOnBothMachines) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    SgemmRunResult R =
        mustRun(*M, GetParam(), problem(GemmVariant::NN, 192, 96, 48));
    EXPECT_TRUE(R.Verified) << M->Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllImpls, SgemmImplTest,
    ::testing::Values(SgemmImpl::AsmTuned, SgemmImpl::AsmNaive,
                      SgemmImpl::CublasLike, SgemmImpl::MagmaLike),
    [](const ::testing::TestParamInfo<SgemmImpl> &Info) {
      std::string Name = sgemmImplName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// --- Shapes and scalars ----------------------------------------------------------

TEST(Sgemm, PadsNonTileMultipleShapes) {
  // 100x50x33 requires padding in every dimension.
  SgemmRunResult R = mustRun(gtx580(), SgemmImpl::AsmTuned,
                             problem(GemmVariant::NN, 100, 50, 33, 2.0f,
                                     0.25f));
  EXPECT_TRUE(R.Verified);
}

TEST(Sgemm, RectangularShapes) {
  SgemmRunResult R = mustRun(gtx580(), SgemmImpl::AsmTuned,
                             problem(GemmVariant::NT, 288, 96, 128));
  EXPECT_TRUE(R.Verified);
}

TEST(Sgemm, SingleKPanel) {
  // K == L: the kernel runs without its main loop (tail only).
  SgemmRunResult R = mustRun(gtx580(), SgemmImpl::AsmTuned,
                             problem(GemmVariant::NN, 96, 96, 16));
  EXPECT_TRUE(R.Verified);
}

namespace {

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

} // namespace

TEST(Sgemm, PaddedBetaTermNeverReadsPaddingGarbage) {
  // The runner's own Verify compares the padded kernel result against a
  // reference run on the *same* padded buffers, so padding values
  // leaking into the true region of C through the beta term would
  // cancel out and pass unnoticed. This test drives the kernel
  // directly: every padded element of the C image holds a huge
  // sentinel, and the true region is checked bit-for-bit against a
  // reference computed on compact, never-padded copies. A and B keep
  // zero padding -- the kernel's K loop runs over the padded K, and
  // those terms must contribute exact-zero FMA no-ops.
  const float Alpha = 1.5f, Beta = -0.75f;
  const int TM = 100, TN = 50, TK = 33; // Padding in every dimension.
  for (const MachineDesc *MachP : {&gtx580(), &gtx680()}) {
    const MachineDesc &Mach = *MachP;
    for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT,
                          GemmVariant::TN, GemmVariant::TT}) {
      SgemmKernelConfig Cfg =
          baselineConfig(SgemmImpl::AsmTuned, Mach, V, TM, TN, TK);
      const int BSh = Cfg.blockTile();
      const int MPad = static_cast<int>(alignTo(TM, BSh));
      const int NPad = static_cast<int>(alignTo(TN, BSh));
      const int KPad = static_cast<int>(alignTo(TK, Cfg.L));
      Cfg.Variant = V;
      Cfg.M = MPad;
      Cfg.N = NPad;
      Cfg.K = KPad;
      Cfg.Lda = transA(V) ? KPad : MPad;
      Cfg.Ldb = transB(V) ? NPad : KPad;
      Cfg.Ldc = MPad;
      auto K = generateSgemmKernel(Mach, Cfg);
      ASSERT_TRUE(K.hasValue()) << K.message();

      // Padded device images (column-major, Ld == padded rows).
      const int ARows = Cfg.Lda, ATrueR = transA(V) ? TK : TM,
                ATrueC = transA(V) ? TM : TK;
      const int BRows = Cfg.Ldb, BTrueR = transB(V) ? TN : TK,
                BTrueC = transB(V) ? TK : TN;
      std::vector<float> A(size_t(ARows) * (transA(V) ? MPad : KPad), 0.0f);
      std::vector<float> B(size_t(BRows) * (transB(V) ? KPad : NPad), 0.0f);
      std::vector<float> C(size_t(MPad) * NPad, 1e30f);
      Rng R(7);
      for (int Col = 0; Col < ATrueC; ++Col)
        for (int Row = 0; Row < ATrueR; ++Row)
          A[size_t(Col) * ARows + Row] = R.nextUnitFloat();
      for (int Col = 0; Col < BTrueC; ++Col)
        for (int Row = 0; Row < BTrueR; ++Row)
          B[size_t(Col) * BRows + Row] = R.nextUnitFloat();
      for (int Col = 0; Col < TN; ++Col)
        for (int Row = 0; Row < TM; ++Row)
          C[size_t(Col) * MPad + Row] = R.nextUnitFloat();

      // Compact copies that have never seen a padded element.
      std::vector<float> ARef(size_t(ATrueR) * ATrueC);
      std::vector<float> BRef(size_t(BTrueR) * BTrueC);
      std::vector<float> CRef(size_t(TM) * TN);
      for (int Col = 0; Col < ATrueC; ++Col)
        for (int Row = 0; Row < ATrueR; ++Row)
          ARef[size_t(Col) * ATrueR + Row] = A[size_t(Col) * ARows + Row];
      for (int Col = 0; Col < BTrueC; ++Col)
        for (int Row = 0; Row < BTrueR; ++Row)
          BRef[size_t(Col) * BTrueR + Row] = B[size_t(Col) * BRows + Row];
      for (int Col = 0; Col < TN; ++Col)
        for (int Row = 0; Row < TM; ++Row)
          CRef[size_t(Col) * TM + Row] = C[size_t(Col) * MPad + Row];
      referenceSgemm(V, TM, TN, TK, Alpha, ARef.data(), ATrueR,
                     BRef.data(), BTrueR, Beta, CRef.data(), TM);

      GlobalMemory GM((A.size() + B.size() + C.size()) * 4 + (1 << 16));
      auto Upload = [&GM](const std::vector<float> &Mx) {
        uint32_t Addr = GM.allocate(Mx.size() * 4);
        for (size_t I = 0; I < Mx.size(); ++I)
          GM.storeFloat(static_cast<uint32_t>(Addr + 4 * I), Mx[I]);
        return Addr;
      };
      uint32_t AAddr = Upload(A), BAddr = Upload(B), CAddr = Upload(C);

      SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
      LaunchConfig Launch;
      Launch.Dims.GridX = Shape.GridX;
      Launch.Dims.GridY = Shape.GridY;
      Launch.Dims.BlockX = Shape.BlockX;
      Launch.Params = {AAddr, BAddr, CAddr, floatBits(Alpha),
                       floatBits(Beta)};
      Launch.Mode = SimMode::Full;
      auto LR = launchKernel(Mach, *K, Launch, GM);
      ASSERT_TRUE(LR.hasValue()) << Mach.Name << " "
                                 << gemmVariantName(V) << ": "
                                 << LR.message();

      // Bit-exact comparison catches NaN/Inf contamination that a
      // tolerance check would mishandle.
      int Mismatches = 0;
      for (int Col = 0; Col < TN; ++Col)
        for (int Row = 0; Row < TM; ++Row) {
          float Got = GM.loadFloat(static_cast<uint32_t>(
              CAddr + 4 * (size_t(Col) * MPad + Row)));
          float Want = CRef[size_t(Col) * TM + Row];
          if (floatBits(Got) != floatBits(Want) && ++Mismatches <= 3) {
            ADD_FAILURE()
                << Mach.Name << " " << gemmVariantName(V) << " C(" << Row
                << "," << Col << "): got " << Got << " want " << Want;
          }
        }
      EXPECT_EQ(Mismatches, 0)
          << Mach.Name << " " << gemmVariantName(V);
    }
  }
}

TEST(Sgemm, BetaZeroIgnoresC) {
  SgemmRunResult R = mustRun(gtx580(), SgemmImpl::AsmTuned,
                             problem(GemmVariant::NN, 96, 96, 32, 1.0f,
                                     0.0f));
  EXPECT_TRUE(R.Verified);
}

TEST(Sgemm, AlphaZeroScalesOnly) {
  SgemmRunResult R = mustRun(gtx580(), SgemmImpl::AsmTuned,
                             problem(GemmVariant::NN, 96, 96, 32, 0.0f,
                                     3.0f));
  EXPECT_TRUE(R.Verified);
}

// --- Configuration space ------------------------------------------------------------

TEST(SgemmConfigs, SmallerBlockingFactorsVerify) {
  for (int BR : {2, 4}) {
    SgemmKernelConfig Cfg;
    Cfg.BR = BR;
    SgemmRunResult R = mustRunConfig(
        gtx580(), Cfg, problem(GemmVariant::NN, 16 * BR * 2, 16 * BR, 32));
    EXPECT_TRUE(R.Verified) << "BR=" << BR;
  }
}

TEST(SgemmConfigs, Lds32Verifies) {
  SgemmKernelConfig Cfg;
  Cfg.LdsWidth = MemWidth::B32;
  SgemmRunResult R =
      mustRunConfig(gtx580(), Cfg, problem(GemmVariant::NN, 96, 96, 48));
  EXPECT_TRUE(R.Verified);
}

TEST(SgemmConfigs, ReorderOffVerifies) {
  SgemmKernelConfig Cfg;
  Cfg.Reorder = false;
  SgemmRunResult R =
      mustRunConfig(gtx580(), Cfg, problem(GemmVariant::NN, 96, 96, 48));
  EXPECT_TRUE(R.Verified);
}

TEST(SgemmConfigs, SpillEmulationVerifies) {
  SgemmKernelConfig Cfg;
  Cfg.EmulateSpills = true;
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    SgemmRunResult R =
        mustRunConfig(*M, Cfg, problem(GemmVariant::NN, 96, 96, 48));
    EXPECT_TRUE(R.Verified) << M->Name;
  }
}

TEST(SgemmConfigs, KeplerNotationQualitiesAllCorrect) {
  // Scheduling hints change performance, never results.
  double Gflops[3] = {0, 0, 0};
  int Idx = 0;
  for (NotationQuality Q : {NotationQuality::None,
                            NotationQuality::Heuristic,
                            NotationQuality::Tuned}) {
    SgemmKernelConfig Cfg;
    Cfg.Notation = Q;
    SgemmRunResult R =
        mustRunConfig(gtx680(), Cfg, problem(GemmVariant::NN, 96, 96, 64));
    EXPECT_TRUE(R.Verified) << notationQualityName(Q);
    Gflops[Idx++] = R.Gflops;
  }
  // And the performance ordering holds: none << heuristic/tuned.
  EXPECT_LT(Gflops[0], Gflops[1]);
}

// --- Statistics ------------------------------------------------------------------

TEST(SgemmStats, FfmaShareMatchesSection4) {
  // "In our SGEMM implementation with 1024x1024 matrix size, 80.5% of
  // instructions executed are FFMA instructions" -- we measure at
  // 960x960x960, which has the same loop structure.
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned,
                    problem(GemmVariant::NN, 960, 960, 960), O);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_NEAR(R->FfmaPercent, 80.5, 3.0);
}

TEST(SgemmStats, ProjectionAgreesWithFullSimulation) {
  SgemmProblem P = problem(GemmVariant::NN, 960, 960, 96);
  SgemmRunOptions Full;
  Full.Mode = SimMode::Full;
  auto RFull = runSgemm(gtx580(), SgemmImpl::AsmTuned, P, Full);
  ASSERT_TRUE(RFull.hasValue()) << RFull.message();
  SgemmRunOptions Proj;
  Proj.Mode = SimMode::ProjectOneWave;
  auto RProj = runSgemm(gtx580(), SgemmImpl::AsmTuned, P, Proj);
  ASSERT_TRUE(RProj.hasValue()) << RProj.message();
  EXPECT_NEAR(RProj->Launch.TotalCycles, RFull->Launch.TotalCycles,
              0.15 * RFull->Launch.TotalCycles);
}

TEST(SgemmStats, VerifyChangesNoStatistic) {
  // Verify snapshots A, B and C from device memory before the launch;
  // with it on or off the same padded TN problem must simulate the same.
  SgemmProblem P = problem(GemmVariant::TN, 150, 130, 40, 1.5f, 0.25f);
  SgemmRunOptions Plain;
  Plain.Mode = SimMode::Full;
  SgemmRunOptions Checked = Plain;
  Checked.Verify = true;
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    auto A = runSgemm(*M, SgemmImpl::AsmTuned, P, Plain);
    auto B = runSgemm(*M, SgemmImpl::AsmTuned, P, Checked);
    ASSERT_TRUE(A.hasValue()) << A.message();
    ASSERT_TRUE(B.hasValue()) << B.message();
    EXPECT_TRUE(B->Verified) << M->Name;
    EXPECT_FALSE(A->Verified) << M->Name;
    EXPECT_EQ(A->Launch.TotalCycles, B->Launch.TotalCycles) << M->Name;
    EXPECT_TRUE(A->Launch.Stats.Breakdown == B->Launch.Stats.Breakdown)
        << M->Name;
    EXPECT_EQ(A->Gflops, B->Gflops) << M->Name;
  }
}

TEST(SgemmStats, PerformanceScalesWithMatrixSize) {
  // Bigger matrices amortize the prologue: GFLOPS must rise.
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  double Prev = 0;
  for (int Size : {192, 480, 960}) {
    auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned,
                      problem(GemmVariant::NN, Size, Size, Size), O);
    ASSERT_TRUE(R.hasValue()) << R.message();
    EXPECT_GT(R->Gflops, Prev);
    Prev = R->Gflops;
  }
}

TEST(SgemmStats, FermiAsmBeatsCublasLike) {
  // The headline result: ~5% over CUBLAS on Fermi for large matrices.
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  SgemmProblem P = problem(GemmVariant::NN, 1920, 1920, 1920);
  auto Asm = runSgemm(gtx580(), SgemmImpl::AsmTuned, P, O);
  auto Cublas = runSgemm(gtx580(), SgemmImpl::CublasLike, P, O);
  ASSERT_TRUE(Asm.hasValue() && Cublas.hasValue());
  EXPECT_GT(Asm->Gflops, Cublas->Gflops);
  // And lands near the paper's 74.2% of the theoretical peak.
  EXPECT_NEAR(Asm->FractionOfPeak, 0.742, 0.04);
}

TEST(SgemmStats, KeplerBankAwareBeatsNaive) {
  // Section 5.4: fixing the register bank conflicts lifted the Kepler
  // kernel from ~1100 to ~1300 GFLOPS.
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  SgemmProblem P = problem(GemmVariant::NN, 1920, 1920, 1920);
  auto Tuned = runSgemm(gtx680(), SgemmImpl::AsmTuned, P, O);
  auto Naive = runSgemm(gtx680(), SgemmImpl::AsmNaive, P, O);
  ASSERT_TRUE(Tuned.hasValue() && Naive.hasValue());
  EXPECT_GT(Tuned->Gflops, 1.2 * Naive->Gflops);
}

// --- Device image -------------------------------------------------------------

namespace {

uint64_t imageHash(const GlobalMemory &GM) {
  std::span<const uint8_t> All = GM.bytes(0, GM.size());
  Fnv1a H;
  H.bytes(All.data(), All.size());
  return H.value();
}

} // namespace

// makeSgemmOperands fills a column at a time through one bounds check;
// its image must equal one filled element by element with storeFloat,
// from the same Rng stream in the same order, padding left zero.
TEST(SgemmImage, ColumnFillEqualsPerElementFill) {
  for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT, GemmVariant::TN,
                        GemmVariant::TT})
    for (float Beta : {0.0f, 0.5f}) {
      const SgemmProblem P = problem(V, 100, 70, 36, 1.0f, Beta);
      SgemmKernelConfig Cfg =
          baselineConfig(SgemmImpl::AsmTuned, gtx580(), V, P.M, P.N, P.K);
      const int MP = static_cast<int>(alignTo(P.M, Cfg.blockTile()));
      const int NP = static_cast<int>(alignTo(P.N, Cfg.blockTile()));
      const int KP = static_cast<int>(alignTo(P.K, Cfg.L));
      const bool TA = transA(V), TB = transB(V);
      Cfg.Variant = V;
      Cfg.M = MP;
      Cfg.N = NP;
      Cfg.K = KP;
      Cfg.Lda = TA ? KP : MP;
      Cfg.Ldb = TB ? NP : KP;
      Cfg.Ldc = MP;
      auto Ops = makeSgemmOperands(Cfg, P, 7);
      ASSERT_TRUE(Ops.hasValue()) << Ops.message();

      GlobalMemory Want(Ops->GM.size());
      uint32_t Addr[3];
      for (int I = 0; I < 3; ++I)
        Addr[I] = Want.allocate(4 * Ops->Elems[I]);
      Rng R(7);
      auto Fill = [&](uint32_t Base, int Ld, int Rows, int Cols) {
        for (int C = 0; C < Cols; ++C)
          for (int Row = 0; Row < Rows; ++Row)
            Want.storeFloat(Base + 4 * (C * Ld + Row), R.nextUnitFloat());
      };
      Fill(Addr[0], Cfg.Lda, TA ? P.K : P.M, TA ? P.M : P.K);
      Fill(Addr[1], Cfg.Ldb, TB ? P.N : P.K, TB ? P.K : P.N);
      if (Beta != 0.0f)
        Fill(Addr[2], MP, P.M, P.N);

      SCOPED_TRACE(formatString("variant %d beta %g", static_cast<int>(V),
                                Beta));
      for (int I = 0; I < 3; ++I)
        EXPECT_EQ(Ops->Addr[I], Addr[I]);
      EXPECT_EQ(Ops->Elems[0], static_cast<size_t>(Cfg.Lda) * (TA ? MP : KP));
      EXPECT_EQ(imageHash(Ops->GM), imageHash(Want));
    }
}

TEST(SgemmErrors, VerifyRequiresFullSimulation) {
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  O.Verify = true;
  auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned,
                    problem(GemmVariant::NN, 96, 96, 16), O);
  EXPECT_FALSE(R.hasValue());
}

TEST(SgemmErrors, RejectsOversizedShapeBeforeAllocating) {
  // Three padded 20000x20000 matrices need ~4.8 GB, past the 32-bit
  // device space. The shape is rejected before any matrix memory is
  // allocated (the image alone would be that large).
  SgemmRunOptions O;
  O.Mode = SimMode::ProjectOneWave;
  auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned,
                    problem(GemmVariant::NN, 20000, 20000, 20000), O);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.message().find("matrices do not fit the simulated device"),
            std::string::npos)
      << R.message();
}

// Equality with the reference is the pass rule, so a C of NaN fails
// verification; a maximum over errors alone would drop every NaN.
TEST(SgemmErrors, NanResultFailsVerification) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    SgemmRunOptions O;
    O.Mode = SimMode::Full;
    O.Verify = true;
    auto R = runSgemm(*M, SgemmImpl::AsmTuned,
                      problem(GemmVariant::NN, 192, 192, 64, NAN), O);
    ASSERT_FALSE(R.hasValue()) << M->Name;
    EXPECT_NE(R.message().find("36864 of 36864 elements differ"),
              std::string::npos)
        << M->Name << ": " << R.message();
    EXPECT_NE(R.message().find("max abs error nan"), std::string::npos)
        << M->Name << ": " << R.message();
  }
}

TEST(SgemmErrors, RejectsEmptyProblem) {
  auto R = runSgemm(gtx580(), SgemmImpl::AsmTuned,
                    problem(GemmVariant::NN, 0, 96, 16));
  EXPECT_FALSE(R.hasValue());
}

// --- The host reference ------------------------------------------------------

namespace {

/// An entry of a reference test operand: mostly a unit float, sometimes
/// a signed zero or a subnormal, rarely an infinity, so that most of a
/// K = 64 chain's elements stay finite and their rounding is compared.
float referenceOperand(Rng &R) {
  switch (R.nextBelow(512)) {
  case 0:
  case 1:
    return 0.0f;
  case 2:
  case 3:
    return -0.0f;
  case 4:
  case 5:
    return std::numeric_limits<float>::denorm_min();
  case 6:
  case 7:
    return -1e-40f;
  case 8:
    return std::numeric_limits<float>::infinity();
  case 9:
    return -std::numeric_limits<float>::infinity();
  default:
    return R.nextUnitFloat();
  }
}

/// C := alpha * op(A) * op(B) + beta * C one element at a time, written
/// from the definition: an fma chain over ascending k from zero, then
/// fma(acc, alpha, beta * c).
void naiveSgemm(GemmVariant V, int M, int N, int K, float Alpha,
                const std::vector<float> &A, int Lda,
                const std::vector<float> &B, int Ldb, float Beta,
                std::vector<float> &C, int Ldc) {
  for (int J = 0; J < N; ++J)
    for (int I = 0; I < M; ++I) {
      float Acc = 0.0f;
      for (int KIdx = 0; KIdx < K; ++KIdx) {
        const float OpA = transA(V) ? A[size_t(I) * Lda + KIdx]
                                    : A[size_t(KIdx) * Lda + I];
        const float OpB = transB(V) ? B[size_t(KIdx) * Ldb + J]
                                    : B[size_t(J) * Ldb + KIdx];
        Acc = std::fma(OpA, OpB, Acc);
      }
      float &Out = C[size_t(J) * Ldc + I];
      Out = std::fma(Acc, Alpha, Beta * Out);
    }
}

} // namespace

// referenceSgemm against the naive oracle, bit for bit (NaN for NaN), on
// every variant, lengths around the vector width, leading dimensions
// past the minimum and operands holding signed zeros, subnormals and
// infinities. A descending-k chain or an unfused multiply-add changes
// the rounding of the unit-float terms and fails.
TEST(ReferenceSgemm, MatchesNaiveOracleBitForBit) {
  Rng R(28);
  const int N = 5;
  size_t Finite = 0, Compared = 0;
  for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT, GemmVariant::TN,
                        GemmVariant::TT})
    for (int M : {1, 7, 8, 9, 31, 33, 100})
      for (int K : {1, 3, 64})
        for (float Beta : {0.0f, 0.5f, 1.0f}) {
          const int Lda = (transA(V) ? K : M) + 3;
          const int Ldb = (transB(V) ? N : K) + 2;
          const int Ldc = M + 1;
          std::vector<float> A(size_t(Lda) * (transA(V) ? M : K));
          std::vector<float> B(size_t(Ldb) * (transB(V) ? K : N));
          std::vector<float> C(size_t(Ldc) * N);
          for (std::vector<float> *X : {&A, &B, &C})
            for (float &F : *X)
              F = referenceOperand(R);
          const float Alpha = 1.5f;
          std::vector<float> Want = C;
          naiveSgemm(V, M, N, K, Alpha, A, Lda, B, Ldb, Beta, Want, Ldc);
          referenceSgemm(V, M, N, K, Alpha, A.data(), Lda, B.data(), Ldb,
                         Beta, C.data(), Ldc);
          int Mismatches = 0;
          Compared += C.size();
          for (size_t E = 0; E < C.size(); ++E) {
            Finite += std::isfinite(Want[E]);
            const bool Same = std::isnan(Want[E])
                                  ? std::isnan(C[E])
                                  : floatBits(C[E]) == floatBits(Want[E]);
            if (!Same && Mismatches++ < 3)
              ADD_FAILURE() << gemmVariantName(V) << " M=" << M
                            << " K=" << K << " beta=" << Beta
                            << " element " << E << ": " << C[E]
                            << ", oracle " << Want[E];
          }
          ASSERT_EQ(Mismatches, 0);
        }
  // Most results are finite, so the rounding of the chains was compared.
  EXPECT_GT(Finite, Compared * 3 / 4);
}
