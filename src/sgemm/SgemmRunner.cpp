//===- sgemm/SgemmRunner.cpp - end-to-end SGEMM on the simulator ----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sgemm/SgemmRunner.h"

#include "sgemm/Reference.h"
#include "support/Format.h"
#include "support/MathUtils.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>
#include <vector>

using namespace gpuperf;

namespace {

/// Column-major host matrix with zero-initialized padding.
struct HostMatrix {
  int Rows = 0, Cols = 0; ///< Padded dimensions; Ld == Rows.
  std::vector<float> Data;

  HostMatrix(int Rows, int Cols)
      : Rows(Rows), Cols(Cols),
        Data(static_cast<size_t>(Rows) * Cols, 0.0f) {}

  float &at(int R, int C) {
    return Data[static_cast<size_t>(C) * Rows + R];
  }

  void fillRandom(int TrueRows, int TrueCols, Rng &R) {
    for (int C = 0; C < TrueCols; ++C)
      for (int Row = 0; Row < TrueRows; ++Row)
        at(Row, C) = R.nextUnitFloat();
  }
};

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

Expected<uint32_t> uploadMatrix(GlobalMemory &GM, const HostMatrix &M) {
  auto Addr = GM.tryAllocate(M.Data.size() * 4);
  if (!Addr)
    return Addr;
  for (size_t I = 0; I < M.Data.size(); ++I)
    GM.storeFloat(static_cast<uint32_t>(*Addr + 4 * I), M.Data[I]);
  return Addr;
}

} // namespace

Expected<SgemmRunResult>
gpuperf::runSgemmConfig(const MachineDesc &M, SgemmKernelConfig Cfg,
                        const SgemmProblem &Problem,
                        const SgemmRunOptions &Options) {
  using ER = Expected<SgemmRunResult>;
  if (Problem.M <= 0 || Problem.N <= 0 || Problem.K <= 0)
    return ER::error("matrix sizes must be positive");
  if (Options.Verify && Options.Mode != SimMode::Full)
    return ER::error("verification requires full simulation");

  // Pad to tile-aligned shapes.
  const int BSh = Cfg.blockTile();
  const int MP = static_cast<int>(alignTo(Problem.M, BSh));
  const int NP = static_cast<int>(alignTo(Problem.N, BSh));
  const int KP = static_cast<int>(alignTo(Problem.K, Cfg.L));
  Cfg.Variant = Problem.Variant;
  Cfg.M = MP;
  Cfg.N = NP;
  Cfg.K = KP;
  Cfg.Lda = transA(Cfg.Variant) ? KP : MP;
  Cfg.Ldb = transB(Cfg.Variant) ? NP : KP;
  Cfg.Ldc = MP;

  auto KernelOrErr = generateSgemmKernel(M, Cfg);
  if (!KernelOrErr)
    return ER::error(KernelOrErr.message());
  Kernel K = KernelOrErr.take();

  // Host matrices (padded, zero-filled outside the true region).
  Rng R(Options.Seed);
  int ARows = Cfg.Lda, ACols = transA(Cfg.Variant) ? MP : KP;
  int BRows = Cfg.Ldb, BCols = transB(Cfg.Variant) ? KP : NP;
  HostMatrix A(ARows, ACols), B(BRows, BCols), C(MP, NP);
  A.fillRandom(transA(Cfg.Variant) ? Problem.K : Problem.M,
               transA(Cfg.Variant) ? Problem.M : Problem.K, R);
  B.fillRandom(transB(Cfg.Variant) ? Problem.N : Problem.K,
               transB(Cfg.Variant) ? Problem.K : Problem.N, R);
  if (Problem.Beta != 0.0f)
    C.fillRandom(Problem.M, Problem.N, R);
  HostMatrix CInitial = C;

  size_t Bytes =
      (A.Data.size() + B.Data.size() + C.Data.size()) * 4 + (1 << 16);
  GlobalMemory GM(Bytes);
  auto AAddr = uploadMatrix(GM, A);
  auto BAddr = uploadMatrix(GM, B);
  auto CAddr = uploadMatrix(GM, C);
  if (!AAddr || !BAddr || !CAddr)
    return ER::error(formatString(
        "matrices do not fit the simulated device: %s",
        (!AAddr ? AAddr : !BAddr ? BAddr : CAddr).message().c_str()));

  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  LaunchConfig Launch;
  Launch.Dims.GridX = Shape.GridX;
  Launch.Dims.GridY = Shape.GridY;
  Launch.Dims.BlockX = Shape.BlockX;
  Launch.Params = {*AAddr, *BAddr, *CAddr, floatBits(Problem.Alpha),
                   floatBits(Problem.Beta)};
  Launch.Mode = Options.Mode;
  Launch.Jobs = Options.Jobs;
  Launch.Probes = Options.Probes;

  auto LR = launchKernel(M, K, Launch, GM);
  if (!LR)
    return ER::error(LR.message());

  SgemmRunResult Result;
  Result.Launch = LR.take();
  Result.Seconds = Result.Launch.seconds(M);
  double Flops = 2.0 * MP * NP * KP;
  Result.Gflops = Result.Launch.gflops(M, Flops);
  Result.FractionOfPeak = Result.Gflops / M.theoreticalPeakGflops();
  Result.RegsPerThread = K.RegsPerThread;
  Result.CodeSize = static_cast<int>(K.Code.size());
  uint64_t Total = Result.Launch.Stats.ThreadInstsIssued;
  Result.FfmaPercent =
      Total ? 100.0 * Result.Launch.Stats.ffmaThreadInsts() / Total : 0;

  if (Options.Verify) {
    referenceSgemm(Cfg.Variant, MP, NP, KP, Problem.Alpha, A.Data.data(),
                   Cfg.Lda, B.Data.data(), Cfg.Ldb, Problem.Beta,
                   CInitial.Data.data(), MP);
    double MaxErr = 0;
    for (size_t I = 0; I < C.Data.size(); ++I) {
      float Got = GM.loadFloat(static_cast<uint32_t>(*CAddr + 4 * I));
      MaxErr = std::max(
          MaxErr, static_cast<double>(std::fabs(Got - CInitial.Data[I])));
    }
    Result.MaxAbsError = MaxErr;
    Result.Verified = MaxErr == 0.0;
    if (!Result.Verified)
      return ER::error(formatString(
          "SGEMM verification failed: max abs error %g", MaxErr));
  }
  return Result;
}

Expected<SgemmRunResult> gpuperf::runSgemm(const MachineDesc &M,
                                           SgemmImpl Impl,
                                           const SgemmProblem &Problem,
                                           const SgemmRunOptions &Options) {
  SgemmKernelConfig Cfg = baselineConfig(Impl, M, Problem.Variant,
                                         Problem.M, Problem.N, Problem.K);
  return runSgemmConfig(M, Cfg, Problem, Options);
}
