//===- sgemm/SgemmRunner.cpp - end-to-end SGEMM on the simulator ----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sgemm/SgemmRunner.h"

#include "sgemm/Reference.h"
#include "sim/ValueOblivious.h"
#include "support/Format.h"
#include "support/MathUtils.h"
#include "support/Rng.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

using namespace gpuperf;

namespace {

uint32_t floatBits(float F) {
  uint32_t U;
  std::memcpy(&U, &F, 4);
  return U;
}

/// Fills the leading \p Rows x \p Cols of the column-major matrix at
/// \p Addr (leading dimension \p Ld) from \p R, column by column, each
/// column through one bounds check; the padding keeps the device image's
/// zeros.
void fillRandom(GlobalMemory &GM, uint32_t Addr, int Ld, int Rows, int Cols,
                Rng &R) {
  for (int C = 0; C < Cols; ++C) {
    std::span<uint8_t> Column =
        GM.bytes(Addr + 4 * (static_cast<uint64_t>(C) * Ld), 4 * Rows);
    assert(!Column.empty() && "matrix column outside its allocation");
    for (size_t Off = 0; Off < Column.size(); Off += 4) {
      const float F = R.nextUnitFloat();
      std::memcpy(&Column[Off], &F, 4);
    }
  }
}

std::vector<float> download(const GlobalMemory &GM, uint32_t Addr,
                            size_t Elems) {
  std::vector<float> Out(Elems);
  std::span<const uint8_t> Src = GM.bytes(Addr, 4 * Elems);
  assert(!Src.empty() && "matrix outside its allocation");
  if (!Src.empty())
    std::memcpy(Out.data(), Src.data(), Src.size());
  return Out;
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

  // Nothing reads a timing-only launch's values, so a kernel whose
  // timing cannot depend on them needs none.
  const bool TimingOnly =
      !Options.Verify && !proveValueOblivious(K).failed();
  auto Operands = makeSgemmOperands(
      Cfg, Problem,
      TimingOnly ? std::nullopt : std::optional<uint64_t>(Options.Seed));
  if (!Operands)
    return ER::error(Operands.message());
  GlobalMemory &GM = Operands->GM;
  const uint32_t *Addr = Operands->Addr;
  // referenceSgemm's inputs, read back before the launch overwrites C.
  std::vector<float> Host[3];
  if (Options.Verify)
    for (int I = 0; I < 3; ++I)
      Host[I] = download(GM, Addr[I], Operands->Elems[I]);

  SgemmLaunchShape Shape = sgemmLaunchShape(Cfg);
  LaunchConfig Launch;
  Launch.Dims.GridX = Shape.GridX;
  Launch.Dims.GridY = Shape.GridY;
  Launch.Dims.BlockX = Shape.BlockX;
  Launch.Params = {Addr[0], Addr[1], Addr[2], floatBits(Problem.Alpha),
                   floatBits(Problem.Beta)};
  Launch.Mode = Options.Mode;
  Launch.Jobs = Options.Jobs;
  Launch.TimingOnly = TimingOnly;
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
    std::vector<float> &Want = Host[2];
    referenceSgemm(Cfg.Variant, MP, NP, KP, Problem.Alpha, Host[0].data(),
                   Cfg.Lda, Host[1].data(), Cfg.Ldb, Problem.Beta,
                   Want.data(), MP);
    const std::vector<float> Got = download(GM, Addr[2], Want.size());
    // An element passes only when it equals the reference, so a NaN
    // never does; a NaN error sticks in the maximum.
    size_t Bad = 0;
    double MaxErr = 0;
    for (size_t I = 0; I < Want.size(); ++I) {
      if (Got[I] == Want[I])
        continue;
      ++Bad;
      const double Err = std::fabs(Got[I] - Want[I]);
      if (std::isnan(Err) || Err > MaxErr)
        MaxErr = Err;
    }
    Result.MaxAbsError = MaxErr;
    Result.Verified = Bad == 0;
    if (!Result.Verified)
      return ER::error(formatString(
          "SGEMM verification failed: %zu of %zu elements differ from the "
          "reference, max abs error %g",
          Bad, Want.size(), MaxErr));
  }
  return Result;
}

Expected<SgemmOperands>
gpuperf::makeSgemmOperands(const SgemmKernelConfig &Cfg,
                           const SgemmProblem &Problem,
                           std::optional<uint64_t> Seed) {
  using ER = Expected<SgemmOperands>;
  const bool TA = transA(Cfg.Variant), TB = transB(Cfg.Variant);
  SgemmOperands Out;
  Out.Elems[0] = static_cast<size_t>(Cfg.Lda) * (TA ? Cfg.M : Cfg.K);
  Out.Elems[1] = static_cast<size_t>(Cfg.Ldb) * (TB ? Cfg.K : Cfg.N);
  Out.Elems[2] = static_cast<size_t>(Cfg.M) * Cfg.N;
  const size_t *Elems = Out.Elems;
  if (!GlobalMemory::fitsFresh({4 * Elems[0], 4 * Elems[1], 4 * Elems[2]}))
    return ER::error(formatString(
        "matrices do not fit the simulated device: %dx%dx%d padded to "
        "%dx%dx%d needs more than the 32-bit address space",
        Problem.M, Problem.N, Problem.K, Cfg.M, Cfg.N, Cfg.K));

  Out.GM = GlobalMemory((Elems[0] + Elems[1] + Elems[2]) * 4 + (1 << 16));
  for (int I = 0; I < 3; ++I)
    Out.Addr[I] = Out.GM.allocate(Elems[I] * 4);
  if (!Seed)
    return Out;
  Rng R(*Seed);
  fillRandom(Out.GM, Out.Addr[0], Cfg.Lda, TA ? Problem.K : Problem.M,
             TA ? Problem.M : Problem.K, R);
  fillRandom(Out.GM, Out.Addr[1], Cfg.Ldb, TB ? Problem.N : Problem.K,
             TB ? Problem.K : Problem.N, R);
  if (Problem.Beta != 0.0f)
    fillRandom(Out.GM, Out.Addr[2], Cfg.Ldc, Problem.M, Problem.N, R);
  return Out;
}

Expected<SgemmRunResult> gpuperf::runSgemm(const MachineDesc &M,
                                           SgemmImpl Impl,
                                           const SgemmProblem &Problem,
                                           const SgemmRunOptions &Options) {
  SgemmKernelConfig Cfg = baselineConfig(Impl, M, Problem.Variant,
                                         Problem.M, Problem.N, Problem.K);
  return runSgemmConfig(M, Cfg, Problem, Options);
}
