//===- bench/fig6_sgemm_nn_fermi.cpp - regenerate Figure 6 ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates Figure 6: SGEMM NN GFLOPS vs matrix size on GTX580 for the
// hand-written assembly, the CUBLAS-4.1-like baseline and the MAGMA-like
// baseline.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sgemm/SgemmRunner.h"

using namespace gpuperf;

int main(int Argc, char **Argv) {
  BenchRun Run("fig6_sgemm_nn_fermi", Argc, Argv);
  benchHeader("Figure 6: SGEMM NN performance on GTX580 (GFLOPS)");
  const MachineDesc &M = gtx580();
  const std::vector<int> Sizes = {480,  960,  1440, 1920, 2400,
                                  2880, 3360, 3840, 4320, 4800};
  auto Rows = runSweepSupervised(
      Run, "fig6", Sizes.size(),
      [&](size_t I, const std::string &) {
        SgemmProblem P;
        P.M = P.N = P.K = Sizes[I];
        SgemmRunOptions O;
        O.Mode = SimMode::ProjectOneWave;
        std::vector<std::string> Row = {formatString("%d", Sizes[I])};
        for (SgemmImpl Impl : {SgemmImpl::AsmTuned,
                               SgemmImpl::CublasLike,
                               SgemmImpl::MagmaLike}) {
          auto R = runSgemm(M, Impl, P, O);
          if (!R)
            return SweepPointAttempt::fatal(R.message());
          Row.push_back(formatDouble(R->Gflops, 0));
        }
        return SweepPointAttempt::ok(std::move(Row));
      });
  Table T;
  T.setHeader({"size", "assembly", "cublas-like", "magma-like"});
  for (auto &Row : Rows)
    if (Row)
      T.addRow(*Row);
  benchPrint(T.render());
  benchPrint(formatString(
      "\nTheoretical peak %.0f GFLOPS; paper: assembly ~74%%, ~5%% above "
      "CUBLAS 4.1 for large sizes.\n",
      M.theoreticalPeakGflops()));
  return 0;
}
