//===- bench/fig7_sgemm_nn_kepler.cpp - regenerate Figure 7 ---------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates Figure 7: SGEMM NN GFLOPS vs matrix size on GTX680 for the
// hand-written assembly, the CUBLAS-4.2-like baseline and the MAGMA-like
// baseline (the Fermi MAGMA kernel run on Kepler, where it spills).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sgemm/SgemmRunner.h"

using namespace gpuperf;

int main(int Argc, char **Argv) {
  BenchRun Run("fig7_sgemm_nn_kepler", Argc, Argv);
  benchHeader("Figure 7: SGEMM NN performance on GTX680 (GFLOPS)");
  const MachineDesc &M = gtx680();
  const std::vector<int> Sizes = {480,  960,  1440, 1920, 2400,
                                  2880, 3360, 3840, 4320, 4800};
  auto Rows = runSweepSupervised(
      Run, "fig7", Sizes.size(),
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
      "\nTheoretical peak %.0f GFLOPS; paper: best assembly ~1300 GFLOPS "
      "(42%%), CUBLAS 4.2 similar, MAGMA below both.\n",
      M.theoreticalPeakGflops()));
  return 0;
}
