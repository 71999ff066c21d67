//===- bench/fig5_sgemm_variants.cpp - regenerate Figure 5 ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates Figure 5: GFLOPS of the four SGEMM transpose variants for
// the CUBLAS-like baseline and the hand-written assembly implementation,
// at 2400x2400 and 4800x4800, on both GPUs.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sgemm/SgemmRunner.h"

using namespace gpuperf;

int main(int Argc, char **Argv) {
  BenchRun Run("fig5_sgemm_variants", Argc, Argv);
  benchHeader("Figure 5: SGEMM performance of CUBLAS-like and ASM "
              "implementations (GFLOPS)");
  struct Point {
    const MachineDesc *M;
    int Size;
    GemmVariant V;
  };
  std::vector<Point> Points;
  for (const MachineDesc *M : {&gtx580(), &gtx680()})
    for (int Size : {2400, 4800})
      for (GemmVariant V : {GemmVariant::NN, GemmVariant::NT,
                            GemmVariant::TN, GemmVariant::TT})
        Points.push_back({M, Size, V});

  auto Rows = runSweepSupervised(
      Run, "fig5", Points.size(), [&](size_t I, const std::string &) {
        const Point &Pt = Points[I];
        SgemmProblem P;
        P.Variant = Pt.V;
        P.M = P.N = P.K = Pt.Size;
        SgemmRunOptions O;
        O.Mode = SimMode::ProjectOneWave;
        auto Cublas = runSgemm(*Pt.M, SgemmImpl::CublasLike, P, O);
        auto Asm = runSgemm(*Pt.M, SgemmImpl::AsmTuned, P, O);
        if (!Cublas || !Asm)
          return SweepPointAttempt::fatal(Cublas ? Asm.message()
                                                 : Cublas.message());
        return SweepPointAttempt::ok(
            {Pt.M->Name, formatString("%d", Pt.Size),
             gemmVariantName(Pt.V), formatDouble(Cublas->Gflops, 0),
             formatDouble(Asm->Gflops, 0),
             formatDouble(Asm->Gflops / Cublas->Gflops, 3)});
      });

  Table T;
  T.setHeader({"machine", "size", "variant", "CUBLAS-like", "ASM",
               "speedup"});
  for (auto &Row : Rows)
    if (Row)
      T.addRow(*Row);
  benchPrint(T.render());
  benchPrint("\nPaper: ~5% average ASM advantage on GTX580; ASM and "
             "CUBLAS comparable on GTX680 (both ~1250-1400 GFLOPS).\n");
  return 0;
}
