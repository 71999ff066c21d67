//===- bench/model_validation.cpp - bound-vs-achieved validation ----------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// The defining property of the paper's model is that it is an *upper
// bound*: no implementation, on any configuration, may exceed it. This
// bench sweeps implementations and configurations on both machines and
// checks achieved <= bound everywhere, reporting tightness.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "model/UpperBound.h"
#include "sgemm/SgemmRunner.h"

using namespace gpuperf;

int main(int Argc, char **Argv) {
  BenchRun Run("model_validation", Argc, Argv);
  benchHeader("Model validation: every measured configuration must stay "
              "under its upper bound (SGEMM NN 1920^3)");
  bool AllUnderBound = true;
  for (const MachineDesc *MP : {&gtx580(), &gtx680()}) {
    const MachineDesc &M = *MP;
    PerfDatabase DB = Run.makeDatabase(M);
    UpperBoundModel Model(DB);
    struct Case {
      SgemmKernelConfig Cfg;
      SgemmModelParams Params;
    };
    std::vector<Case> Cases;
    for (int BR : {4, 6}) {
      for (MemWidth W : {MemWidth::B32, MemWidth::B64}) {
        Case C;
        C.Cfg.BR = BR;
        C.Cfg.LdsWidth = W;
        C.Params.BR = BR;
        C.Params.LdsWidth = W;
        Cases.push_back(C);
      }
    }
    // Each case is an independent model analysis + simulator run, so the
    // sweep fans across --jobs threads; rows land in case order, and each
    // case writes only its own over-bound flag.
    std::vector<uint8_t> Exceeded(Cases.size(), 0);
    auto Rows = runSweepSupervised(
        Run, formatString("model_validation_%s", M.Name.c_str()),
        Cases.size(), [&](size_t I, const std::string &) {
          const Case &C = Cases[I];
          UpperBoundReport Bound = Model.analyze(C.Params);
          SgemmProblem P;
          P.M = P.N = P.K = 1920;
          SgemmRunOptions O;
          O.Mode = SimMode::ProjectOneWave;
          auto R = runSgemmConfig(M, C.Cfg, P, O);
          if (!R)
            return SweepPointAttempt::fatal(R.message());
          double Pct = 100 * R->Gflops / Bound.PotentialGflops;
          Exceeded[I] = R->Gflops > Bound.PotentialGflops;
          return SweepPointAttempt::ok(
              {formatString("BR=%d %s", C.Params.BR,
                            C.Params.LdsWidth == MemWidth::B64 ? "LDS.64"
                                                               : "LDS"),
               formatDouble(Bound.PotentialGflops, 0),
               formatDouble(R->Gflops, 0), formatDouble(Pct, 1) + "%"});
        });
    Table T;
    T.setHeader({"configuration", "bound", "achieved", "% of bound"});
    for (size_t I = 0; I < Rows.size(); ++I) {
      if (Exceeded[I])
        AllUnderBound = false;
      if (Rows[I])
        T.addRow(*Rows[I]);
    }
    benchPrint(formatString("\n%s:\n", M.Name.c_str()));
    benchPrint(T.render());
  }
  benchPrint(AllUnderBound
                 ? "\nPASS: no configuration exceeded its bound.\n"
                 : "\nFAIL: a configuration exceeded its bound!\n");
  return AllUnderBound ? 0 : 1;
}
