//===- bench/fig2_ffma_lds_mix.cpp - regenerate Figure 2 ------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates Figure 2: thread-instruction throughput of independent
// FFMA/LDS.X mixes as the FFMA:LDS ratio grows, on Fermi and Kepler.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "ubench/MixBench.h"

using namespace gpuperf;

static void sweep(BenchRun &Run, const MachineDesc &M) {
  benchHeader(formatString("Figure 2 (%s): throughput mixing FFMA and "
                           "LDS.X, independent",
                           M.Name.c_str()));
  PerfDatabase DB = Run.makeDatabase(M);
  const std::vector<int> Ratios = {0, 1,  2,  3,  4,  6,  8,
                                   10, 12, 16, 20, 24, 28, 32};
  // One sweep point per ratio; the three widths inside a point share its
  // thread. Rows come back in ratio order whatever the job count.
  auto Rows = runSweepSupervised(
      Run, formatString("fig2_%s", M.Name.c_str()), Ratios.size(),
      [&](size_t I, const std::string &) {
        std::vector<std::string> Row = {formatString("%d", Ratios[I])};
        for (MemWidth W :
             {MemWidth::B32, MemWidth::B64, MemWidth::B128}) {
          MixBenchParams P;
          P.FfmaPerLds = Ratios[I];
          P.Width = W;
          Kernel K = generateMixBench(M, P);
          Row.push_back(
              formatDouble(DB.measureKernel(K, MeasureConfig()), 1));
        }
        return SweepPointAttempt::ok(std::move(Row));
      });
  Table T;
  T.setHeader({"FFMA/LDS ratio", "LDS", "LDS.64", "LDS.128"});
  for (auto &Row : Rows)
    if (Row)
      T.addRow(*Row);
  benchPrint(T.render());
  benchPrint("\n");

  // Where the issue slots go at the SGEMM-like operating point (6 FFMA
  // per LDS.64): the mix that Section 4's upper-bound argument reasons
  // about. Re-measured uncached because the breakdown needs live stats.
  MixBenchParams P;
  P.FfmaPerLds = 6;
  P.Width = MemWidth::B64;
  Kernel K = generateMixBench(M, P);
  SimStats S;
  measureThroughput(M, K, MeasureConfig(), &S);
  benchIssueSlotReport(M, S);
  benchPrint("\n");
}

int main(int Argc, char **Argv) {
  BenchRun Run("fig2_ffma_lds_mix", Argc, Argv);
  sweep(Run, gtx580());
  sweep(Run, gtx680());
  return 0;
}
