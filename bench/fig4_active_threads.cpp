//===- bench/fig4_active_threads.cpp - regenerate Figure 4 ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates Figure 4: throughput of the 6:1 FFMA/LDS.64 mix as the
// number of active threads per SM grows, for independent instructions and
// for the SGEMM-like pattern where the FFMAs depend on the load.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace gpuperf;

static void sweep(BenchRun &Run, const MachineDesc &M,
                  const std::vector<int> &Threads) {
  benchHeader(formatString(
      "Figure 4 (%s): FFMA/LDS.64 6:1 mix vs active threads per SM",
      M.Name.c_str()));
  PerfDatabase DB = Run.makeDatabase(M);
  auto Rows = runSweepSupervised(
      Run, formatString("fig4_%s", M.Name.c_str()), Threads.size(),
      [&](size_t I, const std::string &) {
        int N = Threads[I];
        return SweepPointAttempt::ok(
            {formatString("%d", N),
             formatDouble(DB.mixThroughput(6, MemWidth::B64, true, N),
                          1),
             formatDouble(DB.mixThroughput(6, MemWidth::B64, false, N),
                          1)});
      });
  Table T;
  T.setHeader({"active threads", "dependent", "independent"});
  for (auto &Row : Rows)
    if (Row)
      T.addRow(*Row);
  benchPrint(T.render());
  benchPrint("\n");
}

int main(int Argc, char **Argv) {
  BenchRun Run("fig4_active_threads", Argc, Argv);
  sweep(Run, gtx580(), {32, 64, 128, 192, 256, 384, 512, 768, 1024});
  sweep(Run, gtx680(), {32, 64, 128, 256, 512, 768, 1024, 1536, 2048});
  return 0;
}
