//===- bench/table2_math_throughput.cpp - regenerate Table 2 --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
// Regenerates the paper's Table 2: math instruction throughput on Kepler
// GK104 for operand patterns with different register-bank layouts, using
// the same methodology (register-renamed independent copies of the
// pattern unrolled; throughput in thread instructions per shader cycle
// per SMX).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ubench/MixBench.h"
#include "ubench/OpPattern.h"

using namespace gpuperf;

int main(int Argc, char **Argv) {
  BenchRun Run("table2_math_throughput", Argc, Argv);
  benchHeader("Table 2: Kepler math instruction throughput vs operand "
              "register indices");
  const MachineDesc &M = gtx680();
  PerfDatabase DB = Run.makeDatabase(M);
  MeasureConfig Cfg;
  Cfg.ThreadsPerBlock = 1024;
  Cfg.BlocksPerSM = 1;

  const std::vector<Table2Row> Patterns = table2Patterns();
  auto Rows = runSweepSupervised(
      Run, "table2", Patterns.size(),
      [&](size_t I, const std::string &) {
        const Table2Row &Row = Patterns[I];
        Kernel K = generateOpPatternBench(M, Row.Pattern);
        double Measured = DB.measureKernel(K, Cfg);
        return SweepPointAttempt::ok(
            {Row.Syntax, formatDouble(Row.PaperThroughput, 1),
             formatDouble(Measured, 1),
             formatDouble(Measured / Row.PaperThroughput, 3)});
      });
  Table T;
  T.setHeader({"pattern", "paper", "measured", "ratio"});
  for (auto &Row : Rows)
    if (Row)
      T.addRow(*Row);
  benchPrint(T.render());

  // The Section 3.3 repeated-source structure.
  Kernel Rep = generateOpPatternBench(M, makeFFMA(4, 3, 3, 4));
  benchPrint(formatString(
      "\nFFMA RA, RB, RB, RA (repeated source, Section 3.3): paper ~178, "
      "measured %.1f\n",
      DB.measureKernel(Rep, Cfg)));

  // Where the slots went for the worst pattern of the table (FFMA with a
  // 3-way bank conflict): the lost issue bandwidth shows up as
  // bank_conflict slots, which is the paper's Table 2 explanation made
  // directly observable.
  benchPrint("\n");
  Kernel Conflicted = generateOpPatternBench(M, makeFFMA(0, 1, 3, 9));
  SimStats S;
  measureThroughput(M, Conflicted, Cfg, &S);
  benchIssueSlotReport(M, S);
  return 0;
}
