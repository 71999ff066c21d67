//===- benchmark/selftest.cpp - checks of the benchmark's own math --------===//
//
// Part of the gpuperf host-performance benchmark.
//
// Dependency-free checks of what the benchmark computes itself: medians
// and quartiles (against values from Python's statistics module), span
// self time, bound verdicts, and the seed-to-shape jitter. run.sh runs it
// before any workload; exit status 1 means a check failed.
//
//===----------------------------------------------------------------------===//

#include "Jitter.h"
#include "Spans.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace hostbench;

static int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

static bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

static void testQuartiles() {
  // Expected values: statistics.quantiles(data, n=4) and median(data).
  Summary S = summarize({5, 1, 4, 2, 3});
  CHECK(near(S.Q1, 1.5) && near(S.Median, 3) && near(S.Q3, 4.5));
  S = summarize({1, 2, 3, 4});
  CHECK(near(S.Q1, 1.25) && near(S.Median, 2.5) && near(S.Q3, 3.75));
  S = summarize({1, 3});
  CHECK(near(S.Q1, 0.5) && near(S.Median, 2) && near(S.Q3, 3.5));
  S = summarize({7.0, 1.5, 3.25, 9.0, 2.0, 8.5, 4.0, 6.0, 5.5, 10.0});
  CHECK(near(S.Q1, 2.9375) && near(S.Median, 5.75) && near(S.Q3, 8.625));
  CHECK(near(S.spread(), (8.625 - 2.9375) / 5.75));
  S = summarize({4});
  CHECK(S.N == 1 && S.Q1 == 4 && S.Median == 4 && S.Q3 == 4);
  CHECK(summarize({}).N == 0 && median({}) == 0);
}

static void testSelfTime() {
  // root [0,100] > a [10,40] > a1 [20,30]; root > b [50,90], c [80,95]
  // (b and c overlap: the union, not the sum, is subtracted).
  std::vector<Span> S(5);
  S[0] = {"root", 0, 100, -1, 0, false};
  S[1] = {"a", 10, 40, 0, 0, false};
  S[2] = {"a1", 20, 30, 1, 0, false};
  S[3] = {"b", 50, 90, 0, 0, false};
  S[4] = {"c", 80, 95, 0, 0, false};
  std::vector<int64_t> Self = selfTimes(S);
  CHECK(Self[0] == 100 - 30 - 45);
  CHECK(Self[1] == 20);
  CHECK(Self[2] == 10 && Self[3] == 40 && Self[4] == 15);

  // A child sticking out of its parent only covers the overlap.
  std::vector<Span> Out(2);
  Out[0] = {"p", 0, 10, -1, 0, false};
  Out[1] = {"c", 5, 20, 0, 0, false};
  CHECK(selfTimes(Out)[0] == 5);

  // The recorder nests, numbers ops per root and marks calibration.
  SpanRecorder R(true);
  {
    SpanRecorder::Scope Op(R, "op");
    SpanRecorder::Scope Layer(R, "layer");
  }
  {
    SpanRecorder::Scope Cal(R, "calibrate.x");
    SpanRecorder::Scope Layer(R, "layer");
  }
  const std::vector<Span> &Rec = R.spans();
  CHECK(Rec.size() == 4);
  CHECK(Rec[0].Parent == -1 && Rec[1].Parent == 0 && Rec[3].Parent == 2);
  CHECK(Rec[0].Op == 0 && Rec[1].Op == 0 && Rec[2].Op == 1 && Rec[3].Op == 1);
  CHECK(!Rec[1].Calibration && Rec[2].Calibration && Rec[3].Calibration);
  CHECK(Rec[1].StartNs >= Rec[0].StartNs && Rec[1].EndNs <= Rec[0].EndNs);
  CHECK(R.chromeTraceJson().find("\"name\":\"calibrate.x\"") !=
        std::string::npos);

  SpanRecorder Off(false);
  { SpanRecorder::Scope Op(Off, "op"); }
  CHECK(Off.spans().empty());
}

static void testVerdicts() {
  const std::vector<double> A = {100, 101, 99, 100, 100};
  // Lower is better: 3% worse is within a 7% bound, 10% worse is not.
  CHECK(compareRuns(A, {103, 103, 104, 102, 103}, 0.07, false) ==
        Verdict::Within);
  CHECK(compareRuns(A, {110, 111, 109, 110, 110}, 0.07, false) ==
        Verdict::Regressed);
  // Higher is better flips the direction.
  CHECK(compareRuns(A, {90, 91, 89, 90, 90}, 0.07, true) ==
        Verdict::Regressed);
  CHECK(compareRuns(A, {110, 111, 109, 110, 110}, 0.07, true) ==
        Verdict::Within);
  // A spread wider than the bound is unresolved, unless every run of B
  // beats every run of A.
  const std::vector<double> Noisy = {80, 120, 100, 90, 110};
  CHECK(compareRuns(A, Noisy, 0.07, false) == Verdict::Unresolved);
  // A spread-exempt metric (setup_s) is judged on its medians alone.
  CHECK(compareRuns(A, Noisy, 0.07, false, true) == Verdict::Within);
  CHECK(compareRuns(A, {90, 130, 110, 100, 120}, 0.07, false, true) ==
        Verdict::Regressed);
  CHECK(compareRuns({100, 140, 120, 110, 130}, {60, 95, 80, 70, 90}, 0.07,
                    false) == Verdict::Within);
  // A zero base (fail_rate) counts any increase of the median.
  CHECK(compareRuns({0, 0, 0}, {0, 0.01, 0}, 0.0, false) == Verdict::Within);
  CHECK(compareRuns({0, 0, 0}, {0.01, 0.01, 0.01}, 0.0, false) ==
        Verdict::Regressed);
  CHECK(compareRuns({0, 0, 0}, {0, 0, 0}, 0.0, false) == Verdict::Within);
}

static void testJitter() {
  const int Bases[] = {128, 256, 320, 480, 960, 1440, 2400, 4320};
  bool SeedMatters = false;
  for (int Base : Bases)
    for (uint64_t Salt = 0; Salt < 64; ++Salt) {
      int V = jitterDim(1, Salt, Base);
      CHECK(V == jitterDim(1, Salt, Base)); // Stable for a given seed.
      CHECK((V - Base) % 16 == 0);
      CHECK(std::abs(V - Base) * 20 <= Base); // Within +-5%.
      if (Base < 320)
        CHECK(V == Base);
      SeedMatters |= V != jitterDim(2, Salt, Base);
    }
  CHECK(SeedMatters);
  // Pinned values: a change here changes every workload's inputs, which
  // makes runs before and after it incomparable.
  CHECK(jitterDim(1, 7, 4320) == 4160);
  CHECK(jitterDim(2, 7, 4320) == 4464);
  CHECK(jitterDim(1, 3, 1440) == 1424);
  CHECK(seedHash(1, 0) == 0x08b4fda8c892b50eull);
}

int main() {
  testQuartiles();
  testSelfTime();
  testVerdicts();
  testJitter();
  if (Failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
