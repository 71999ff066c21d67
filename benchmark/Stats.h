//===- benchmark/Stats.h - medians, quartiles, bound verdicts ---*- C++ -*-===//
//
// Part of the gpuperf host-performance benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary statistics the benchmark reports and compares. Quartiles
/// follow Python's statistics.quantiles(values, n=4) (its default
/// "exclusive" method), so a spread computed here matches one computed
/// from the same JSON records in Python. Dependency-free: selftest.cpp
/// checks this header without the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_STATS_H
#define HOSTBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <vector>

namespace hostbench {

/// Median and quartiles of one sample.
struct Summary {
  double Median = 0;
  double Q1 = 0;
  double Q3 = 0;
  size_t N = 0;

  /// Inter-quartile range as a share of the median (0 when the median
  /// is 0, which only the fail_rate metric reaches).
  double spread() const {
    return Median != 0 ? (Q3 - Q1) / std::fabs(Median) : 0;
  }
};

inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

/// Median plus the first and third quartiles. With one sample both
/// quartiles equal it (Python rejects that case; a run of one is still
/// worth printing).
inline Summary summarize(std::vector<double> V) {
  Summary S;
  S.N = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  S.Median = median(V);
  if (V.size() == 1) {
    S.Q1 = S.Q3 = V[0];
    return S;
  }
  // statistics.quantiles(method='exclusive'): m = n + 1, j = i*m // 4
  // clamped to [1, n-1], delta = i*m - 4*j, interpolate data[j-1..j].
  const long Len = static_cast<long>(V.size());
  auto Quartile = [&](long I) {
    long M = Len + 1;
    long J = std::clamp(I * M / 4, 1L, Len - 1);
    long Delta = I * M - J * 4;
    return (V[J - 1] * static_cast<double>(4 - Delta) +
            V[J] * static_cast<double>(Delta)) /
           4;
  };
  S.Q1 = Quartile(1);
  S.Q3 = Quartile(3);
  return S;
}

/// Outcome of comparing a change (B) against its parent (A).
enum class Verdict {
  Within,     ///< B's median is not worse than A's by more than the bound.
  Regressed,  ///< B's median is worse by more than the bound.
  Unresolved, ///< The run-to-run spread is wider than the bound.
};

inline const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Within:
    return "within";
  case Verdict::Regressed:
    return "regressed";
  case Verdict::Unresolved:
    return "unresolved";
  }
  return "?";
}

/// How far B's median is worse than A's, as a share of A's median
/// (negative when B is better). A zero base compares absolutely, so any
/// increase of a metric whose parent reads 0 (fail_rate) counts.
inline double worseBy(double MedianA, double MedianB, bool HigherIsBetter) {
  double Diff = HigherIsBetter ? MedianA - MedianB : MedianB - MedianA;
  return MedianA != 0 ? Diff / std::fabs(MedianA) : Diff;
}

/// The regression rule: a metric whose spread (on either side) is wider
/// than \p Bound is unresolved, unless every run of B reads better than
/// every run of A; otherwise B regressed when its median is worse than
/// A's by more than \p Bound. A \p SpreadExempt metric is judged on its
/// medians alone.
inline Verdict compareRuns(const std::vector<double> &A,
                           const std::vector<double> &B, double Bound,
                           bool HigherIsBetter, bool SpreadExempt = false) {
  Summary SA = summarize(A), SB = summarize(B);
  if (!SpreadExempt && std::max(SA.spread(), SB.spread()) > Bound) {
    bool AllBetter = !A.empty() && !B.empty();
    for (double VA : A)
      for (double VB : B)
        AllBetter &= HigherIsBetter ? VB > VA : VB < VA;
    return AllBetter ? Verdict::Within : Verdict::Unresolved;
  }
  return worseBy(SA.Median, SB.Median, HigherIsBetter) > Bound
             ? Verdict::Regressed
             : Verdict::Within;
}

} // namespace hostbench

#endif // HOSTBENCH_STATS_H
