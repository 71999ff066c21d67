//===- sgemm/Reference.cpp - host reference SGEMM --------------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sgemm/Reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

using namespace gpuperf;

// Built for x86-64-v3 and for the default target, so that std::fma is the
// FMA instruction where the host has one; fma is exactly rounded, so both
// clones compute the same bits. Not under ThreadSanitizer: its binaries
// crash at startup when the clone's ifunc resolver runs before its
// runtime.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
void gpuperf::referenceSgemm(GemmVariant Variant, int M, int N, int K,
                             float Alpha, const float *A, int Lda,
                             const float *B, int Ldb, float Beta, float *C,
                             int Ldc) {
  const bool TA = transA(Variant);
  const bool TB = transB(Variant);
  auto OpA = [&](int I, int KIdx) {
    return TA ? A[static_cast<size_t>(I) * Lda + KIdx]
              : A[static_cast<size_t>(KIdx) * Lda + I];
  };
  auto OpB = [&](int KIdx, int J) {
    return TB ? B[static_cast<size_t>(KIdx) * Ldb + J]
              : B[static_cast<size_t>(J) * Ldb + KIdx];
  };
  // One column of C at a time, K outermost: each step adds
  // op(A)(I, KIdx) * op(B)(KIdx, J) to the column's accumulator, so every
  // element still accumulates in ascending-k order, as a dot product
  // would, while consecutive fmas no longer depend on each other.
  std::vector<float> Acc(static_cast<size_t>(M));
  for (int J = 0; J < N; ++J) {
    std::fill(Acc.begin(), Acc.end(), 0.0f);
    for (int KIdx = 0; KIdx < K; ++KIdx) {
      const float BKJ = OpB(KIdx, J);
      for (int I = 0; I < M; ++I)
        Acc[I] = std::fma(OpA(I, KIdx), BKJ, Acc[I]);
    }
    for (int I = 0; I < M; ++I) {
      float &Out = C[static_cast<size_t>(J) * Ldc + I];
      Out = std::fma(Acc[I], Alpha, Beta * Out);
    }
  }
}
