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
// runtime. The file is compiled with the dynamic vectorizer cost model
// and without floating-point contraction (see CMakeLists.txt): -O2's
// default model rejects any loop that needs a scalar epilogue, which the
// column loop below does for M not a multiple of the vector length.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
void gpuperf::referenceSgemm(GemmVariant Variant, int M, int N, int K,
                             float Alpha, const float *A, int Lda,
                             const float *B, int Ldb, float Beta, float *C,
                             int Ldc) {
  // op(A) as a column-major M x K matrix with leading dimension LdOpA:
  // A itself, or, when A is transposed, one transposed copy, so that the
  // inner loop below always reads a contiguous column.
  const float *OpA = A;
  size_t LdOpA = static_cast<size_t>(Lda);
  std::vector<float> ATransposed;
  if (transA(Variant)) {
    ATransposed.resize(static_cast<size_t>(M) * K);
    for (int I = 0; I < M; ++I)
      for (int KIdx = 0; KIdx < K; ++KIdx)
        ATransposed[static_cast<size_t>(KIdx) * M + I] =
            A[static_cast<size_t>(I) * Lda + KIdx];
    OpA = ATransposed.data();
    LdOpA = static_cast<size_t>(M);
  }
  // op(B)(KIdx, J) = B[KIdx * BStrideK + J * BStrideJ].
  const size_t BStrideK = transB(Variant) ? static_cast<size_t>(Ldb) : 1;
  const size_t BStrideJ = transB(Variant) ? 1 : static_cast<size_t>(Ldb);
  // One column of C at a time, K outermost: each step adds
  // op(A)(I, KIdx) * op(B)(KIdx, J) to the column's accumulator, so every
  // element still accumulates in ascending-k order, as a dot product
  // would, while consecutive fmas no longer depend on each other.
  std::vector<float> AccStore(static_cast<size_t>(M));
  float *__restrict Acc = AccStore.data();
  for (int J = 0; J < N; ++J) {
    std::fill(Acc, Acc + M, 0.0f);
    for (int KIdx = 0; KIdx < K; ++KIdx) {
      const float BKJ = B[KIdx * BStrideK + J * BStrideJ];
      const float *__restrict Col = OpA + KIdx * LdOpA;
      for (int I = 0; I < M; ++I)
        Acc[I] = std::fma(Col[I], BKJ, Acc[I]);
    }
    float *__restrict Out = C + static_cast<size_t>(J) * Ldc;
    for (int I = 0; I < M; ++I)
      Out[I] = std::fma(Acc[I], Alpha, Beta * Out[I]);
  }
}
