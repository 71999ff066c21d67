//===- benchmark/Jitter.h - seed-derived inputs and digests -----*- C++ -*-===//
//
// Part of the gpuperf host-performance benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How --seed becomes inputs. Each operation's dimensions move by up to
/// +-5% of their base value in steps of 16, chosen by a hash of (seed,
/// salt) alone, so a shape never depends on which other operations ran
/// or in what order. Simulated throughput depends on shape (the paper's
/// Figures 6 and 7); jittering keeps an optimization from fitting one
/// fixed set of sizes. Dependency-free: selftest.cpp pins it.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_JITTER_H
#define HOSTBENCH_JITTER_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hostbench {

/// SplitMix64 finalizer: a well-mixed 64-bit hash of \p X.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Hash of a (seed, salt) pair; salts name one input of one operation.
inline uint64_t seedHash(uint64_t Seed, uint64_t Salt) {
  return mix64(Seed ^ mix64(Salt));
}

/// \p Base moved by a whole number of 16-steps, at most 5% of \p Base
/// either way (so bases under 320 never move).
inline int jitterDim(uint64_t Seed, uint64_t Salt, int Base) {
  int Steps = Base / 20 / 16;
  if (Steps <= 0)
    return Base;
  uint64_t Pick = seedHash(Seed, Salt) % static_cast<uint64_t>(2 * Steps + 1);
  return Base + 16 * (static_cast<int>(Pick) - Steps);
}

/// FNV-1a, the digest every simulated result folds into.
inline uint64_t fnv1a(uint64_t Hash, const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= P[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

inline constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

inline uint64_t fnvU64(uint64_t Hash, uint64_t V) {
  return fnv1a(Hash, &V, sizeof(V));
}

inline uint64_t fnvDouble(uint64_t Hash, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return fnvU64(Hash, Bits);
}

} // namespace hostbench

#endif // HOSTBENCH_JITTER_H
