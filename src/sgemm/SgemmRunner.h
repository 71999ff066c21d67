//===- sgemm/SgemmRunner.h - end-to-end SGEMM on the simulator --*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The highest-level public API: run one SGEMM problem with a chosen
/// implementation on a simulated GPU, optionally verify the numerical
/// result against the host reference, and report performance.
///
/// Sizes need not be multiples of the kernel's block tile: matrices are
/// zero-padded into tile-aligned device buffers (the paper's kernels
/// handle edges with predication; padding exercises the same code paths
/// at equivalent cost).
///
/// Operands are filled from the RNG only when a value can matter: under
/// Verify, or for a kernel that proveValueOblivious (sim/ValueOblivious.h)
/// rejects. Otherwise nothing reads C and the kernel's timing provably
/// ignores the values, so the operands are allocated (the bounds checks
/// see the same allocation) but left zero, and the launch is
/// LaunchConfig::TimingOnly; every statistic and observation is
/// bit-identical to a filled, valued launch.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SGEMM_SGEMMRUNNER_H
#define GPUPERF_SGEMM_SGEMMRUNNER_H

#include "kernelgen/Baselines.h"
#include "kernelgen/SgemmGenerator.h"
#include "sim/Launcher.h"

#include <optional>

namespace gpuperf {

/// One SGEMM problem instance.
struct SgemmProblem {
  GemmVariant Variant = GemmVariant::NN;
  int M = 0, N = 0, K = 0;
  float Alpha = 1.0f;
  float Beta = 0.0f;
};

/// Result of a run.
struct SgemmRunResult {
  double Gflops = 0;        ///< Using 2*M*N*K flops of the padded problem.
  double Seconds = 0;
  double FractionOfPeak = 0;
  LaunchResult Launch;      ///< Simulator statistics.
  int RegsPerThread = 0;
  int CodeSize = 0;         ///< Static instructions in the kernel.
  double FfmaPercent = 0;   ///< Of executed thread instructions.
  /// True when verification ran and every element of C equals the
  /// reference (so a NaN element fails).
  bool Verified = false;
  double MaxAbsError = 0;
};

/// How to execute the run.
struct SgemmRunOptions {
  SimMode Mode = SimMode::ProjectOneWave;
  bool Verify = false; ///< Requires Mode == Full.
  /// Matrix-content RNG seed, used when the operands are filled (see
  /// the file comment).
  uint64_t Seed = 1;
  /// Threads simulating SMs concurrently in Full mode (see
  /// LaunchConfig::Jobs); results are bit-identical for every value.
  int Jobs = 1;
  /// Optional probe sink forwarded to LaunchConfig::Probes: fired
  /// events from the run are aggregated into this engine (per-SM state
  /// merged in SM index order, so results are Jobs-invariant).
  ProbeEngine *Probes = nullptr;
};

/// Device memory of one SGEMM run: padded, column-major A, B and C,
/// allocated in that order.
struct SgemmOperands {
  GlobalMemory GM{0};
  uint32_t Addr[3] = {};
  size_t Elems[3] = {};
};

/// Allocates the operands of \p Problem for \p Cfg, whose shape fields
/// (M, N, K, Lda, Ldb, Ldc, Variant) are already padded as runSgemmConfig
/// pads them. With a \p Seed, fills the true region of A and B, and of C
/// when Beta is nonzero, from Rng(*\p Seed) column by column; the rest,
/// and everything without a seed, reads zero. Fails before any memory
/// exists when the matrices do not fit the 32-bit device space.
Expected<SgemmOperands> makeSgemmOperands(const SgemmKernelConfig &Cfg,
                                          const SgemmProblem &Problem,
                                          std::optional<uint64_t> Seed);

/// Runs \p Problem with implementation \p Impl on machine \p M.
Expected<SgemmRunResult> runSgemm(const MachineDesc &M, SgemmImpl Impl,
                                  const SgemmProblem &Problem,
                                  const SgemmRunOptions &Options = {});

/// Runs a fully-custom kernel configuration (ablations); sizes in
/// \p Problem override the shape fields of \p Cfg.
Expected<SgemmRunResult> runSgemmConfig(const MachineDesc &M,
                                        SgemmKernelConfig Cfg,
                                        const SgemmProblem &Problem,
                                        const SgemmRunOptions &Options = {});

} // namespace gpuperf

#endif // GPUPERF_SGEMM_SGEMMRUNNER_H
