//===- sim/Launcher.h - grid launch and performance projection --*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-side launch API: distributes blocks across SMs in waves sized
/// by the occupancy calculator and runs the cycle-level SM simulator.
///
/// Two modes:
///  * Full: every block is simulated (functional results are complete);
///    total time is the slowest SM's sequence of waves.
///  * ProjectOneWave: only the first wave on one SM is simulated and the
///    total cycle count is extrapolated over all waves. Because the
///    paper's kernels have data-independent control flow, wave timing is
///    periodic and the extrapolation is validated against full simulation
///    in the test suite. This is what makes 4800x4800 SGEMM sweeps
///    tractable on a laptop-scale reproduction.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_LAUNCHER_H
#define GPUPERF_SIM_LAUNCHER_H

#include "arch/Occupancy.h"
#include "sim/Executor.h"
#include "sim/SMSimulator.h"

namespace gpuperf {

/// How much of the grid to simulate.
enum class SimMode {
  Full,           ///< All blocks on all SMs.
  ProjectOneWave, ///< First wave on one SM; extrapolate cycles.
};

/// A kernel launch request.
struct LaunchConfig {
  LaunchDims Dims;
  std::vector<uint32_t> Params; ///< Constant-bank words (LDC reads these).
  SimMode Mode = SimMode::Full;
  /// When > 0, caps resident blocks per SM below what the occupancy
  /// calculator allows (used by the active-thread sweeps of Figure 4).
  int MaxResidentBlocksOverride = 0;
  /// Per-wave watchdog cycle budget. 0 derives a generous default from
  /// the kernel's code size and the wave's warp count (see
  /// deriveWatchdogBudget); a kernel that loops forever fails with a
  /// WatchdogTimeout trap instead of hanging or silently breaking.
  uint64_t WatchdogCycles = 0;
  /// Host threads used to simulate independent SMs concurrently in
  /// SimMode::Full. 1 (the default) takes the serial path; <= 0 means
  /// one per hardware thread; > 1 simulates each SM against a private
  /// copy-on-write overlay of global memory, merged in SM index order
  /// afterwards -- results, statistics, cycles and traps are
  /// bit-identical to the serial path (enforced by parallel_sim_test).
  /// Like the rest of the launch API this assumes the CUDA contract that
  /// blocks of one launch do not communicate through global memory.
  int Jobs = 1;
  /// Set when the caller reads only the launch's timing -- the result,
  /// the trap and the observations -- and never the values it leaves in
  /// global memory. When the kernel passes proveValueOblivious
  /// (sim/ValueOblivious.h), the launch then skips the float math and
  /// the data moves of loads and stores (see Executor), with the same
  /// result, trap and observations as a valued launch; otherwise the
  /// field is ignored, so it can never change what a caller sees.
  bool TimingOnly = false;
  /// The observation sinks. Each one that is set (a probe engine also
  /// needs probes) receives the simulator's one event stream through a
  /// per-SM observer set (sim/Observers.h), merged in SM index order
  /// before any trap is reported, so every sink is bit-identical for
  /// every Jobs value, trapping launches included. With all three off,
  /// each firing site costs one untaken test.
  ///
  /// Trace: a per-warp issue / per-scheduler stall timeline
  /// (ring-buffered per track, capacity Trace->RingCapacity; see
  /// sim/Trace.h).
  SimTrace *Trace = nullptr;
  /// Profile: per-static-instruction counters (issues, dual-issue pairs,
  /// replays, lost slots by cause; see sim/Profile.h), satisfying
  /// Profile->breakdown() == Result.Stats.Breakdown on success.
  KernelProfile *Profile = nullptr;
  /// Probes: the engine's specs evaluated over the events (see
  /// probe/ProbeEngine.h). When null, a process-wide engine installed via
  /// setProcessProbeEngine (BenchRun --probe) is used instead -- partials
  /// merge into it when the launch returns, on every path including
  /// traps.
  ProbeEngine *Probes = nullptr;
};

/// Result of a (possibly projected) launch.
struct LaunchResult {
  SimStats Stats;          ///< Counters for the simulated portion.
  double TotalCycles = 0;  ///< Whole-grid cycles (projected in wave mode).
  Occupancy Occ;           ///< Residency used during simulation.
  int WavesSimulated = 0;
  int WavesTotal = 0;

  /// Wall-clock seconds of the whole grid on machine \p M.
  double seconds(const MachineDesc &M) const {
    return TotalCycles / (M.ShaderClockMHz * 1e6);
  }
  /// GFLOPS given the launch's useful flop count.
  double gflops(const MachineDesc &M, double Flops) const {
    double S = seconds(M);
    return S > 0 ? Flops / S / 1e9 : 0.0;
  }
};

/// Default per-wave watchdog budget for a kernel of \p CodeSize static
/// instructions running \p WaveWarps warps: generous enough that every
/// legitimate workload (deep K-loops, dependence-stalled microbenchmark
/// chains, memory-latency-bound copies) finishes far below it, yet small
/// enough that a runaway kernel traps promptly relative to MaxWaveCycles.
uint64_t deriveWatchdogBudget(size_t CodeSize, int WaveWarps);

/// Launches \p K on \p M. Fails on unlaunchable configurations (occupancy
/// zero, bad parameters) or runtime faults inside the kernel. Runtime
/// faults produce a structured trap: the error message is the trap's
/// toString() and, when \p TrapOut is non-null, *TrapOut receives the
/// full TrapInfo (kind, warp, PC, cycle, detail).
Expected<LaunchResult> launchKernel(const MachineDesc &M, const Kernel &K,
                                    const LaunchConfig &Config,
                                    GlobalMemory &Global,
                                    TrapInfo *TrapOut = nullptr);

} // namespace gpuperf

#endif // GPUPERF_SIM_LAUNCHER_H
