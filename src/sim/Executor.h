//===- sim/Executor.h - functional execution of warp instructions -*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes one instruction functionally for all 32 lanes of a warp at
/// once (one lane mask, one register row per operand), and reports the
/// side information the timing model needs: shared-memory bank
/// serialization, global-memory transaction counts, and control effects.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_EXECUTOR_H
#define GPUPERF_SIM_EXECUTOR_H

#include "arch/MachineDesc.h"
#include "isa/Module.h"
#include "sim/Memory.h"
#include "sim/Trap.h"
#include "sim/Warp.h"
#include "support/Error.h"

#include <vector>

namespace gpuperf {

/// Grid/block geometry of a launch (2D is all the paper's kernels need).
struct LaunchDims {
  int GridX = 1, GridY = 1;
  int BlockX = 1, BlockY = 1;

  int threadsPerBlock() const { return BlockX * BlockY; }
  int numBlocks() const { return GridX * GridY; }
  int warpsPerBlock() const {
    return (threadsPerBlock() + WarpSize - 1) / WarpSize;
  }
};

/// Timing-relevant side effects of executing one warp instruction.
struct ExecEffects {
  bool BranchTaken = false;
  bool IsBarrier = false;
  bool IsExit = false;
  /// Shared access serialization multiplier (>= 1); 1 for non-shared ops.
  double SharedSerialization = 1.0;
  /// Number of 128-byte global transactions generated (0 for non-global).
  int GlobalTransactions = 0;
  /// Total bytes moved to/from global memory.
  int GlobalBytes = 0;
  /// Runtime trap raised by this instruction (TrapKind::None when OK):
  /// out-of-bounds or misaligned accesses, divergent branches, invalid
  /// register indices, unimplemented opcodes.
  TrapKind Trap = TrapKind::None;
  /// Faulting address (memory traps) and first faulting lane.
  uint64_t TrapAddress = 0;
  int TrapLane = -1;
  /// Extra context for the diagnostic (e.g. the offending offset).
  std::string TrapDetail;

  bool faulted() const { return Trap != TrapKind::None; }
};

/// FFMA on one 32-lane row: D[L] = fma(A[L], B[L], C[L]) for every lane L
/// in \p Mask, as float bit patterns, with NaN results canonicalized to
/// 0x7fffffff; lanes outside the mask keep their value. \p D may alias any
/// source row. The fused multiply-add is exactly rounded (IEEE 754), so
/// every host computes the same bits.
void ffmaRow(uint32_t Mask, const uint32_t *A, const uint32_t *B,
             const uint32_t *C, uint32_t *D);

/// Shared-memory serialization multiplier (>= 1) of one warp access of
/// \p Width bytes at the \p NumAddrs lane addresses in \p Addrs, which
/// are in bounds and \p Width-aligned, on \p NumBanks banks of
/// \p BankBytes each (both powers of two). Lanes touching distinct words
/// in one bank serialize; lanes reading the same word broadcast.
double sharedSerialization(const int64_t *Addrs, int NumAddrs, int Width,
                           int NumBanks, int BankBytes);

/// Functional executor bound to one launch's memories and geometry.
///
/// Global memory is accessed through a GlobalMemoryView, so the same
/// executor code serves both the serial path (direct view) and the
/// parallel per-SM path (view over a private write overlay).
///
/// A \p TimingOnly executor computes no FFMA, FADD or FMUL result and
/// moves no word of a load or store; it still computes every address,
/// raises every trap, and reports the same bank serialization and
/// coalescing. Its effects equal a valued executor's only for a kernel
/// that proveValueOblivious (sim/ValueOblivious.h) accepts, and only the
/// launcher decides to use one.
class Executor {
public:
  Executor(const MachineDesc &M, GlobalMemoryView Global,
           const std::vector<uint32_t> &Params, const LaunchDims &Dims,
           bool TimingOnly = false)
      : M(M), Global(Global), Params(Params), Dims(Dims),
        TimingOnly(TimingOnly) {}

  /// Executes \p I for warp \p W whose block is \p BlockIdxLinear
  /// (linearized ctaid) with shared memory \p Shared. Advances nothing;
  /// the caller owns the PC.
  ExecEffects execute(const Instruction &I, WarpContext &W,
                      int BlockIdxLinear, SharedMemory &Shared) const;

private:
  const MachineDesc &M;
  GlobalMemoryView Global;
  const std::vector<uint32_t> &Params;
  const LaunchDims &Dims;
  bool TimingOnly;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_EXECUTOR_H
