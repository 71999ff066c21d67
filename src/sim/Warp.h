//===- sim/Warp.h - per-warp architectural and timing state -----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_WARP_H
#define GPUPERF_SIM_WARP_H

#include "isa/Instruction.h"

#include <array>
#include <cstdint>
#include <vector>

namespace gpuperf {

/// Number of threads per warp (fixed across all three generations).
inline constexpr int WarpSize = 32;

/// Architectural plus timing state of one resident warp.
struct WarpContext {
  // --- Scheduler state ------------------------------------------------------
  // Everything the simulator's per-cycle scan, slot gate and wake search
  // read of a warp, kept together at the front so that one visit reads
  // 48 contiguous bytes.
  int PC = 0;
  bool Done = false;
  bool AtBarrier = false;
  /// True when the previous instruction's notation set the yield flag:
  /// scoreboard waits are free (no replay penalty) for the next issue.
  bool NoPenaltyWait = false;
  /// True when the warp traps as soon as it takes an issue slot: its PC
  /// is off the code, or the instruction there references registers
  /// outside the files. Kept by the simulator at every PC change.
  bool TrapsAtIssue = false;
  /// The simulator's pipe mask of the instruction at PC (0 when
  /// TrapsAtIssue), kept at every PC change.
  uint8_t Pipes = 0;
  /// Warp may not issue before this cycle (control-notation stalls,
  /// replay penalties).
  uint64_t StallUntil = 0;
  /// Cycle at which every operand of the instruction at PC is ready:
  /// the latest RegReady/PredReady entry it reads or writes, kept by the
  /// simulator (0 for a fresh warp, whose entries are all 0).
  uint64_t ReadyAt = 0;
  /// Round-robin ranking aid: cycle of last issue.
  uint64_t LastIssue = 0;
  /// Neighbours in the scheduler's last-issue order (indices into the
  /// simulator's warps, -1 past either end), kept by the simulator.
  int OlderByIssue = -1, NewerByIssue = -1;

  // --- Identity -----------------------------------------------------------
  int BlockSlot = 0;   ///< Index into the SM's resident-block array.
  int WarpInBlock = 0; ///< Warp index within its block.
  uint32_t ActiveMask = 0xffffffffu; ///< Lanes holding real threads.

  // --- Architectural state --------------------------------------------------
  /// 63 GPRs x 32 lanes; index Reg * WarpSize + Lane. RZ is not stored.
  /// Once the warp runs, rows are written only through writeRow.
  std::vector<uint32_t> Regs;
  /// Per-lane predicate bits, one 32-bit mask per predicate register.
  std::array<uint32_t, NumPredRegs> Preds = {};

  // --- Timing state ---------------------------------------------------------
  /// Cycle at which each register's pending write completes.
  std::array<uint64_t, 64> RegReady = {};
  std::array<uint64_t, NumPredRegs> PredReady = {};
  /// Instructions issued by this warp (watchdog progress reporting).
  uint64_t InstsIssued = 0;

  // --- Shared-access memo ---------------------------------------------------
  /// Write generation of each register row, indexed by the register's
  /// low six bits (the encoding's register field): writeRow bumps it, so
  /// a row whose generation has not moved holds the values it held then.
  /// A row past R63 shares a counter, which can only cost a memo miss.
  std::array<uint64_t, 64> RowGen = {};
  /// What trap-free shared accesses found, for Executor::execute to reuse
  /// while their address row is unchanged (see the executor for the key
  /// and why reuse is exact). It holds one machine's bank serializations:
  /// a warp runs on one machine between resets.
  struct SharedAccessMemo {
    /// Imm classes, (Imm mod max(Width, bank bytes)) / Width, a slot
    /// holds: bank bytes / Width, at most 8 / 4 on the modelled machines.
    static constexpr int MaxClasses = 2;
    uint64_t Gen = 0;      ///< RowGen of the address register.
    int64_t MinBase = 0;   ///< Least address-register value of the lanes.
    int64_t MaxBase = 0;   ///< Greatest address-register value.
    /// Serialization of each Imm class, valid where Filled has its bit.
    std::array<double, MaxClasses> Serialization = {};
    uint32_t Mask = 0;     ///< Lanes that accessed (never 0).
    uint8_t Reg = NoReg;   ///< Address register; NoReg for an empty slot.
    uint8_t Width = 0;     ///< Access width in bytes.
    uint8_t Filled = 0;    ///< Bit C set once class C has been filled.
    static constexpr uint8_t NoReg = 0xff;
  };
  /// One slot per address register modulo 4.
  std::array<SharedAccessMemo, 4> SharedMemo = {};

  void reset(int NumRegs) {
    PC = 0;
    Done = false;
    AtBarrier = false;
    NoPenaltyWait = false;
    TrapsAtIssue = false;
    Pipes = 0;
    StallUntil = 0;
    ReadyAt = 0;
    LastIssue = 0;
    OlderByIssue = NewerByIssue = -1;
    Regs.assign(static_cast<size_t>(NumRegs) * WarpSize, 0);
    Preds = {};
    RegReady = {};
    PredReady = {};
    InstsIssued = 0;
    RowGen = {};
    SharedMemo = {};
  }

  /// Number of allocated architectural registers for this warp.
  int numRegs() const { return static_cast<int>(Regs.size() / WarpSize); }

  /// Register rows (one value per lane) are total: RZ and indices past
  /// the allocated file (the scheduler traps those instructions before
  /// they execute) read as a row of zeros, and writes to them land in the
  /// caller's \p Discard row instead of running off the vector in NDEBUG
  /// builds.
  const uint32_t *readRow(uint8_t Reg) const {
    if (Reg == RegRZ || Reg >= numRegs())
      return ZeroRow;
    return Regs.data() + static_cast<size_t>(Reg) * WarpSize;
  }
  uint32_t *writeRow(uint8_t Reg, uint32_t *Discard) {
    if (Reg == RegRZ || Reg >= numRegs())
      return Discard;
    ++RowGen[Reg & 63];
    return Regs.data() + static_cast<size_t>(Reg) * WarpSize;
  }
  /// Predicate accessors are total: the encoding has 3-bit guard fields,
  /// so P4..P6 are representable but not architectural. The simulator
  /// traps such instructions before execution; these guards keep even a
  /// missed path safe in NDEBUG builds (reads false, writes dropped).
  ///
  /// guardMask is the set of lanes on which \p I's guard holds: PT is
  /// every lane, P4..P6 none, and GuardNeg inverts either.
  uint32_t guardMask(const Instruction &I) const {
    uint32_t P = I.GuardPred == PredPT        ? 0xffffffffu
                 : I.GuardPred < NumPredRegs ? Preds[I.GuardPred]
                                              : 0u;
    return I.GuardNeg ? ~P : P;
  }
  /// Sets predicate \p Pred to the bits of \p Values on the lanes in
  /// \p Mask, leaving the other lanes' bits alone.
  void writePredLanes(uint8_t Pred, uint32_t Mask, uint32_t Values) {
    assert(Pred < NumPredRegs && "write to invalid predicate");
    if (Pred >= NumPredRegs)
      return;
    Preds[Pred] = (Preds[Pred] & ~Mask) | (Values & Mask);
  }

private:
  static constexpr uint32_t ZeroRow[WarpSize] = {};
};

} // namespace gpuperf

#endif // GPUPERF_SIM_WARP_H
