//===- sim/SMSimulator.cpp - cycle-level single-SM simulator --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/SMSimulator.h"

#include "probe/ProbeEngine.h"
#include "sim/Timing.h"
#include "support/Format.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

using namespace gpuperf;

namespace {

/// Replay cost when a warp is selected but its operands are not ready and
/// the control notation did not cover the wait (Kepler only).
constexpr int ReplayPenaltyCycles = 4;
/// Issue-cost multiplier for Kepler binaries without control notations:
/// the scheduler falls back to a conservative decode path.
constexpr double NoNotationIssueFactor = 4.0;

struct BlockState {
  int BlockIdLinear = 0;
  std::unique_ptr<SharedMemory> Shared;
  int LiveWarps = 0;
  int ArrivedAtBarrier = 0;
};

/// Why one warp could not issue this cycle, ordered by attribution
/// priority (higher wins when a scheduler's warps are blocked for
/// different reasons): a warp blocked only by a busy structural pipe was
/// otherwise ready, so the slot was genuinely lost to that structural
/// limit -- the paper's bound story; operand waits come next; a barrier
/// is only reported when nothing better describes the cycle.
enum class WarpBlock : uint8_t {
  None = 0,      ///< Not a candidate (done / no warp assigned).
  Barrier,       ///< Waiting at BAR.SYNC.
  NotationStall, ///< Control-notation stall count / replay stall.
  Scoreboard,    ///< Operands not ready (RAW / load latency).
  Port,          ///< Per-scheduler dispatch port busy.
  MathPipe,      ///< SM-wide SP pipeline busy (pre-Kepler).
  LdstPipe,      ///< LD/ST pipe busy (shared-memory throughput).
  IssuePipe,     ///< Kepler SM-wide issue pipe busy.
};

/// The structural resources blockReason checks, one bit each in its check
/// order (dispatch port, issue pipe, math pipe, LD/ST pipe): of the pipes
/// an instruction uses that are busy, the lowest bit is its verdict.
enum PipeBit : uint8_t { PortBit = 1, IssueBit = 2, MathBit = 4, LdstBit = 8 };
/// A set of PipeBits; there are NumPipeMasks sets.
using PipeMask = uint8_t;
constexpr size_t NumPipeMasks = 16;

/// blockReason's pipe verdict for an instruction whose busy pipes are
/// \p Busy (None when there are none).
constexpr WarpBlock firstBusy(unsigned Busy) {
  constexpr WarpBlock ByBit[] = {WarpBlock::Port, WarpBlock::IssuePipe,
                                 WarpBlock::MathPipe, WarpBlock::LdstPipe};
  return Busy ? ByBit[std::countr_zero(Busy)] : WarpBlock::None;
}

/// For each set of busy pipes, the masks (one bit per PipeMask) of the
/// instructions that use none of them.
constexpr std::array<uint16_t, NumPipeMasks> MasksFreeOf = [] {
  std::array<uint16_t, NumPipeMasks> Table = {};
  for (unsigned Busy = 0; Busy < NumPipeMasks; ++Busy)
    for (unsigned Mask = 0; Mask < NumPipeMasks; ++Mask)
      if ((Mask & Busy) == 0)
        Table[Busy] |= static_cast<uint16_t>(1u << Mask);
  return Table;
}();

/// Everything the scheduler reads about one static instruction, decoded
/// once per wave: none of it changes while the wave runs.
struct DecodedInst {
  InstTiming Timing;
  RegList Srcs; ///< Instruction::sourceRegs()
  RegList Dsts; ///< Instruction::destRegs()
  /// Scoreboarded predicates: the guard (-1 for PT) and the predicate an
  /// ISETP writes (-1 for everything else).
  int8_t GuardPred = -1;
  int8_t PredDst = -1;
  /// Kepler control field (zeros without notations or before Kepler).
  ControlField Field;
  /// Every register and predicate index fits the allocated files.
  bool RegsOk = true;
  /// The structural resources blockReason checks that this instruction
  /// occupies (0 when its registers do not fit the files, so that it
  /// traps at issue).
  PipeMask Pipes = 0;
};

class SMSim {
public:
  SMSim(const MachineDesc &M, const Kernel &K, Executor &Exec,
        const LaunchDims &Dims, const std::vector<int> &BlockIds,
        uint64_t WatchdogCycles, SMObservers *Obs)
      : M(M), K(K), Exec(Exec), Dims(Dims),
        Obs(Obs && Obs->enabled() ? Obs : nullptr),
        Budget(WatchdogCycles == 0
                   ? MaxWaveCycles
                   : std::min(WatchdogCycles, MaxWaveCycles)) {
    HasNotations =
        M.Generation != GpuGeneration::Kepler || K.hasNotations();
    buildDecodedTable();
    int WarpsPerBlock = Dims.warpsPerBlock();
    Blocks.reserve(BlockIds.size());
    for (int BlockId : BlockIds) {
      BlockState B;
      B.BlockIdLinear = BlockId;
      B.Shared = std::make_unique<SharedMemory>(K.SharedBytes);
      B.LiveWarps = WarpsPerBlock;
      Blocks.push_back(std::move(B));
    }
    int NumRegs = std::max(K.RegsPerThread, 1);
    for (size_t Slot = 0; Slot < Blocks.size(); ++Slot) {
      for (int WarpIdx = 0; WarpIdx < WarpsPerBlock; ++WarpIdx) {
        WarpContext W;
        W.reset(NumRegs);
        W.BlockSlot = static_cast<int>(Slot);
        W.WarpInBlock = WarpIdx;
        int FirstThread = WarpIdx * WarpSize;
        int LastThread =
            std::min(FirstThread + WarpSize, Dims.threadsPerBlock());
        int Lanes = LastThread - FirstThread;
        W.ActiveMask =
            Lanes == WarpSize ? 0xffffffffu : ((1u << Lanes) - 1);
        Warps.push_back(std::move(W));
      }
    }
    LiveWarps = static_cast<int>(Warps.size());
    NumSchedulers = std::max(1, M.WarpSchedulersPerSM);
    // Warps are distributed to schedulers by index.
    SchedWarps.resize(NumSchedulers);
    for (int W = 0; W < LiveWarps; ++W)
      SchedWarps[W % NumSchedulers].push_back(W);
    PortFree.assign(NumSchedulers, 0.0);
    RRNext.assign(NumSchedulers, 0);
    Gates.resize(NumSchedulers);
    for (int W = 0; W < LiveWarps; ++W) {
      cachePC(Warps[W]);
      GateState &G = Gates[W % NumSchedulers];
      G.pushNewest(Warps, W);
      G.enter(Warps[W].Pipes);
    }
    SchedBlocked.assign(NumSchedulers, WarpBlock::None);
    SchedBlockedPC.assign(NumSchedulers, -1);
  }

  Expected<SimStats> run(TrapInfo *TrapOut) {
    Expected<SimStats> Result = runLoop();
    if (!Result.hasValue() && TrapOut && Trap)
      *TrapOut = *Trap;
    return Result;
  }

private:
  Expected<SimStats> runLoop() {
    // Every block of the wave becomes resident at the wave's cycle 0.
    if (wants(ProbeEvent::BlockScheduled))
      for (const BlockState &B : Blocks)
        Obs->fire(ProbeEvent::BlockScheduled,
                  {.Block = B.BlockIdLinear, .Cycle = 0});
    // The first scheduler served, Now mod NumSchedulers: the service
    // order rotates each cycle, because the SM-wide issue pipe is a
    // shared resource and a fixed order would systematically starve the
    // last scheduler's warps.
    int FirstSched =
        static_cast<int>(Now % static_cast<uint64_t>(NumSchedulers));
    while (LiveWarps > 0) {
      if (Now >= Budget) {
        raiseWatchdogTrap();
        return Expected<SimStats>::error(Trap->toString());
      }
      bool IssuedAny = false;
      for (int Step = 0, Sched = FirstSched; Step < NumSchedulers;
           ++Step, Sched = Sched + 1 == NumSchedulers ? 0 : Sched + 1)
        runScheduler(Sched, IssuedAny);
      if (Trap)
        return Expected<SimStats>::error(Trap->toString());
      if (IssuedAny) {
        ++Now;
        FirstSched = FirstSched + 1 == NumSchedulers ? 0 : FirstSched + 1;
        continue;
      }
      uint64_t Next = nextWakeCycle();
      if (Next == UINT64_MAX) {
        raiseDeadlockTrap();
        return Expected<SimStats>::error(Trap->toString());
      }
      uint64_t NewNow = std::max(Now + 1, Next);
      // Nothing can issue before NewNow; the whole span is idle. Cycle
      // `Now` itself was already attributed slot-by-slot inside
      // runScheduler; the fast-forwarded cycles inherit each scheduler's
      // reason (and attributed PC) from the cycle that proved no
      // progress was possible.
      Stats.IdleCycles += NewNow - Now;
      if (uint64_t Skipped = NewNow - Now - 1)
        for (int S = 0; S < NumSchedulers; ++S)
          accountStall(S, SchedBlocked[S], SchedBlockedPC[S], Now + 1,
                       Skipped);
      Now = NewNow;
      FirstSched =
          static_cast<int>(Now % static_cast<uint64_t>(NumSchedulers));
    }
    Stats.Cycles = Now;
    Stats.AggregateCycles = Now;
    return Stats;
  }

  /// Charges \p N lost issue slots of scheduler \p Sched, starting at
  /// cycle \p Start, to the SlotUse cause implied by \p B, attributed to
  /// static instruction \p PC (-1 = no attributable instruction; the
  /// profile's NoPC bucket). Issue-pipe losses are split: the
  /// bank-conflict debt accumulated by previously issued math
  /// instructions is paid out first (RegBankConflict), the remainder is
  /// raw issue width (DispatchLimit); both halves belong to the same
  /// blocked PC.
  void accountStall(int Sched, WarpBlock B, int PC, uint64_t Start,
                    uint64_t N) {
    SlotUse Use = SlotUse::NoEligibleWarp;
    switch (B) {
    case WarpBlock::IssuePipe: {
      uint64_t FromConflict =
          std::min(N, static_cast<uint64_t>(ConflictDebt));
      if (FromConflict > 0) {
        ConflictDebt -= static_cast<double>(FromConflict);
        loseSlots(Sched, PC, SlotUse::RegBankConflict, Start, FromConflict);
      }
      if (N > FromConflict)
        loseSlots(Sched, PC, SlotUse::DispatchLimit, Start + FromConflict,
                  N - FromConflict);
      return;
    }
    case WarpBlock::Port:
    case WarpBlock::MathPipe:
      Use = SlotUse::DispatchLimit;
      break;
    case WarpBlock::LdstPipe:
      Use = SlotUse::LdsThroughput;
      break;
    case WarpBlock::Scoreboard:
    case WarpBlock::NotationStall:
      Use = SlotUse::Scoreboard;
      break;
    case WarpBlock::Barrier:
      Use = SlotUse::Barrier;
      break;
    case WarpBlock::None:
      Use = SlotUse::NoEligibleWarp;
      break;
    }
    loseSlots(Sched, PC, Use, Start, N);
  }

  /// Counts \p N slots of scheduler \p Sched, from cycle \p Start, as
  /// lost to \p Use at \p PC, and fires the one slot_lost event.
  void loseSlots(int Sched, int PC, SlotUse Use, uint64_t Start,
                 uint64_t N) {
    Stats.Breakdown[Use] += N;
    if (!wants(ProbeEvent::SlotLost))
      return;
    Obs->fire(ProbeEvent::SlotLost, {.PC = PC,
                                     .Cycle = static_cast<int64_t>(Start),
                                     .Cause = static_cast<int64_t>(Use),
                                     .Slots = static_cast<int64_t>(N),
                                     .Scheduler = Sched});
  }

  /// True when some enabled observer consumes \p E: each firing site's
  /// one gate.
  bool wants(ProbeEvent E) const { return Obs && Obs->wants(E); }

  /// Decodes every static instruction once: its timing record, operand
  /// lists, control field, and whether every register and predicate
  /// index it touches fits the allocated files. The 6-bit encoding admits
  /// indices past the kernel's declared register count (and wide
  /// accesses widen past R63; 3-bit guard fields reach the
  /// non-architectural P4..P6), so mutated or hand-corrupted binaries can
  /// reference state that does not exist -- those instructions trap at
  /// issue instead of corrupting simulator memory.
  void buildDecodedTable() {
    const int NumRegs = std::max(K.RegsPerThread, 1);
    const bool KeplerFields =
        M.Generation == GpuGeneration::Kepler && K.hasNotations();
    Decoded.resize(K.Code.size());
    for (size_t PC = 0; PC < K.Code.size(); ++PC) {
      const Instruction &I = K.Code[PC];
      DecodedInst &D = Decoded[PC];
      D.Timing = instTiming(M, I);
      D.Srcs = I.sourceRegs();
      D.Dsts = I.destRegs();
      if (KeplerFields)
        D.Field = K.Notations[PC / NotationGroupSize]
                      .Fields[PC % NotationGroupSize];
      for (uint8_t Reg : D.Srcs)
        if (Reg != RegRZ && Reg >= NumRegs)
          D.RegsOk = false;
      for (uint8_t Reg : D.Dsts)
        if (Reg != RegRZ && Reg >= NumRegs)
          D.RegsOk = false;
      if (I.GuardPred != PredPT) {
        D.GuardPred = static_cast<int8_t>(I.GuardPred);
        if (I.GuardPred >= NumPredRegs)
          D.RegsOk = false;
      }
      if (I.writesPredicate()) {
        D.PredDst = static_cast<int8_t>(I.Dst);
        if (I.Dst >= NumPredRegs)
          D.RegsOk = false;
      }
      const InstTiming &T = D.Timing;
      if (D.RegsOk)
        D.Pipes = (T.DispatchPort > 0 ? PortBit : 0) |
                  (T.IssuePipe > 0 ? IssueBit : 0) |
                  (T.MathPipe > 0 ? MathBit : 0) |
                  (T.LdstPipe > 0 ? LdstBit : 0);
    }
  }

  /// Fills the identity fields of a trap raised by warp \p WarpIdx.
  TrapInfo makeTrap(TrapKind Kind, int WarpIdx,
                    const Instruction *I) const {
    TrapInfo T;
    T.Kind = Kind;
    T.KernelName = K.Name;
    T.Cycle = Now;
    if (WarpIdx >= 0) {
      const WarpContext &W = Warps[WarpIdx];
      T.BlockId = Blocks[W.BlockSlot].BlockIdLinear;
      T.WarpId = W.WarpInBlock;
      T.LaneMask = W.ActiveMask;
      T.PC = W.PC;
      if (I)
        T.InstText = I->toString();
    }
    return T;
  }

  /// Per-warp progress summary for launch-scoped traps (watchdog,
  /// deadlock): which warps are stuck, where, and how much they ran.
  std::string progressReport() const {
    std::string S;
    constexpr size_t MaxLines = 16;
    for (size_t Idx = 0; Idx < Warps.size(); ++Idx) {
      if (Idx == MaxLines) {
        S += formatString("  ... %zu more warps\n", Warps.size() - Idx);
        break;
      }
      const WarpContext &W = Warps[Idx];
      const char *State = W.Done        ? "done"
                          : W.AtBarrier ? "at barrier"
                          : W.StallUntil > Now
                              ? "stalled"
                              : "eligible";
      S += formatString(
          "  block %d warp %d: %s, PC %d, %llu insts issued\n",
          Blocks[W.BlockSlot].BlockIdLinear, W.WarpInBlock, State, W.PC,
          static_cast<unsigned long long>(W.InstsIssued));
    }
    if (!S.empty())
      S.pop_back(); // Trailing newline.
    return S;
  }

  /// Identifies the least-progressed live warp (the likely culprit) so
  /// launch-scoped traps still carry a concrete warp and PC.
  int leastProgressedLiveWarp() const {
    int Best = -1;
    for (size_t Idx = 0; Idx < Warps.size(); ++Idx) {
      if (Warps[Idx].Done)
        continue;
      if (Best < 0 || Warps[Idx].InstsIssued < Warps[Best].InstsIssued)
        Best = static_cast<int>(Idx);
    }
    return Best;
  }

  void raiseWatchdogTrap() {
    TrapInfo T = makeTrap(TrapKind::WatchdogTimeout,
                          leastProgressedLiveWarp(), nullptr);
    T.Detail = formatString(
        "watchdog budget of %llu cycles exhausted with %d live warps:\n",
        static_cast<unsigned long long>(Budget), LiveWarps);
    T.Detail += progressReport();
    Trap = std::move(T);
  }

  void raiseDeadlockTrap() {
    TrapInfo T = makeTrap(TrapKind::Deadlock, leastProgressedLiveWarp(),
                          nullptr);
    T.Detail = formatString(
        "no warp can make progress and none is in flight "
        "(barrier mismatch?); %d live warps:\n",
        LiveWarps);
    T.Detail += progressReport();
    Trap = std::move(T);
  }
  /// Earliest cycle at which every register and predicate \p D reads or
  /// writes is ready; the operands are ready at `Now` iff it is <= Now.
  /// issue stores it for the warp's next instruction in
  /// WarpContext::ReadyAt, which the issue checks read.
  static uint64_t regsReadyCycle(const WarpContext &W,
                                 const DecodedInst &D) {
    uint64_t T = 0;
    for (uint8_t Reg : D.Srcs)
      T = std::max(T, W.RegReady[Reg]);
    for (uint8_t Reg : D.Dsts)
      T = std::max(T, W.RegReady[Reg]);
    if (D.GuardPred >= 0)
      T = std::max(T, W.PredReady[D.GuardPred]);
    if (D.PredDst >= 0)
      T = std::max(T, W.PredReady[D.PredDst]);
    return T;
  }

  /// The pipes busy this cycle for scheduler \p Sched, as a PipeMask.
  unsigned busyPipes(int Sched) const {
    const double Limit = static_cast<double>(Now) + 1.0;
    return (PortFree[Sched] >= Limit ? PortBit : 0) |
           (IssuePipeFree >= Limit ? IssueBit : 0) |
           (MathPipeFree >= Limit ? MathBit : 0) |
           (LdstPipeFree >= Limit ? LdstBit : 0);
  }

  /// The side-effect-free issue checks of warp \p W, with \p Busy the
  /// busy pipes of its scheduler (busyPipes), in order: done; at a
  /// barrier or stalled; an invalid PC or an instruction whose registers
  /// do not fit the files (both go to the issue path, which traps); a
  /// busy structural pipe, the first in PipeBit order; the scoreboard.
  /// Returns why the warp cannot use the slot this cycle (None for a done
  /// warp), or nullopt when issueOrTrap must take it.
  std::optional<WarpBlock> blockReason(const WarpContext &W,
                                       unsigned Busy) const {
    if (W.Done)
      return WarpBlock::None;
    if (W.AtBarrier)
      return WarpBlock::Barrier;
    if (W.StallUntil > Now)
      return WarpBlock::NotationStall;
    if (W.TrapsAtIssue)
      return std::nullopt;
    if (const unsigned Blocking = W.Pipes & Busy)
      return firstBusy(Blocking);
    if (W.ReadyAt > Now)
      return WarpBlock::Scoreboard;
    return std::nullopt;
  }

  /// Charges warp \p W for an operand wait its control notation did not
  /// cover: a mis-hinted instruction is dispatched and replayed, so the
  /// warp loses cycles AND the issue pipe burns half a slot on the
  /// cancelled dispatch. A no-op where the hardware waits for free.
  void chargeReplay(WarpContext &W) {
    if (M.Generation != GpuGeneration::Kepler || !HasNotations ||
        W.NoPenaltyWait)
      return;
    W.StallUntil = Now + ReplayPenaltyCycles;
    IssuePipeFree = std::max(IssuePipeFree, static_cast<double>(Now)) +
                    0.5 * WarpSize / M.MathIssueSlotsPerCycle;
    ++Stats.ReplayPenalties;
    if (wants(ProbeEvent::Replay))
      Obs->fire(ProbeEvent::Replay,
                {.PC = W.PC,
                 .Block = Blocks[W.BlockSlot].BlockIdLinear,
                 .Warp = W.WarpInBlock,
                 .Cycle = static_cast<int64_t>(Now)});
  }

  /// Takes the slot for warp \p WarpIdx, which blockReason let through:
  /// raises the trap of a warp that ran off the code or references
  /// registers outside the files, and otherwise issues its instruction.
  void issueOrTrap(int WarpIdx, int Sched) {
    const WarpContext &W = Warps[WarpIdx];
    if (W.PC < 0 || static_cast<size_t>(W.PC) >= K.Code.size()) {
      // The warp ran off the code (bad branch target or missing EXIT).
      TrapInfo T = makeTrap(TrapKind::InvalidPC, WarpIdx, nullptr);
      T.Detail = formatString(
          "PC %d outside the kernel's %zu instructions "
          "(bad branch target or missing EXIT)",
          W.PC, K.Code.size());
      Trap = std::move(T);
      return; // The run loop stops on Trap.
    }
    const Instruction &I = K.Code[W.PC];
    const DecodedInst &D = Decoded[W.PC];
    if (!D.RegsOk) {
      TrapInfo T = makeTrap(TrapKind::RegisterIndexOOB, WarpIdx, &I);
      T.Detail = formatString(
          "instruction references registers outside the %d allocated "
          "(or a non-architectural predicate)",
          std::max(K.RegsPerThread, 1));
      Trap = std::move(T);
      return;
    }
    issue(WarpIdx, Sched, I, D);
  }

  void issue(int WarpIdx, int Sched, const Instruction &I,
             const DecodedInst &D) {
    const InstTiming &T = D.Timing;
    WarpContext &W = Warps[WarpIdx];
    BlockState &B = Blocks[W.BlockSlot];
    const int PCAtIssue = W.PC;

    // --- Occupy pipes ------------------------------------------------------
    double NowD = static_cast<double>(Now);
    if (T.DispatchPort > 0)
      PortFree[Sched] = std::max(PortFree[Sched], NowD) + T.DispatchPort;
    if (double Pipe = T.IssuePipe; Pipe > 0) {
      if (!HasNotations)
        Pipe *= NoNotationIssueFactor;
      IssuePipeFree = std::max(IssuePipeFree, NowD) + Pipe;
      // Bank the register-bank-conflict surcharge; lost issue-pipe slots
      // pay it out as SlotUse::RegBankConflict (see accountStall).
      ConflictDebt += T.BankConflictExtra;
    }
    if (T.MathPipe > 0)
      MathPipeFree = std::max(MathPipeFree, NowD) + T.MathPipe;

    // --- Execute functionally ------------------------------------------------
    ExecEffects Fx = Exec.execute(I, W, B.BlockIdLinear, *B.Shared);
    if (Fx.faulted()) {
      TrapInfo Tr = makeTrap(Fx.Trap, WarpIdx, &I);
      Tr.Address = Fx.TrapAddress;
      Tr.Lane = Fx.TrapLane;
      Tr.Detail = Fx.TrapDetail;
      Trap = std::move(Tr);
      return;
    }

    if (T.LdstPipe > 0) {
      double Serial =
          std::max(1.0, Fx.SharedSerialization / T.ImplicitConflict);
      if (Fx.SharedSerialization > T.ImplicitConflict) {
        ++Stats.SharedConflictEvents;
        if (wants(ProbeEvent::BankConflict))
          Obs->fire(ProbeEvent::BankConflict,
                    {.PC = PCAtIssue,
                     .Block = B.BlockIdLinear,
                     .Warp = W.WarpInBlock,
                     .Cycle = static_cast<int64_t>(Now),
                     .Serialization =
                         static_cast<int64_t>(Fx.SharedSerialization)});
      }
      LdstPipeFree = std::max(LdstPipeFree, NowD) + T.LdstPipe * Serial;
    }

    // --- Scoreboard updates ---------------------------------------------------
    uint64_t Ready;
    if (T.Class == OpClass::GlobalMem && Fx.GlobalTransactions > 0) {
      double BwCycles = Fx.GlobalBytes / memBytesPerCyclePerSM(M);
      MemBWFree = std::max(MemBWFree, NowD) + BwCycles;
      Ready = static_cast<uint64_t>(MemBWFree) + M.GlobalMemLatency;
      Stats.GlobalBytes += static_cast<uint64_t>(Fx.GlobalBytes);
      Stats.GlobalTransactions +=
          static_cast<uint64_t>(Fx.GlobalTransactions);
    } else {
      Ready = Now + static_cast<uint64_t>(T.ResultLatency);
    }
    for (uint8_t Reg : D.Dsts)
      W.RegReady[Reg] = Ready;
    if (D.PredDst >= 0)
      W.PredReady[D.PredDst] = Now + static_cast<uint64_t>(M.MathLatency);

    // --- Control effects --------------------------------------------------------
    GateState &G = Gates[Sched];
    G.leave(W.Pipes);
    bool WarpExited = false, BlockDrained = false;
    if (Fx.IsExit) {
      W.Done = true;
      --LiveWarps;
      --B.LiveWarps;
      WarpExited = true;
      BlockDrained = B.LiveWarps == 0;
      releaseBarrierIfComplete(B);
    } else if (Fx.IsBarrier) {
      W.AtBarrier = true;
      ++B.ArrivedAtBarrier;
      ++Stats.BarrierWaits;
      W.PC += 1;
      releaseBarrierIfComplete(B);
    } else if (I.Op == Opcode::BRA && Fx.BranchTaken) {
      W.PC += 1 + I.Imm;
    } else {
      W.PC += 1;
    }

    // --- Notation-driven stalls -----------------------------------------------
    if (M.Generation == GpuGeneration::Kepler) {
      if (HasNotations) {
        W.StallUntil = Now + 1 + D.Field.StallCycles;
        W.NoPenaltyWait = D.Field.Yield;
      } else {
        // Conservative fallback: wait out the full result latency.
        W.StallUntil = Now + 1 + static_cast<uint64_t>(T.ResultLatency);
        W.NoPenaltyWait = true;
      }
    } else {
      W.StallUntil = Now + 1;
      W.NoPenaltyWait = true; // Fermi has a full scoreboard.
    }
    // A warp's ready times and PC change only here, at its own issue.
    cachePC(W);
    if (!W.Done)
      G.enter(W.Pipes);
    if (!W.TrapsAtIssue)
      W.ReadyAt = regsReadyCycle(W, Decoded[W.PC]);
    if (W.LastIssue != Now) // Not the second half of a pair.
      G.makeNewest(Warps, WarpIdx);
    W.LastIssue = Now;

    // --- Statistics ----------------------------------------------------------
    ++Stats.WarpInstsIssued;
    ++W.InstsIssued;
    uint64_t Lanes = std::popcount(W.ActiveMask);
    Stats.ThreadInstsIssued += Lanes;
    Stats.ThreadInstsByOpcode[static_cast<size_t>(I.Op)] += Lanes;

    // --- Observation ---------------------------------------------------------
    // Fired after the statistics updates so lifetime fields (Insts)
    // include this instruction; every count here shadows one of the
    // aggregates above, which the shadow tests pin exactly.
    const bool IsShared = T.Class == OpClass::SharedMem;
    const bool IsGlobal = T.Class == OpClass::GlobalMem;
    const bool WantsIssue = wants(ProbeEvent::InstIssued);
    const bool WantsMem =
        wants(ProbeEvent::MemAccess) && (IsShared || IsGlobal);
    if (WantsIssue || WantsMem) {
      ProbeEventRecord R;
      R.PC = PCAtIssue;
      R.Op = static_cast<int64_t>(I.Op);
      R.Class = static_cast<int64_t>(T.Class);
      R.Lanes = static_cast<int64_t>(Lanes);
      R.Block = B.BlockIdLinear;
      R.Warp = W.WarpInBlock;
      R.Cycle = static_cast<int64_t>(Now);
      R.Dual = IssuingDualSecond ? 1 : 0;
      R.WarpSlot = WarpIdx;
      if (WantsIssue)
        Obs->fire(ProbeEvent::InstIssued, R);
      if (WantsMem) {
        R.Space = IsGlobal ? 1 : 0;
        R.Width = 8 * memWidthBytes(I.Width);
        if (IsGlobal) {
          R.Bytes = Fx.GlobalTransactions > 0 ? Fx.GlobalBytes : 0;
          R.Transactions = Fx.GlobalTransactions;
        } else {
          R.Bytes = static_cast<int64_t>(Lanes) * memWidthBytes(I.Width);
        }
        Obs->fire(ProbeEvent::MemAccess, R);
      }
    }
    if (WarpExited && wants(ProbeEvent::WarpExit))
      Obs->fire(ProbeEvent::WarpExit,
                {.Block = B.BlockIdLinear,
                 .Warp = W.WarpInBlock,
                 .Cycle = static_cast<int64_t>(Now),
                 .Insts = static_cast<int64_t>(W.InstsIssued)});
    if (BlockDrained && wants(ProbeEvent::BlockDrained))
      Obs->fire(ProbeEvent::BlockDrained,
                {.Block = B.BlockIdLinear,
                 .Cycle = static_cast<int64_t>(Now)});
  }

  void releaseBarrierIfComplete(BlockState &B) {
    if (B.LiveWarps == 0 || B.ArrivedAtBarrier < B.LiveWarps)
      return;
    B.ArrivedAtBarrier = 0;
    for (WarpContext &W : Warps)
      if (W.BlockSlot == &B - Blocks.data() && W.AtBarrier)
        W.AtBarrier = false;
  }

  /// Caches in \p W what the scan reads of the instruction at its PC;
  /// called at every PC change.
  void cachePC(WarpContext &W) const {
    const bool OnCode =
        W.PC >= 0 && static_cast<size_t>(W.PC) < Decoded.size();
    W.TrapsAtIssue = !OnCode || !Decoded[W.PC].RegsOk;
    W.Pipes = OnCode ? Decoded[W.PC].Pipes : 0;
  }

  /// A lost slot decided without a per-warp issue check.
  struct GatedSlot {
    WarpBlock Cause;
    int PC;
  };

  /// The slot of scheduler \p Sched decided from GateState alone, when
  /// it can be. A scheduler without live warps loses it to None at no
  /// PC. Otherwise, when every live warp sits at an instruction that uses
  /// a busy pipe, blockReason gives each candidate -- a warp not at a
  /// barrier and not stalled -- the first busy pipe of its instruction.
  /// Pipe verdicts outrank Barrier, NotationStall and None, and none is
  /// Scoreboard, so no replay is charged and the scan would charge the
  /// slot to the highest such verdict, at the candidate with that verdict
  /// and the smallest LastIssue, ties going to the first in round-robin
  /// order from RRNext. Returns nothing when some live warp's instruction
  /// uses no busy pipe, or no candidate has the highest verdict any live
  /// warp's instruction gives; the scan then decides the slot. The port
  /// and the issue pipe, busy on most of Fermi's and Kepler's lost
  /// slots, are tested first; the math and LD/ST pipes are read only
  /// when those two do not decide.
  std::optional<GatedSlot> gatedSlot(int Sched) const {
    const GateState &G = Gates[Sched];
    if (G.Occupied == 0)
      return GatedSlot{WarpBlock::None, -1};
    const double Limit = static_cast<double>(Now) + 1.0;
    unsigned Busy = (PortFree[Sched] >= Limit ? PortBit : 0) |
                    (IssuePipeFree >= Limit ? IssueBit : 0);
    // A mask that meets the port or the issue pipe gets its verdict from
    // them: the math and LD/ST pipes come later in PipeBit order.
    if (G.Occupied & MasksFreeOf[Busy]) {
      const unsigned Late = (MathPipeFree >= Limit ? MathBit : 0) |
                            (LdstPipeFree >= Limit ? LdstBit : 0);
      if (Late == 0 || (G.Occupied & MasksFreeOf[Busy | Late]))
        return std::nullopt;
      Busy |= Late;
    }
    WarpBlock Cause = WarpBlock::None;
    for (unsigned Left = G.Occupied; Left != 0; Left &= Left - 1)
      Cause = std::max(Cause, firstBusy(std::countr_zero(Left) & Busy));
    // The LastIssue list runs oldest first. LastIssue values past 0 are
    // distinct (one issue per scheduler per cycle), so only the warps at
    // 0 -- not yet issued, or issued at cycle 0 -- can tie. Warps are
    // distributed to schedulers by index, so warp WarpIdx is SchedWarps
    // position WarpIdx / NumSchedulers.
    const int NumMine = static_cast<int>(SchedWarps[Sched].size());
    int Oldest = -1, OldestRank = 0;
    for (int WarpIdx = G.Oldest; WarpIdx >= 0;
         WarpIdx = Warps[WarpIdx].NewerByIssue) {
      const WarpContext &W = Warps[WarpIdx];
      if (W.LastIssue > 0 && Oldest >= 0)
        break;
      if (W.Done || W.AtBarrier || W.StallUntil > Now ||
          firstBusy(W.Pipes & Busy) != Cause)
        continue;
      if (W.LastIssue > 0)
        return GatedSlot{Cause, W.PC};
      int Rank = WarpIdx / NumSchedulers - RRNext[Sched];
      if (Rank < 0)
        Rank += NumMine;
      if (Oldest < 0 || Rank < OldestRank) {
        Oldest = WarpIdx;
        OldestRank = Rank;
      }
    }
    if (Oldest < 0)
      return std::nullopt;
    return GatedSlot{Cause, Warps[Oldest].PC};
  }

  /// Charges this cycle's slot of scheduler \p Sched to \p B at \p PC,
  /// and remembers both for a fast-forwarded idle span.
  void loseSlot(int Sched, WarpBlock B, int PC) {
    SchedBlocked[Sched] = B;
    SchedBlockedPC[Sched] = PC;
    accountStall(Sched, B, PC, Now, 1);
  }

  void runScheduler(int Sched, bool &IssuedAny) {
    // The scheduler's one issue slot this cycle: either some warp issues,
    // or the slot is attributed to the highest-priority reason any of its
    // warps could not (see WarpBlock's ordering). For the profile the
    // slot is charged to a PC too: among the warps blocked for the
    // winning reason, the one that has waited longest since its last
    // issue (the likely head of the dependence chain) names the
    // instruction. gatedSlot decides the slot without the scan when it
    // can.
    if (const std::optional<GatedSlot> Slot = gatedSlot(Sched)) {
      loseSlot(Sched, Slot->Cause, Slot->PC);
      return;
    }
    const std::vector<int> &Mine = SchedWarps[Sched];
    unsigned Busy = busyPipes(Sched);
    WarpBlock Best = WarpBlock::None;
    int BestPC = -1;
    uint64_t BestWait = 0;
    const int NumMine = static_cast<int>(Mine.size());
    int Idx = RRNext[Sched];
    for (int Offset = 0; Offset < NumMine;
         ++Offset, Idx = Idx + 1 == NumMine ? 0 : Idx + 1) {
      const int WarpIdx = Mine[Idx];
      WarpContext &W = Warps[WarpIdx];
      if (std::optional<WarpBlock> Why = blockReason(W, Busy)) {
        if (*Why == WarpBlock::Scoreboard) {
          chargeReplay(W);
          Busy = busyPipes(Sched); // A replay occupies the issue pipe.
        }
        if (*Why > Best || (*Why == Best && *Why != WarpBlock::None &&
                            W.LastIssue < BestWait)) {
          Best = *Why;
          BestWait = W.LastIssue;
          BestPC = W.PC >= 0 && static_cast<size_t>(W.PC) < K.Code.size()
                       ? W.PC
                       : -1;
        }
        continue;
      }
      const int PCBefore = W.PC;
      issueOrTrap(WarpIdx, Sched);
      if (Trap)
        return;
      IssuedAny = true;
      ++Stats.Breakdown[SlotUse::Issued];
      RRNext[Sched] = Idx + 1 == NumMine ? 0 : Idx + 1;
      // Kepler dual issue: a second, independent instruction from the
      // same warp when the notation permits it. The pair shares the
      // slot already counted as Issued, and a second half that cannot
      // issue is not charged a replay.
      if (M.Generation == GpuGeneration::Kepler && HasNotations) {
        const ControlField &F = Decoded[PCBefore].Field;
        if (F.DualIssue && F.StallCycles == 0 && !W.Done &&
            !W.AtBarrier) {
          W.StallUntil = Now; // The pair issues in the same cycle.
          if (!blockReason(W, busyPipes(Sched))) {
            IssuingDualSecond = true;
            issueOrTrap(WarpIdx, Sched);
            IssuingDualSecond = false;
            ++Stats.DualIssues;
          }
          if (W.StallUntil <= Now)
            W.StallUntil = Now + 1;
        }
      }
      return;
    }
    loseSlot(Sched, Best, BestPC);
  }

  /// Earliest cycle at which some warp might issue, or, once some warp
  /// might issue by Now + 1, that warp's cycle: runLoop advances to at
  /// least Now + 1 anyway. UINT64_MAX when no warp can ever issue.
  uint64_t nextWakeCycle() const {
    // Pipes may also be the blocker; the earliest-free one bounds every
    // warp alike.
    const uint64_t PipeFloor = static_cast<uint64_t>(
        std::min({IssuePipeFree, MathPipeFree, LdstPipeFree,
                  *std::min_element(PortFree.begin(), PortFree.end())}));
    uint64_t Min = UINT64_MAX;
    for (const WarpContext &W : Warps) {
      if (W.Done || W.AtBarrier)
        continue;
      uint64_t T = std::max(W.StallUntil, PipeFloor);
      // Warps sitting on an invalid PC or an invalid-register
      // instruction are immediately eligible: they trap at issue.
      if (!W.TrapsAtIssue)
        T = std::max(T, W.ReadyAt);
      if (T <= Now + 1)
        return T;
      Min = std::min(Min, T);
    }
    return Min;
  }

  const MachineDesc &M;
  const Kernel &K;
  Executor &Exec;
  const LaunchDims &Dims;
  /// Null when no sink is on.
  SMObservers *Obs;
  const uint64_t Budget;
  /// True while the dual-issue second half is in issueOrTrap, so the
  /// fired InstIssued event can carry Dual=1.
  bool IssuingDualSecond = false;

  std::vector<BlockState> Blocks;
  std::vector<WarpContext> Warps;
  int LiveWarps = 0;
  int NumSchedulers = 1;
  /// Each scheduler's warps (indices into Warps), fixed for the wave.
  std::vector<std::vector<int>> SchedWarps;
  bool HasNotations = true;

  uint64_t Now = 0;
  double IssuePipeFree = 0.0;
  double MathPipeFree = 0.0;
  double LdstPipeFree = 0.0;
  double MemBWFree = 0.0;
  std::vector<double> PortFree;
  /// Each scheduler's round-robin start, an index into its warp list.
  std::vector<int> RRNext;
  /// What gatedSlot reads of one scheduler, kept up to date at every
  /// issue.
  struct GateState {
    /// Ends of the scheduler's warps in LastIssue order, a list linked
    /// through WarpContext::OlderByIssue/NewerByIssue (-1 when empty).
    int Oldest = -1, Newest = -1;
    /// How many warps not done sit at an instruction of each PipeMask,
    /// and the masks with at least one (bit Mask set; 0 when every warp
    /// is done).
    std::array<int, NumPipeMasks> AtPipes = {};
    uint16_t Occupied = 0;

    void enter(PipeMask P) {
      if (AtPipes[P]++ == 0)
        Occupied |= static_cast<uint16_t>(1u << P);
    }
    void leave(PipeMask P) {
      if (--AtPipes[P] == 0)
        Occupied &= static_cast<uint16_t>(~(1u << P));
    }

    /// Appends warp \p Idx, not in the list, as the newest.
    void pushNewest(std::vector<WarpContext> &Warps, int Idx) {
      WarpContext &W = Warps[Idx];
      W.OlderByIssue = Newest;
      W.NewerByIssue = -1;
      (Newest >= 0 ? Warps[Newest].NewerByIssue : Oldest) = Idx;
      Newest = Idx;
    }
    /// Moves warp \p Idx, in the list, to the newest end.
    void makeNewest(std::vector<WarpContext> &Warps, int Idx) {
      if (Idx == Newest)
        return;
      WarpContext &W = Warps[Idx];
      (W.OlderByIssue >= 0 ? Warps[W.OlderByIssue].NewerByIssue : Oldest) =
          W.NewerByIssue;
      Warps[W.NewerByIssue].OlderByIssue = W.OlderByIssue;
      pushNewest(Warps, Idx);
    }
  };
  std::vector<GateState> Gates;
  /// Each scheduler's block reason in the most recent no-issue cycle
  /// (reused to attribute fast-forwarded idle spans).
  std::vector<WarpBlock> SchedBlocked;
  /// The attributed PC paired with SchedBlocked (-1 = none), so
  /// fast-forwarded spans land on the same instruction as the cycle
  /// that proved no progress was possible.
  std::vector<int> SchedBlockedPC;
  /// Outstanding bank-conflict surcharge cycles not yet paid out as lost
  /// slots (see accountStall).
  double ConflictDebt = 0.0;

  SimStats Stats;
  std::optional<TrapInfo> Trap;
  /// Per-PC decoded instruction table (see buildDecodedTable).
  std::vector<DecodedInst> Decoded;
};

} // namespace

namespace {
std::atomic<uint64_t> SimulatedCycleTally{0};
std::array<std::atomic<uint64_t>, NumSlotUses> SlotUseTally{};
std::mutex MachineNamesMutex;
std::set<std::string> MachineNames;
} // namespace

Expected<SimStats> gpuperf::simulateWave(
    const MachineDesc &M, const Kernel &K, Executor &Exec,
    const LaunchDims &Dims, const std::vector<int> &BlockIds,
    uint64_t WatchdogCycles, TrapInfo *TrapOut, SMObservers *Obs) {
  SMSim Sim(M, K, Exec, Dims, BlockIds, WatchdogCycles, Obs);
  Expected<SimStats> Result = Sim.run(TrapOut);
  if (Result.hasValue()) {
    SimulatedCycleTally.fetch_add(Result->Cycles,
                                  std::memory_order_relaxed);
    for (size_t U = 0; U < NumSlotUses; ++U)
      SlotUseTally[U].fetch_add(Result->Breakdown.Slots[U],
                                std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(MachineNamesMutex);
      MachineNames.insert(M.Name);
    }
  }
  return Result;
}

std::vector<std::string> gpuperf::simulatedMachineNames() {
  std::lock_guard<std::mutex> Lock(MachineNamesMutex);
  return std::vector<std::string>(MachineNames.begin(),
                                  MachineNames.end());
}

uint64_t gpuperf::totalSimulatedCycles() {
  return SimulatedCycleTally.load(std::memory_order_relaxed);
}

StallBreakdown gpuperf::totalIssueSlotBreakdown() {
  StallBreakdown B;
  for (size_t U = 0; U < NumSlotUses; ++U)
    B.Slots[U] = SlotUseTally[U].load(std::memory_order_relaxed);
  return B;
}
