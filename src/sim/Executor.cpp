//===- sim/Executor.cpp - functional execution of warp instructions -------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
//
// Whole-warp execution: the lane mask (active threads ANDed with the
// guard) is computed once per instruction, each register operand is
// resolved once to its 32-lane row, and the opcode is dispatched outside
// the lane loop. A memory access checks its lanes in ascending order up
// to the first faulting one and then moves the words of the lanes before
// it in the same order, so memory side effects and the first faulting
// lane match a lane-by-lane interpreter exactly.
//
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"

#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

using namespace gpuperf;

namespace {

float asFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, 4);
  return F;
}

uint32_t asBits(float F) {
  uint32_t Bits;
  std::memcpy(&Bits, &F, 4);
  return Bits;
}

/// Single-precision results are canonicalized as on real GPUs: SASS
/// float ops return one canonical quiet NaN rather than propagating
/// input payloads. Host compilers leave NaN payload selection to the
/// CPU's (operand-order-dependent) rules, so canonicalizing is also
/// what keeps simulation results bit-reproducible across builds.
uint32_t floatResultBits(float F) {
  return std::isnan(F) ? 0x7fffffffu : asBits(F);
}

/// Calls \p F(Lane) for every lane in \p Mask, in ascending lane order.
template <typename Fn> void forLanes(uint32_t Mask, Fn &&F) {
  if (Mask == 0xffffffffu) {
    for (int Lane = 0; Lane < WarpSize; ++Lane)
      F(Lane);
    return;
  }
  for (; Mask != 0; Mask &= Mask - 1)
    F(std::countr_zero(Mask));
}

/// The lanes of \p Mask on which \p Cmp(A[Lane], B[Lane]) holds (signed).
template <typename CmpFn>
uint32_t compareLanes(uint32_t Mask, const uint32_t *A, const uint32_t *B,
                      CmpFn Cmp) {
  uint32_t Bits = 0;
  forLanes(Mask, [&](int Lane) {
    if (Cmp(static_cast<int32_t>(A[Lane]), static_cast<int32_t>(B[Lane])))
      Bits |= 1u << Lane;
  });
  return Bits;
}

} // namespace

/// Bank count the serialization scratch arrays are sized for; every
/// modelled machine has 16 or 32 banks.
constexpr int MaxSharedBanks = 32;

// The multiplier is normalized by the *inherent* degree of a perfectly
// sequential access of this width (e.g. LDS.64 on Fermi inherently takes
// two passes, which the base pipe cost already covers).
//
// The degree is counted per chunk of max(Width, BankBytes) bytes rather
// than per bank word. An aligned access touches the bank words of
// exactly one chunk, and two different chunks share no word. A chunk
// covers ChunkBytes / BankBytes consecutive banks, so chunks equal modulo
// NumGroups = NumBanks * BankBytes / ChunkBytes sit on the same banks, one
// word each, and chunks in different groups on disjoint banks. The
// distinct words of a bank are therefore the distinct chunks of its
// group: one insert per lane instead of one per word, and none for a
// lane in the previous lane's chunk. A group's list never outgrows the
// warp. Addresses are non-negative and the geometry is a power of two,
// so a shift and a mask compute the chunk and group exactly as division
// and remainder would.
double gpuperf::sharedSerialization(const int64_t *Addrs, int NumAddrs,
                                    int Width, int NumBanks,
                                    int BankBytes) {
  if (NumAddrs == 0)
    return 1.0;
  assert(NumBanks <= MaxSharedBanks && Width <= NumBanks * BankBytes &&
         "bank geometry exceeds the serialization scratch arrays");
  assert(std::has_single_bit(static_cast<unsigned>(NumBanks)) &&
         std::has_single_bit(static_cast<unsigned>(BankBytes)) &&
         std::has_single_bit(static_cast<unsigned>(Width)) &&
         "bank geometry and access width must be powers of two");
  const int ChunkBytes = std::max(Width, BankBytes);
  const int ChunkShift = std::countr_zero(static_cast<unsigned>(ChunkBytes));
  const int64_t GroupMask = NumBanks * BankBytes / ChunkBytes - 1;
  // Degree 1, every group holding a single chunk, is the common case,
  // and its multiplier is 1 whatever the ideal: one pass that compares
  // each lane's chunk with the last one its group saw decides it.
  int64_t Last[MaxSharedBanks];
  std::fill(Last, Last + MaxSharedBanks, -1);
  bool Conflict = false;
  for (int A = 0; A < NumAddrs; ++A) {
    const int64_t Chunk = Addrs[A] >> ChunkShift;
    int64_t &L = Last[Chunk & GroupMask];
    Conflict |= (L >= 0) & (L != Chunk);
    L = Chunk;
  }
  if (!Conflict)
    return 1.0;
  // Distinct chunks per group.
  int64_t Chunks[MaxSharedBanks][WarpSize];
  int Counts[MaxSharedBanks] = {};
  int Degree = 0;
  int64_t Prev = -1;
  for (int A = 0; A < NumAddrs; ++A) {
    const int64_t Chunk = Addrs[A] >> ChunkShift;
    if (Chunk == Prev)
      continue;
    Prev = Chunk;
    const int Group = static_cast<int>(Chunk & GroupMask);
    int64_t *List = Chunks[Group];
    int &Count = Counts[Group];
    if (std::find(List, List + Count, Chunk) == List + Count) {
      List[Count++] = Chunk;
      Degree = std::max(Degree, Count);
    }
  }
  int Ideal = std::max(1, NumAddrs * Width / BankBytes / NumBanks);
  return std::max(1.0, static_cast<double>(Degree) / Ideal);
}

// The lane loop is written here, not through forLanes: a loop left in
// another function would be compiled for the default target and call
// libm's fmaf. The rows are copied into locals so that the loop sees no
// aliasing and vectorizes; every lane is computed and only the masked
// lanes are stored. IEEE 754 fma is exactly rounded, so each clone
// returns the same bits. Not under ThreadSanitizer: its binaries crash
// at startup when the clone's ifunc resolver runs before its runtime.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
void gpuperf::ffmaRow(uint32_t Mask, const uint32_t *A, const uint32_t *B,
                      const uint32_t *C, uint32_t *D) {
  float Af[WarpSize], Bf[WarpSize], Cf[WarpSize];
  uint32_t Out[WarpSize];
  std::memcpy(Af, A, sizeof(Af));
  std::memcpy(Bf, B, sizeof(Bf));
  std::memcpy(Cf, C, sizeof(Cf));
  for (int L = 0; L < WarpSize; ++L)
    Out[L] = floatResultBits(std::fma(Af[L], Bf[L], Cf[L]));
  if (Mask == 0xffffffffu) {
    std::memcpy(D, Out, sizeof(Out));
    return;
  }
  for (; Mask != 0; Mask &= Mask - 1) {
    const int L = std::countr_zero(Mask);
    D[L] = Out[L];
  }
}

ExecEffects Executor::execute(const Instruction &I, WarpContext &W,
                              int BlockIdxLinear,
                              SharedMemory &Shared) const {
  ExecEffects Fx;
  // Faults are reported at the first lane that would execute.
  auto Fault = [&Fx](TrapKind Kind, int Lane, std::string Detail) {
    Fx.Trap = Kind;
    Fx.TrapLane = Lane;
    Fx.TrapDetail = std::move(Detail);
    return Fx;
  };

  switch (I.Op) {
  case Opcode::NOP:
    return Fx;
  case Opcode::EXIT:
    Fx.IsExit = true;
    return Fx;
  case Opcode::BAR:
    Fx.IsBarrier = true;
    return Fx;
  case Opcode::BRA: {
    // Require warp-uniform branching (the paper's kernels are uniform;
    // per-lane work is predicated instead): every active lane must agree
    // with the first one.
    if (W.ActiveMask == 0)
      return Fx;
    const uint32_t Guard = W.guardMask(I);
    const bool Taken = (Guard >> std::countr_zero(W.ActiveMask)) & 1;
    if (uint32_t Diverging = W.ActiveMask & (Taken ? ~Guard : Guard))
      return Fault(TrapKind::DivergentBranch, std::countr_zero(Diverging),
                   "divergent branch is not supported by the simulator");
    Fx.BranchTaken = Taken;
    return Fx;
  }
  default:
    break;
  }

  const uint32_t Mask = W.ActiveMask & W.guardMask(I);
  const OpClass Class = opcodeInfo(I.Op).Class;
  if (Class == OpClass::SharedMem || Class == OpClass::GlobalMem) {
    const int Width = memWidthBytes(I.Width);
    const int Words = memWidthRegs(I.Width);
    const bool IsLoad = I.Op == Opcode::LDS || I.Op == Opcode::LD;
    const bool IsShared = Class == OpClass::SharedMem;
    const uint8_t AddrReg = I.Src[0];
    const uint32_t *AddrRow = W.readRow(AddrReg);
    // Per data word: the destination row of a load, the source row of a
    // store.
    uint32_t Discard[WarpSize];
    uint32_t *LoadRows[4] = {};
    const uint32_t *StoreRows[4] = {};
    bool LoadsIntoAddrRow = false;
    for (int Word = 0; Word < Words; ++Word) {
      if (IsLoad) {
        LoadRows[Word] =
            W.writeRow(static_cast<uint8_t>(I.Dst + Word), Discard);
        LoadsIntoAddrRow |= LoadRows[Word] == AddrRow;
      } else {
        StoreRows[Word] = W.readRow(static_cast<uint8_t>(I.Src[1] + Word));
      }
    }
    // The shared-access memo: a slot keyed by the address register, its
    // write generation, the lane mask and the width holds the extremes of
    // the lanes' address-register values and, per Imm class
    // (Imm mod ChunkBytes) / Width, the serialization of a trap-free
    // access of that class. Every base row in a slot passed a trap-free
    // access, so all its lanes share one residue mod Width, and a hit
    // whose least lane is aligned and whose shifted extremes are in
    // bounds needs no per-lane check. Two aligned Imms of one class
    // differ by a multiple of ChunkBytes, so every lane's chunk
    // (sharedSerialization) moves by the same count, which permutes the
    // bank groups and keeps each group's count of distinct chunks. A key
    // match whose class is not filled yet runs the lane path and fills
    // that class alone. A load into its own address row changes that row
    // after writeRow bumped its generation, so it neither reads nor
    // fills the memo.
    WarpContext::SharedAccessMemo *Memo = nullptr;
    bool KeyMatch = false, Memoized = false;
    int ImmClass = 0;
    if (IsShared && Mask != 0 && !LoadsIntoAddrRow) {
      const int ChunkBytes = std::max(Width, M.SharedMemBankBytes);
      ImmClass = (I.Imm & (ChunkBytes - 1)) / Width;
      if (ImmClass < WarpContext::SharedAccessMemo::MaxClasses) {
        Memo = &W.SharedMemo[AddrReg & 3];
        KeyMatch = Memo->Reg == AddrReg &&
                   Memo->Gen == W.RowGen[AddrReg & 63] &&
                   Memo->Mask == Mask && Memo->Width == Width;
        Memoized = KeyMatch && ((Memo->Filled >> ImmClass) & 1) &&
                   ((Memo->MinBase + I.Imm) & (Width - 1)) == 0 &&
                   Memo->MinBase + I.Imm >= 0 &&
                   Memo->MaxBase + I.Imm + Width <= Shared.size();
      }
    }
    // First pass, free of side effects: the address of each active lane,
    // ascending, up to the first lane that would fault. A memo hit checks
    // nothing, and only a valued access needs its addresses.
    int64_t Addrs[WarpSize];
    int NumAddrs = 0;
    int BadLane = -1;
    int64_t BadAddr = 0;
    if (Memoized) {
      if (!TimingOnly)
        for (uint32_t Lanes = Mask; Lanes != 0; Lanes &= Lanes - 1)
          Addrs[NumAddrs++] =
              static_cast<int64_t>(AddrRow[std::countr_zero(Lanes)]) +
              I.Imm;
    } else {
      for (uint32_t Lanes = Mask; Lanes != 0; Lanes &= Lanes - 1) {
        const int Lane = std::countr_zero(Lanes);
        const int64_t Addr = static_cast<int64_t>(AddrRow[Lane]) + I.Imm;
        const bool Ok = (Addr & (Width - 1)) == 0 &&
                        (IsShared ? Shared.inBounds(Addr, Width)
                                  : Addr >= 0 &&
                                        Global.inBounds(
                                            static_cast<uint64_t>(Addr),
                                            Width));
        if (!Ok) {
          BadLane = Lane;
          BadAddr = Addr;
          break;
        }
        Addrs[NumAddrs++] = Addr;
      }
    }
    // Second pass: move the words of the lanes that passed, in the same
    // order, so a faulting access keeps the earlier lanes' effects. A
    // timing-only executor moves none. Each kind of move runs its own
    // loop, so no word tests the kind.
    const int NumMoved = TimingOnly ? 0 : NumAddrs;
    auto MoveWords = [&](auto &&Move) {
      uint32_t Lanes = Mask;
      for (int Idx = 0; Idx < NumMoved; ++Idx, Lanes &= Lanes - 1) {
        const int Lane = std::countr_zero(Lanes);
        for (int Word = 0; Word < Words; ++Word)
          Move(Addrs[Idx] + 4 * Word, Lane, Word);
      }
    };
    uint8_t *SharedBytes = Shared.data();
    if (IsShared && IsLoad)
      MoveWords([&](int64_t A, int Lane, int Word) {
        std::memcpy(&LoadRows[Word][Lane], SharedBytes + A, 4);
      });
    else if (IsShared)
      MoveWords([&](int64_t A, int Lane, int Word) {
        std::memcpy(SharedBytes + A, &StoreRows[Word][Lane], 4);
      });
    else if (IsLoad)
      MoveWords([&](int64_t A, int Lane, int Word) {
        LoadRows[Word][Lane] = Global.load32(static_cast<uint32_t>(A));
      });
    else
      MoveWords([&](int64_t A, int Lane, int Word) {
        Global.store32(static_cast<uint32_t>(A), StoreRows[Word][Lane]);
      });
    if (BadLane >= 0) {
      Fx.TrapAddress = static_cast<uint64_t>(BadAddr);
      if ((BadAddr & (Width - 1)) != 0)
        return Fault(TrapKind::MisalignedAccess, BadLane,
                     formatString("%d-byte access", Width));
      return Fault(
          IsShared ? (IsLoad ? TrapKind::SharedLoadOOB
                             : TrapKind::SharedStoreOOB)
                   : (IsLoad ? TrapKind::GlobalLoadOOB
                             : TrapKind::GlobalStoreOOB),
          BadLane,
          formatString("%s of %d bytes against a %lld-byte %s allocation",
                       IsLoad ? "load" : "store", Width,
                       IsShared ? static_cast<long long>(Shared.size())
                                : static_cast<long long>(Global.size()),
                       IsShared ? "shared" : "global"));
    }
    if (Memoized) {
      Fx.SharedSerialization = Memo->Serialization[ImmClass];
    } else if (IsShared) {
      Fx.SharedSerialization = sharedSerialization(
          Addrs, NumAddrs, Width, M.SharedMemBanks, M.SharedMemBankBytes);
      if (Memo) {
        if (!KeyMatch) {
          const auto [Min, Max] =
              std::minmax_element(Addrs, Addrs + NumAddrs);
          *Memo = {.Gen = W.RowGen[AddrReg & 63],
                   .MinBase = *Min - I.Imm,
                   .MaxBase = *Max - I.Imm,
                   .Mask = Mask,
                   .Reg = AddrReg,
                   .Width = static_cast<uint8_t>(Width)};
        }
        Memo->Serialization[ImmClass] = Fx.SharedSerialization;
        Memo->Filled |= static_cast<uint8_t>(1u << ImmClass);
      }
    } else {
      // Coalescing: distinct 128-byte segments touched by the warp. An
      // aligned access of at most 16 bytes never straddles a segment.
      int64_t Segments[WarpSize];
      int NumSegments = 0;
      for (int A = 0; A < NumAddrs; ++A) {
        int64_t S = Addrs[A] / 128;
        if (std::find(Segments, Segments + NumSegments, S) ==
            Segments + NumSegments)
          Segments[NumSegments++] = S;
      }
      Fx.GlobalTransactions = NumSegments;
      Fx.GlobalBytes = NumSegments * 128;
    }
    return Fx;
  }
  if (TimingOnly && Class == OpClass::FloatMath)
    return Fx;

  const uint32_t *A = W.readRow(I.Src[0]);
  uint32_t ImmRow[WarpSize];
  const uint32_t *B = ImmRow;
  if (I.immReplacesSrc1())
    std::fill(ImmRow, ImmRow + WarpSize, static_cast<uint32_t>(I.Imm));
  else
    B = W.readRow(I.Src[1]);
  const uint32_t *C = W.readRow(I.Src[2]);
  uint32_t Discard[WarpSize];
  uint32_t *D = I.Op == Opcode::ISETP ? Discard : W.writeRow(I.Dst, Discard);
  auto Fill = [&](uint32_t V) {
    forLanes(Mask, [&](int Lane) { D[Lane] = V; });
  };

  switch (I.Op) {
  case Opcode::FFMA:
    ffmaRow(Mask, A, B, C, D);
    break;
  case Opcode::FADD:
    forLanes(Mask, [&](int L) {
      D[L] = floatResultBits(asFloat(A[L]) + asFloat(B[L]));
    });
    break;
  case Opcode::FMUL:
    forLanes(Mask, [&](int L) {
      D[L] = floatResultBits(asFloat(A[L]) * asFloat(B[L]));
    });
    break;
  case Opcode::IADD:
    forLanes(Mask, [&](int L) { D[L] = A[L] + B[L]; });
    break;
  case Opcode::IMUL:
    forLanes(Mask, [&](int L) { D[L] = A[L] * B[L]; });
    break;
  case Opcode::IMAD:
    forLanes(Mask, [&](int L) { D[L] = A[L] * B[L] + C[L]; });
    break;
  case Opcode::ISCADD: {
    const int Shift = I.iscaddShift();
    forLanes(Mask, [&](int L) { D[L] = (A[L] << Shift) + B[L]; });
    break;
  }
  case Opcode::SHL:
    forLanes(Mask, [&](int L) { D[L] = A[L] << (B[L] & 31); });
    break;
  case Opcode::SHR:
    forLanes(Mask, [&](int L) { D[L] = A[L] >> (B[L] & 31); });
    break;
  case Opcode::LOP_AND:
    forLanes(Mask, [&](int L) { D[L] = A[L] & B[L]; });
    break;
  case Opcode::LOP_OR:
    forLanes(Mask, [&](int L) { D[L] = A[L] | B[L]; });
    break;
  case Opcode::LOP_XOR:
    forLanes(Mask, [&](int L) { D[L] = A[L] ^ B[L]; });
    break;
  case Opcode::MOV:
    forLanes(Mask, [&](int L) { D[L] = A[L]; });
    break;
  case Opcode::MOV32I:
    Fill(static_cast<uint32_t>(I.Imm));
    break;
  case Opcode::S2R: {
    const int FirstTid = W.WarpInBlock * WarpSize;
    switch (I.specialReg()) {
    case SpecialReg::TID_X:
      forLanes(Mask, [&](int L) {
        D[L] = static_cast<uint32_t>((FirstTid + L) % Dims.BlockX);
      });
      break;
    case SpecialReg::TID_Y:
      forLanes(Mask, [&](int L) {
        D[L] = static_cast<uint32_t>((FirstTid + L) / Dims.BlockX);
      });
      break;
    case SpecialReg::CTAID_X:
      Fill(static_cast<uint32_t>(BlockIdxLinear % Dims.GridX));
      break;
    case SpecialReg::CTAID_Y:
      Fill(static_cast<uint32_t>(BlockIdxLinear / Dims.GridX));
      break;
    case SpecialReg::NTID_X:
      Fill(static_cast<uint32_t>(Dims.BlockX));
      break;
    case SpecialReg::NTID_Y:
      Fill(static_cast<uint32_t>(Dims.BlockY));
      break;
    case SpecialReg::NCTAID_X:
      Fill(static_cast<uint32_t>(Dims.GridX));
      break;
    case SpecialReg::NCTAID_Y:
      Fill(static_cast<uint32_t>(Dims.GridY));
      break;
    default:
      Fill(0);
      break;
    }
    break;
  }
  case Opcode::LDC: {
    if (Mask == 0)
      break;
    size_t Index = static_cast<uint32_t>(I.Imm) / 4;
    if (Index >= Params.size()) {
      Fx.TrapAddress = static_cast<uint32_t>(I.Imm);
      return Fault(TrapKind::InvalidConstOffset, std::countr_zero(Mask),
                   formatString("LDC offset 0x%x beyond the %zu parameter "
                                "words",
                                static_cast<uint32_t>(I.Imm),
                                Params.size()));
    }
    Fill(Params[Index]);
    break;
  }
  case Opcode::ISETP: {
    uint32_t Bits = 0;
    switch (I.cmpOp()) {
    case CmpOp::LT:
      Bits = compareLanes(Mask, A, B, std::less<int32_t>());
      break;
    case CmpOp::LE:
      Bits = compareLanes(Mask, A, B, std::less_equal<int32_t>());
      break;
    case CmpOp::GT:
      Bits = compareLanes(Mask, A, B, std::greater<int32_t>());
      break;
    case CmpOp::GE:
      Bits = compareLanes(Mask, A, B, std::greater_equal<int32_t>());
      break;
    case CmpOp::EQ:
      Bits = compareLanes(Mask, A, B, std::equal_to<int32_t>());
      break;
    case CmpOp::NE:
      Bits = compareLanes(Mask, A, B, std::not_equal_to<int32_t>());
      break;
    }
    if (Mask != 0)
      W.writePredLanes(I.Dst, Mask, Bits);
    break;
  }
  default:
    if (Mask != 0)
      return Fault(TrapKind::UnimplementedOpcode, std::countr_zero(Mask),
                   formatString("opcode %s decodes but has no executable "
                                "semantics",
                                std::string(opcodeMnemonic(I.Op)).c_str()));
    break;
  }
  return Fx;
}
