//===- tests/ExecutorTest.cpp - whole-warp executor paths -----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the executor's whole-warp paths against in-test references: FFMA
/// (ffmaRow) against libm's fma with NaN canonicalization, shared-memory
/// serialization against division-based bank arithmetic, and LDS/STS and
/// LD/ST against a lane-by-lane access loop, including where a lane traps.
///
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

using namespace gpuperf;

namespace {

constexpr uint32_t FullMask = 0xffffffffu;
constexpr uint32_t Sentinel = 0xdeadbeefu;

uint32_t bitsOf(float F) { return std::bit_cast<uint32_t>(F); }

/// The FFMA contract, computed independently: libm's exactly rounded fma,
/// then the canonical quiet NaN.
uint32_t referenceFfma(uint32_t A, uint32_t B, uint32_t C) {
  const float R = std::fma(std::bit_cast<float>(A), std::bit_cast<float>(B),
                           std::bit_cast<float>(C));
  return std::isnan(R) ? 0x7fffffffu : bitsOf(R);
}

struct FfmaCase {
  uint32_t A, B, C;
  uint32_t Expected; ///< Worked out by hand, not by a host fma.
};

/// Inputs whose results a wrong FFMA gets wrong: fused results that
/// differ from a rounded multiply then add, signed zeros, infinities,
/// NaN payloads, subnormals and overflow.
const std::vector<FfmaCase> &specialFfmaCases() {
  static const std::vector<FfmaCase> Cases = {
      // (1 + 2^-12)^2 - (1 + 2^-11) = 2^-24; unfused, the product rounds
      // to 1 + 2^-11 and the sum is 0.
      {0x3f800800, 0x3f800800, 0xbf801000, 0x33800000},
      // FLT_MAX * 2 - FLT_MAX = FLT_MAX; unfused, the product overflows.
      {0x7f7fffff, 0x40000000, 0xff7fffff, 0x7f7fffff},
      // 2^-75 * 2^-75 + 2^-149 = 1.5 * 2^-149, rounds to even 2^-148;
      // unfused, the product flushes to 0 and the sum is 2^-149.
      {0x1a000000, 0x1a000000, 0x00000001, 0x00000002},
      {0x00000000, 0xbf800000, 0x00000000, 0x00000000}, // +0 * -1 + +0
      {0x80000000, 0x3f800000, 0x80000000, 0x80000000}, // -0 * 1 + -0
      {0x7f800000, 0x40000000, 0x3f800000, 0x7f800000}, // inf * 2 + 1
      {0xff800000, 0x40000000, 0x3f800000, 0xff800000}, // -inf * 2 + 1
      {0x7f800000, 0x00000000, 0x3f800000, 0x7fffffff}, // inf * 0 + 1
      {0x7f800000, 0x3f800000, 0xff800000, 0x7fffffff}, // inf - inf
      {0x7fc01234, 0x3f800000, 0x00000000, 0x7fffffff}, // quiet NaN payload
      {0x3f800000, 0x3f800000, 0xffc00001, 0x7fffffff}, // negative NaN
      {0x7f800001, 0x3f800000, 0x00000000, 0x7fffffff}, // signalling NaN
      {0x00400000, 0x3f000000, 0x00000000, 0x00200000}, // 2^-127 / 2
      {0x00000001, 0x3f000000, 0x00000000, 0x00000000}, // 2^-150 ties to 0
      {0x00800000, 0x3f000000, 0x00000000, 0x00400000}, // FLT_MIN / 2
      {0x00000001, 0x3f800000, 0x00000001, 0x00000002}, // subnormal sum
      {0x7f7fffff, 0x40000000, 0x00000000, 0x7f800000}, // overflow
      {0xff7fffff, 0x40000000, 0x00000000, 0xff800000}, // negative overflow
      {0x7f7fffff, 0x3f800000, 0x7f7fffff, 0x7f800000}, // FLT_MAX + FLT_MAX
  };
  return Cases;
}

/// One warp's A, B and C rows: the special cases first, then values
/// drawn from \p R -- random bit patterns, so every exponent range
/// including NaN, infinity and subnormals turns up.
struct FfmaRows {
  uint32_t A[WarpSize], B[WarpSize], C[WarpSize];
};

FfmaRows makeFfmaRows(Rng &R, bool WithSpecials) {
  FfmaRows Rows;
  const auto &Special = specialFfmaCases();
  for (int L = 0; L < WarpSize; ++L) {
    if (WithSpecials && static_cast<size_t>(L) < Special.size()) {
      Rows.A[L] = Special[L].A;
      Rows.B[L] = Special[L].B;
      Rows.C[L] = Special[L].C;
      continue;
    }
    Rows.A[L] = static_cast<uint32_t>(R.next());
    Rows.B[L] = static_cast<uint32_t>(R.next());
    Rows.C[L] = static_cast<uint32_t>(R.next());
  }
  return Rows;
}

} // namespace

TEST(ExecutorFfma, SpecialCasesMatchHandResults) {
  Rng R(1);
  const FfmaRows Rows = makeFfmaRows(R, /*WithSpecials=*/true);
  uint32_t D[WarpSize];
  std::fill(D, D + WarpSize, Sentinel);
  ffmaRow(FullMask, Rows.A, Rows.B, Rows.C, D);
  const auto &Special = specialFfmaCases();
  for (size_t L = 0; L < Special.size(); ++L) {
    EXPECT_EQ(D[L], Special[L].Expected) << "lane " << L;
    EXPECT_EQ(referenceFfma(Special[L].A, Special[L].B, Special[L].C),
              Special[L].Expected)
        << "lane " << L;
  }
  // The first case really is one where fusing matters. The product is
  // rounded through a volatile, so that a compiler allowed to contract
  // (-ffp-contract=fast) cannot fuse it with the sum below.
  const volatile float Unfused = std::bit_cast<float>(Special[0].A) *
                                 std::bit_cast<float>(Special[0].B);
  EXPECT_NE(bitsOf(Unfused + std::bit_cast<float>(Special[0].C)),
            Special[0].Expected);
}

TEST(ExecutorFfma, FullAndPartialMasksMatchReference) {
  Rng R(7);
  std::vector<uint32_t> Masks = {FullMask,    0u,          1u,
                                 0x80000000u, 0x0000ffffu, 0xa5a5a5a5u,
                                 0xfffffffeu, 0x7fffffffu};
  for (int I = 0; I < 24; ++I)
    Masks.push_back(static_cast<uint32_t>(R.next()));
  for (int Trial = 0; Trial < 64; ++Trial) {
    const FfmaRows Rows = makeFfmaRows(R, /*WithSpecials=*/Trial == 0);
    for (uint32_t Mask : Masks) {
      uint32_t D[WarpSize];
      std::fill(D, D + WarpSize, Sentinel);
      ffmaRow(Mask, Rows.A, Rows.B, Rows.C, D);
      for (int L = 0; L < WarpSize; ++L) {
        const uint32_t Want = (Mask >> L) & 1
                                  ? referenceFfma(Rows.A[L], Rows.B[L],
                                                  Rows.C[L])
                                  : Sentinel;
        ASSERT_EQ(D[L], Want) << formatString("mask %08x lane %d", Mask, L);
      }
    }
  }
}

TEST(ExecutorFfma, DestinationMayAliasASource) {
  Rng R(11);
  for (uint32_t Mask : {FullMask, 0x00ff00ffu}) {
    const FfmaRows Rows = makeFfmaRows(R, /*WithSpecials=*/true);
    uint32_t Want[WarpSize];
    for (int L = 0; L < WarpSize; ++L)
      Want[L] = (Mask >> L) & 1
                    ? referenceFfma(Rows.A[L], Rows.B[L], Rows.C[L])
                    : Rows.C[L];
    // The accumulator form, FFMA Rc, Ra, Rb, Rc.
    uint32_t Acc[WarpSize];
    std::copy(Rows.C, Rows.C + WarpSize, Acc);
    ffmaRow(Mask, Rows.A, Rows.B, Acc, Acc);
    EXPECT_TRUE(std::equal(Acc, Acc + WarpSize, Want));
    // D over A, and all three sources one row.
    uint32_t AOut[WarpSize];
    std::copy(Rows.A, Rows.A + WarpSize, AOut);
    ffmaRow(Mask, AOut, Rows.B, Rows.C, AOut);
    for (int L = 0; L < WarpSize; ++L)
      EXPECT_EQ(AOut[L], (Mask >> L) & 1 ? Want[L] : Rows.A[L]);
    uint32_t Same[WarpSize];
    std::copy(Rows.B, Rows.B + WarpSize, Same);
    ffmaRow(Mask, Same, Same, Same, Same);
    for (int L = 0; L < WarpSize; ++L)
      EXPECT_EQ(Same[L], (Mask >> L) & 1 ? referenceFfma(Rows.B[L], Rows.B[L],
                                                         Rows.B[L])
                                         : Rows.B[L]);
  }
}

TEST(ExecutorFfma, InstructionHonoursActiveMaskAndGuard) {
  GlobalMemory GM;
  const std::vector<uint32_t> Params;
  const LaunchDims Dims{1, 1, 32, 1};
  Executor Exec(gtx580(), GM, Params, Dims);
  SharedMemory Shared(0);
  Rng R(3);
  const FfmaRows Rows = makeFfmaRows(R, /*WithSpecials=*/true);
  WarpContext W;
  W.reset(8);
  W.ActiveMask = 0x0fffffffu;
  W.Preds[0] = 0xf0f0f0f0u;
  auto Row = [&](int Reg) { return W.Regs.data() + Reg * WarpSize; };
  std::copy(Rows.A, Rows.A + WarpSize, Row(0));
  std::copy(Rows.B, Rows.B + WarpSize, Row(1));
  std::copy(Rows.C, Rows.C + WarpSize, Row(2));
  std::fill(Row(3), Row(3) + WarpSize, Sentinel);
  Instruction I = makeFFMA(3, 0, 1, 2);
  I.GuardPred = 0;
  ExecEffects Fx = Exec.execute(I, W, 0, Shared);
  ASSERT_FALSE(Fx.faulted());
  const uint32_t Mask = W.ActiveMask & W.Preds[0];
  for (int L = 0; L < WarpSize; ++L)
    EXPECT_EQ(Row(3)[L], (Mask >> L) & 1
                             ? referenceFfma(Rows.A[L], Rows.B[L], Rows.C[L])
                             : Sentinel)
        << "lane " << L;
}

// --- Shared-memory bank serialization ----------------------------------------

namespace {

/// The serialization multiplier by the definition: word = address /
/// bank bytes, bank = word % banks, the degree is the most distinct words
/// any bank holds, normalized by the ideal pass count of this width.
double divisionSerialization(const std::vector<int64_t> &Addrs, int Width,
                             int NumBanks, int BankBytes) {
  if (Addrs.empty())
    return 1.0;
  std::vector<std::set<int64_t>> Banks(NumBanks);
  size_t Degree = 0;
  for (int64_t Addr : Addrs)
    for (int Offset = 0; Offset < Width; Offset += BankBytes) {
      const int64_t Word = (Addr + Offset) / BankBytes;
      std::set<int64_t> &Bank = Banks[Word % NumBanks];
      Bank.insert(Word);
      Degree = std::max(Degree, Bank.size());
    }
  const int Ideal = std::max(
      1, static_cast<int>(Addrs.size()) * Width / BankBytes / NumBanks);
  return std::max(1.0, static_cast<double>(Degree) / Ideal);
}

const MachineDesc *const AllMachines[] = {&gt200(), &gtx580(), &gtx680(),
                                          &teslaK20X()};
constexpr MemWidth AllWidths[] = {MemWidth::B32, MemWidth::B64,
                                  MemWidth::B128};

/// One warp's shared addresses (lane order) for \p Width-byte accesses
/// below \p Limit bytes: strided, broadcast groups, a small window with
/// collisions, or scattered.
std::vector<int64_t> randomSharedPattern(Rng &R, int Width, int Limit) {
  std::vector<int64_t> Addrs(WarpSize);
  const int64_t Slots = Limit / Width;
  switch (R.nextBelow(4)) {
  case 0: { // Stride in elements, wrapping inside the allocation.
    static const int Strides[] = {0, 1, 2, 3, 4, 8, 16, 17, 32, 33};
    const int64_t Stride = Strides[R.nextBelow(std::size(Strides))];
    const int64_t Base = static_cast<int64_t>(R.nextBelow(Slots));
    for (int L = 0; L < WarpSize; ++L)
      Addrs[L] = (Base + L * Stride) % Slots * Width;
    break;
  }
  case 1: { // Groups of lanes on one address (broadcast reads).
    const int Group = 1 << R.nextBelow(6);
    const int64_t Base = static_cast<int64_t>(R.nextBelow(Slots));
    for (int L = 0; L < WarpSize; ++L)
      Addrs[L] = (Base + L / Group) % Slots * Width;
    break;
  }
  case 2: // A window of eight elements: many repeats, some adjacent.
    for (int L = 0; L < WarpSize; ++L)
      Addrs[L] = static_cast<int64_t>(R.nextBelow(8)) * Width;
    break;
  default:
    for (int L = 0; L < WarpSize; ++L)
      Addrs[L] = static_cast<int64_t>(R.nextBelow(Slots)) * Width;
    break;
  }
  return Addrs;
}

/// The lanes of \p Mask, ascending.
std::vector<int> lanesOf(uint32_t Mask) {
  std::vector<int> Lanes;
  for (int L = 0; L < WarpSize; ++L)
    if ((Mask >> L) & 1)
      Lanes.push_back(L);
  return Lanes;
}

uint32_t randomMask(Rng &R) {
  switch (R.nextBelow(4)) {
  case 0:
  case 1:
    return FullMask;
  case 2:
    return static_cast<uint32_t>(R.next());
  default:
    return (1u << R.nextInRange(1, 31)) - 1;
  }
}

} // namespace

TEST(ExecutorShared, SerializationMatchesDivisionReference) {
  Rng R(2024);
  for (const MachineDesc *M : AllMachines)
    for (MemWidth MW : AllWidths) {
      const int Width = memWidthBytes(MW);
      int Conflicted = 0;
      for (int Trial = 0; Trial < 2000; ++Trial) {
        std::vector<int64_t> Addrs =
            randomSharedPattern(R, Width, 48 * 1024);
        Addrs.resize(static_cast<size_t>(R.nextInRange(0, WarpSize)));
        const double Want = divisionSerialization(
            Addrs, Width, M->SharedMemBanks, M->SharedMemBankBytes);
        Conflicted += Want > 1.0;
        EXPECT_EQ(sharedSerialization(Addrs.data(),
                                      static_cast<int>(Addrs.size()), Width,
                                      M->SharedMemBanks,
                                      M->SharedMemBankBytes),
                  Want)
            << M->Name << " width " << Width << " trial " << Trial;
      }
      EXPECT_GT(Conflicted, 100) << M->Name << " width " << Width;
    }
}

// Accesses whose worst bank degree equals the inherent degree of their
// width (Degree == Ideal > 1), lanes in one bank word, and runs of lanes
// repeating the previous lane's address, each against the reference.
TEST(ExecutorShared, SerializationMatchesReferenceOnWideAndRepeatedLanes) {
  struct Case {
    const MachineDesc *M;
    int Width;
    const char *What;
    std::vector<int64_t> Addrs;
    double Want;
  };
  auto Lanes = [](auto AddrOf) {
    std::vector<int64_t> Addrs(WarpSize);
    for (int L = 0; L < WarpSize; ++L)
      Addrs[L] = AddrOf(L);
    return Addrs;
  };
  const Case Cases[] = {
      // 16 distinct 8-byte chunks, two per bank group: degree 2, ideal 2.
      {&gtx580(), 8, "LDS.64 over 16 chunks",
       Lanes([](int L) { return 8 * ((L / 2) % 8 + 16 * (L / 16)); }), 1.0},
      // The same chunks four to a group: degree 4 against ideal 2.
      {&gtx580(), 8, "LDS.64 four chunks a group",
       Lanes([](int L) { return 8 * ((L / 2) % 4 + 16 * (L / 8)); }), 2.0},
      // Lane pairs inside one 8-byte bank word broadcast.
      {&gtx680(), 4, "LDS.32 two lanes a word",
       Lanes([](int L) { return 4 * L; }), 1.0},
      {&gtx680(), 4, "LDS.32 two lanes a word, 64-byte stride",
       Lanes([](int L) { return 4 * (L % 2) + 256 * (L / 2); }), 16.0},
      // Sequential LDS.128: degree 4 (GTX580) and 2 (GTX680) = ideal.
      {&gtx580(), 16, "LDS.128 sequential",
       Lanes([](int L) { return 16 * L; }), 1.0},
      {&gtx680(), 16, "LDS.128 sequential",
       Lanes([](int L) { return 16 * L; }), 1.0},
      {&gtx580(), 16, "LDS.128 stride 2",
       Lanes([](int L) { return 32 * L; }), 2.0},
      {&gtx680(), 16, "LDS.128 stride 2",
       Lanes([](int L) { return 32 * L; }), 2.0},
      // Runs of four lanes on one address, runs landing on one bank.
      {&gtx580(), 4, "LDS.32 runs of four, 128-byte stride",
       Lanes([](int L) { return 128 * (L / 4); }), 8.0},
      {&gtx680(), 8, "LDS.64 runs of two, 256-byte stride",
       Lanes([](int L) { return 256 * (L / 2); }), 16.0},
      {&gtx580(), 8, "LDS.64 runs returning to an earlier address",
       Lanes([](int L) { return 256 * ((L / 4) % 2); }), 1.0},
  };
  for (const Case &C : Cases) {
    const int Banks = C.M->SharedMemBanks, BankBytes = C.M->SharedMemBankBytes;
    EXPECT_EQ(divisionSerialization(C.Addrs, C.Width, Banks, BankBytes),
              C.Want)
        << C.M->Name << " " << C.What;
    EXPECT_EQ(sharedSerialization(C.Addrs.data(),
                                  static_cast<int>(C.Addrs.size()), C.Width,
                                  Banks, BankBytes),
              C.Want)
        << C.M->Name << " " << C.What;
  }
}

namespace {

/// Registers of the load/store tests: the address, four store-data words
/// and four load-destination words.
constexpr uint8_t AddrReg = 0, DataReg = 1, DestReg = 5;
constexpr int TestRegs = 9;
/// Size of the shared allocation, and of global memory, in those tests.
constexpr int SpaceBytes = 4096;

/// What a lane-by-lane access loop does: lanes in ascending order, each
/// checked for alignment, then bounds, then moved word by word; the first
/// faulting lane stops the warp with the memory effects of the lanes
/// before it.
struct LaneLoopResult {
  std::vector<uint32_t> Image;            ///< Word image after the access.
  std::vector<uint32_t> Dest;             ///< DestReg rows after a load.
  std::vector<int64_t> Addrs;             ///< Addresses of completed lanes.
  TrapKind Trap = TrapKind::None;
  int Lane = -1;
  uint64_t Address = 0;
  std::string Detail;
};

LaneLoopResult laneLoop(const WarpContext &W, uint32_t Mask, bool IsShared,
                        bool IsLoad, int Width, int32_t Imm,
                        std::vector<uint32_t> Image) {
  LaneLoopResult Out;
  Out.Dest.assign(W.Regs.begin() + DestReg * WarpSize,
                  W.Regs.begin() + (DestReg + 4) * WarpSize);
  for (int L : lanesOf(Mask)) {
    const int64_t Addr =
        static_cast<int64_t>(W.Regs[AddrReg * WarpSize + L]) + Imm;
    if (Addr % Width != 0) {
      Out.Trap = TrapKind::MisalignedAccess;
      Out.Detail = formatString("%d-byte access", Width);
    } else if (Addr < 0 || Addr + Width > SpaceBytes) {
      Out.Trap = IsShared ? (IsLoad ? TrapKind::SharedLoadOOB
                                    : TrapKind::SharedStoreOOB)
                          : (IsLoad ? TrapKind::GlobalLoadOOB
                                    : TrapKind::GlobalStoreOOB);
      Out.Detail = formatString(
          "%s of %d bytes against a %d-byte %s allocation",
          IsLoad ? "load" : "store", Width, SpaceBytes,
          IsShared ? "shared" : "global");
    }
    if (Out.Trap != TrapKind::None) {
      Out.Lane = L;
      Out.Address = static_cast<uint64_t>(Addr);
      break;
    }
    Out.Addrs.push_back(Addr);
    for (int Word = 0; Word < Width / 4; ++Word) {
      uint32_t &Cell = Image[static_cast<size_t>(Addr / 4 + Word)];
      if (IsLoad)
        Out.Dest[Word * WarpSize + L] = Cell;
      else
        Cell = W.Regs[(DataReg + Word) * WarpSize + L];
    }
  }
  Out.Image = std::move(Image);
  return Out;
}

/// Executes one LDS or STS (\p IsShared) or LD or ST on \p M and
/// compares every effect with laneLoop's.
void checkAgainstLaneLoop(const MachineDesc &M, const WarpContext &Start,
                          bool IsShared, bool IsLoad, MemWidth MW, int32_t Imm,
                          const std::vector<uint32_t> &Image,
                          const std::string &Where) {
  GlobalMemory GM(SpaceBytes);
  SharedMemory Shared(SpaceBytes);
  for (size_t Word = 0; Word < Image.size(); ++Word) {
    if (IsShared)
      std::memcpy(Shared.data() + 4 * Word, &Image[Word], 4);
    else
      GM.store32(static_cast<uint32_t>(4 * Word), Image[Word]);
  }
  const std::vector<uint32_t> Params;
  const LaunchDims Dims{1, 1, 32, 1};
  Executor Exec(M, GM, Params, Dims);
  WarpContext W = Start;
  const int Width = memWidthBytes(MW);
  const LaneLoopResult Want =
      laneLoop(W, W.ActiveMask, IsShared, IsLoad, Width, Imm, Image);

  const Instruction I =
      IsShared ? (IsLoad ? makeLDS(MW, DestReg, AddrReg, Imm)
                         : makeSTS(MW, AddrReg, Imm, DataReg))
               : (IsLoad ? makeLD(MW, DestReg, AddrReg, Imm)
                         : makeST(MW, AddrReg, Imm, DataReg));
  const ExecEffects Fx = Exec.execute(I, W, 0, Shared);
  EXPECT_EQ(Fx.Trap, Want.Trap) << Where;
  EXPECT_EQ(Fx.TrapLane, Want.Lane) << Where;
  EXPECT_EQ(Fx.TrapAddress, Want.Address) << Where;
  EXPECT_EQ(Fx.TrapDetail, Want.Detail) << Where;
  for (size_t Word = 0; Word < Image.size(); ++Word) {
    uint32_t After;
    if (IsShared)
      std::memcpy(&After, Shared.data() + 4 * Word, 4);
    else
      After = GM.load32(static_cast<uint32_t>(4 * Word));
    ASSERT_EQ(After, Want.Image[Word]) << Where << " memory word " << Word;
  }
  for (size_t Cell = 0; Cell < Want.Dest.size(); ++Cell)
    ASSERT_EQ(W.Regs[DestReg * WarpSize + Cell], Want.Dest[Cell])
        << Where << " register cell " << Cell;
  if (Want.Trap != TrapKind::None)
    return;
  if (IsShared) {
    EXPECT_EQ(Fx.SharedSerialization,
              divisionSerialization(Want.Addrs, Width, M.SharedMemBanks,
                                    M.SharedMemBankBytes))
        << Where;
  } else {
    std::set<int64_t> Segments;
    for (int64_t Addr : Want.Addrs)
      Segments.insert(Addr / 128);
    EXPECT_EQ(Fx.GlobalTransactions, static_cast<int>(Segments.size()))
        << Where;
  }
}

/// A warp with random data and destination rows and the addresses
/// \p Addrs (minus \p Imm) in its address row.
WarpContext warpWithAddresses(Rng &R, uint32_t Mask,
                              const std::vector<int64_t> &Addrs,
                              int32_t Imm) {
  WarpContext W;
  W.reset(TestRegs);
  W.ActiveMask = Mask;
  for (uint32_t &V : W.Regs)
    V = static_cast<uint32_t>(R.next());
  for (int L = 0; L < WarpSize; ++L)
    W.Regs[AddrReg * WarpSize + L] = static_cast<uint32_t>(Addrs[L] - Imm);
  return W;
}

std::vector<uint32_t> randomImage(Rng &R) {
  std::vector<uint32_t> Image(SpaceBytes / 4);
  for (uint32_t &V : Image)
    V = static_cast<uint32_t>(R.next());
  return Image;
}

} // namespace

/// "LDS.64", "ST.128", ... for failure messages.
std::string accessName(bool IsShared, bool IsLoad, int Width) {
  return formatString("%s%s.%d", IsLoad ? "LD" : "ST", IsShared ? "S" : "",
                      8 * Width);
}

TEST(ExecutorMemory, WarpAccessesMatchLaneLoop) {
  Rng R(99);
  for (const MachineDesc *M : AllMachines)
    for (MemWidth MW : AllWidths)
      for (bool IsShared : {true, false})
        for (bool IsLoad : {true, false})
          for (int Trial = 0; Trial < 60; ++Trial) {
            const int Width = memWidthBytes(MW);
            const int32_t Imm = Trial % 2 == 0 ? 0 : -64;
            const std::vector<int64_t> Addrs =
                randomSharedPattern(R, Width, SpaceBytes);
            const WarpContext W =
                warpWithAddresses(R, randomMask(R), Addrs, Imm);
            checkAgainstLaneLoop(
                *M, W, IsShared, IsLoad, MW, Imm, randomImage(R),
                formatString("%s %s trial %d", M->Name.c_str(),
                             accessName(IsShared, IsLoad, Width).c_str(),
                             Trial));
          }
}

namespace {

/// Moves \p NumBad random lanes of \p Mask in \p Addrs to an address that
/// faults: misaligned, past the end, or (with \p Imm < 0, so that the
/// address row can hold it) below zero, aligned or not.
void makeBadLanes(Rng &R, std::vector<int64_t> &Addrs, uint32_t Mask,
                  int Width, int NumBad, int32_t Imm) {
  const std::vector<int> Lanes = lanesOf(Mask);
  for (int Bad = 0; Bad < NumBad; ++Bad) {
    const int L = Lanes[R.nextBelow(Lanes.size())];
    switch (R.nextBelow(Imm < 0 ? 3 : 2)) {
    case 0:
      Addrs[L] += Width == 4 ? 2 : 4 * R.nextInRange(1, Width / 4 - 1);
      break;
    case 1:
      Addrs[L] = SpaceBytes + Width * R.nextInRange(0, 4);
      break;
    default: // -64 <= address < 0.
      Addrs[L] =
          -Width * R.nextInRange(1, 64 / Width) + (R.nextBelow(2) ? 0 : 4);
      break;
    }
  }
}

} // namespace

TEST(ExecutorMemory, FaultingLaneMatchesLaneLoop) {
  Rng R(5);
  for (const MachineDesc *M : AllMachines)
    for (MemWidth MW : AllWidths)
      for (bool IsShared : {true, false})
        for (bool IsLoad : {true, false})
          for (int Trial = 0; Trial < 60; ++Trial) {
            const int Width = memWidthBytes(MW);
            // The address row holds address - Imm; with Imm = -64 a row
            // value below 64 is a negative address.
            const int32_t Imm = Trial % 2 == 0 ? 0 : -64;
            std::vector<int64_t> Addrs =
                randomSharedPattern(R, Width, SpaceBytes);
            const uint32_t Mask = randomMask(R);
            makeBadLanes(R, Addrs, Mask, Width, 1 + Trial % 2, Imm);
            const WarpContext W = warpWithAddresses(R, Mask, Addrs, Imm);
            checkAgainstLaneLoop(
                *M, W, IsShared, IsLoad, MW, Imm, randomImage(R),
                formatString("%s %s trial %d", M->Name.c_str(),
                             accessName(IsShared, IsLoad, Width).c_str(),
                             Trial));
          }
}

// --- The shared-access memo --------------------------------------------------

namespace {

/// Registers of the memo tests: R0..R7 hold addresses and receive loads
/// (so two address registers share each of the four memo slots), R8..R11
/// hold store data.
constexpr int MemoRegs = 12;
constexpr uint8_t MemoDataReg = 8;

/// A warp that keeps its memo across accesses, next to a fresh warp
/// rebuilt from its registers and predicates before every access, each
/// with its own copy of shared memory. Any disagreement in the effects,
/// the registers or the memory is a memo defect.
struct MemoRig {
  GlobalMemory GM;
  std::vector<uint32_t> Params;
  LaunchDims Dims{1, 1, 32, 1};
  Executor Exec;
  SharedMemory WarmShared{SpaceBytes}, FreshShared{SpaceBytes};
  WarpContext Warm;
  int BankBytes;
  /// Accesses that found their register's memo slot filled at the
  /// register's current generation for the same lanes.
  int WarmSlots = 0;
  /// Of those, the ones of the slot's width whose Imm class,
  /// (Imm mod the chunk) / width, the slot had filled, by class.
  int FilledClass[2] = {};

  MemoRig(const MachineDesc &M, bool TimingOnly)
      : Exec(M, GM, Params, Dims, TimingOnly),
        BankBytes(M.SharedMemBankBytes) {
    Warm.reset(MemoRegs);
  }

  void setRow(uint8_t Reg, const std::vector<uint32_t> &Values) {
    uint32_t Discard[WarpSize];
    std::copy(Values.begin(), Values.end(), Warm.writeRow(Reg, Discard));
  }
  void setWord(int64_t Addr, uint32_t V) {
    std::memcpy(WarmShared.data() + Addr, &V, 4);
    std::memcpy(FreshShared.data() + Addr, &V, 4);
  }

  /// Executes \p I on both warps; returns the warm warp's serialization,
  /// and in \p Diff every way the two disagree (empty when none).
  double step(const Instruction &I, std::string &Diff) {
    WarpContext Fresh;
    Fresh.reset(MemoRegs);
    Fresh.ActiveMask = Warm.ActiveMask;
    Fresh.Regs = Warm.Regs;
    Fresh.Preds = Warm.Preds;
    const WarpContext::SharedAccessMemo &Slot = Warm.SharedMemo[I.Src[0] & 3];
    const int Width = memWidthBytes(I.Width);
    const int Class = (I.Imm & (std::max(Width, BankBytes) - 1)) / Width;
    if (Slot.Reg == I.Src[0] && Slot.Gen == Warm.RowGen[I.Src[0] & 63] &&
        Slot.Mask == (Warm.ActiveMask & Warm.guardMask(I))) {
      ++WarmSlots;
      FilledClass[Class] +=
          Slot.Width == Width && ((Slot.Filled >> Class) & 1);
    }
    const ExecEffects Want = Exec.execute(I, Fresh, 0, FreshShared);
    const ExecEffects Got = Exec.execute(I, Warm, 0, WarmShared);
    Diff.clear();
    if (Got.SharedSerialization != Want.SharedSerialization)
      Diff += formatString("serialization %g, fresh %g; ",
                           Got.SharedSerialization, Want.SharedSerialization);
    if (Got.Trap != Want.Trap || Got.TrapLane != Want.TrapLane ||
        Got.TrapAddress != Want.TrapAddress ||
        Got.TrapDetail != Want.TrapDetail)
      Diff += formatString("trap %s lane %d address %llu, fresh %s lane %d "
                           "address %llu; ",
                           trapKindName(Got.Trap), Got.TrapLane,
                           static_cast<unsigned long long>(Got.TrapAddress),
                           trapKindName(Want.Trap), Want.TrapLane,
                           static_cast<unsigned long long>(Want.TrapAddress));
    if (Warm.Regs != Fresh.Regs)
      Diff += "registers differ; ";
    if (std::memcmp(WarmShared.data(), FreshShared.data(), SpaceBytes) != 0)
      Diff += "shared memory differs; ";
    return Got.SharedSerialization;
  }
};

/// An address row for \p Width-byte accesses: randomSharedPattern's
/// aligned lanes, or the same with some lanes moved off the common
/// residue, or with the lowest or the highest lane at an end of the
/// allocation (a negative or positive Imm then puts it out of bounds).
std::vector<uint32_t> memoAddressRow(Rng &R, int Width) {
  std::vector<int64_t> Addrs = randomSharedPattern(R, Width, SpaceBytes);
  switch (R.nextBelow(5)) {
  case 0:
    for (int64_t &A : Addrs)
      if (R.nextBelow(4) == 0)
        A += Width == 4 ? 2 : 4 * R.nextInRange(1, Width / 4 - 1);
    break;
  case 1:
    Addrs.front() = 0;
    break;
  case 2:
    Addrs.back() = SpaceBytes - Width;
    break;
  default:
    break;
  }
  return std::vector<uint32_t>(Addrs.begin(), Addrs.end());
}

uint32_t memoMask(Rng &R) {
  switch (R.nextBelow(4)) {
  case 0:
    return 0;
  case 1:
    return static_cast<uint32_t>(R.next());
  default:
    return FullMask;
  }
}

} // namespace

// Random sequences of LDS/STS on GTX580 (4-byte banks) and GTX680
// (8-byte banks): widths 4/8/16, full, partial and empty lane masks,
// positive, negative and residue-changing offsets, aligned and
// mixed-residue address rows, out-of-bounds lowest and highest lanes,
// loads into address registers and rewritten rows. Every access must
// agree with a fresh warp's.
TEST(ExecutorSharedMemo, WarmWarpMatchesFreshWarp) {
  Rng R(27);
  for (const MachineDesc *M : {&gtx580(), &gtx680()})
    for (bool TimingOnly : {false, true}) {
      MemoRig Rig(*M, TimingOnly);
      // Plausible addresses in memory, so loaded rows address it.
      for (int64_t Addr = 0; Addr < SpaceBytes; Addr += 4)
        Rig.setWord(Addr, static_cast<uint32_t>(
                              R.nextBelow(2) ? R.nextBelow(SpaceBytes / 16) * 16
                                             : R.next()));
      for (uint8_t Reg = 0; Reg < MemoRegs; ++Reg)
        Rig.setRow(Reg, memoAddressRow(R, 16));
      int Accesses = 0;
      int32_t AltImm = 0;
      // Like a kernel's loop, runs of accesses share a register and a
      // width, which is what warms the memo.
      MemWidth MW = MemWidth::B32;
      uint8_t Reg = 0;
      for (int Step = 0; Step < 6000; ++Step) {
        const std::string Where = formatString(
            "%s%s step %d", M->Name.c_str(),
            TimingOnly ? " timing-only" : "", Step);
        if (R.nextBelow(4) == 0)
          MW = AllWidths[R.nextBelow(3)];
        if (R.nextBelow(4) == 0)
          Reg = static_cast<uint8_t>(R.nextBelow(8));
        const int Width = memWidthBytes(MW);
        const int Chunk = std::max(Width, M->SharedMemBankBytes);
        switch (R.nextBelow(20)) {
        case 0:
        case 1:
          Rig.setRow(Reg, memoAddressRow(R, Width));
          continue;
        case 2:
          Rig.Warm.Preds[0] = memoMask(R);
          continue;
        case 3:
          Rig.Warm.ActiveMask = R.nextBelow(4) ? FullMask : memoMask(R);
          continue;
        case 4: { // A rewrite through the executor.
          std::string Diff;
          Rig.step(makeIADDImm(Reg, Reg, 4 * R.nextInRange(-4, 4)), Diff);
          ASSERT_EQ(Diff, "") << Where;
          continue;
        }
        default:
          break;
        }
        const int32_t Imms[] = {0,      4,      -4,         Width,
                                -Width, Chunk,  -Chunk,     2 * Chunk,
                                64,     -64,    SpaceBytes, 2 * Width + 4};
        int32_t Imm = Imms[R.nextBelow(std::size(Imms))];
        // Where a chunk holds two widths (LDS.32 on 8-byte banks), half
        // the accesses step between Imm classes, as an unrolled kernel
        // reading consecutive words from one address register does.
        if (Chunk > Width && R.nextBelow(2)) {
          AltImm = (AltImm + (R.nextBelow(4) ? Width : -Width)) % 64;
          Imm = AltImm;
        }
        const bool IsLoad = R.nextBelow(2);
        Instruction I =
            IsLoad ? makeLDS(MW,
                             R.nextBelow(3) ? MemoDataReg
                                            : static_cast<uint8_t>(
                                                  R.nextBelow(8)),
                             Reg, Imm)
                   : makeSTS(MW, Reg, Imm, MemoDataReg);
        if (R.nextBelow(3) == 0) {
          I.GuardPred = 0;
          I.GuardNeg = R.nextBelow(2);
        }
        std::string Diff;
        Rig.step(I, Diff);
        ASSERT_EQ(Diff, "") << Where << ": " << I.toString();
        ++Accesses;
      }
      // The memo was warm for a good share of the accesses, and on
      // 8-byte banks it held both classes of LDS.32 often.
      EXPECT_GT(Rig.WarmSlots, Accesses / 6) << M->Name;
      EXPECT_GT(Rig.FilledClass[0], Accesses / 20) << M->Name;
      if (M->SharedMemBankBytes == 8) {
        EXPECT_GT(Rig.FilledClass[1], Accesses / 100) << M->Name;
      }
    }
}

// LDS R4, [R4]: the load rewrites its own address row after the memo
// key's generation was taken, so it must neither read nor fill the memo.
TEST(ExecutorSharedMemo, LoadIntoItsOwnAddressRegister) {
  MemoRig Rig(gtx580(), /*TimingOnly=*/false);
  std::vector<uint32_t> Row(WarpSize);
  for (int L = 0; L < WarpSize; ++L) {
    Row[L] = 4 * L;
    // Each lane loads an address in bank 0: a 32-way conflict next time.
    Rig.setWord(4 * L, 128 * L);
  }
  Rig.setRow(4, Row);
  std::string Diff;
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 4, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 4, 4, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 4, 0), Diff), 32.0);
  EXPECT_EQ(Diff, "");
}

// A row rewritten between two accesses -- directly, by an executed
// instruction, or by another access's load -- is read again.
TEST(ExecutorSharedMemo, RewrittenRowIsReadAgain) {
  MemoRig Rig(gtx580(), /*TimingOnly=*/false);
  std::vector<uint32_t> Row(WarpSize), Loads(WarpSize);
  for (int L = 0; L < WarpSize; ++L) {
    Row[L] = 4 * L;
    Loads[L] = 1024 + 4 * L;
    Rig.setWord(1024 + 4 * L, 128 * L);
  }
  Rig.setRow(0, Row);
  Rig.setRow(2, Loads);
  std::string Diff;
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  // R0 = 128L, loaded.
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 0, 2, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 0), Diff), 32.0);
  EXPECT_EQ(Diff, "");
  Rig.setRow(0, Row);
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 4), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  // 4L << 5 = 128L: every lane in bank 0.
  Rig.step(makeSHLImm(0, 0, 5), Diff);
  EXPECT_EQ(Diff, "");
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 0), Diff), 32.0);
  EXPECT_EQ(Diff, "");
  // Back to 4L, written directly; lane 31 now runs off the end at +4.
  Rig.setRow(0, Row);
  EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, 0), Diff), 1.0);
  EXPECT_EQ(Diff, "");
  Row[31] = SpaceBytes - 4;
  Rig.setRow(0, Row);
  Rig.step(makeLDS(MemWidth::B32, 5, 0, 4), Diff);
  EXPECT_EQ(Diff, "");
}

// GTX680 LDS.32 with bases 0 and 260: at Imm 0 the lanes fall in chunks
// 0 and 32 of bank group 0 (degree 2); at Imm 4 in chunks 0 and 33, two
// groups (degree 1); at Imm 8, a multiple of the 8-byte chunk, in chunks
// 1 and 33 of group 1 again. Imms 0 and 8 are class 0, Imms 4 and 12
// class 1: a memo serving one class's serialization for the other would
// give Imm 4 the degree of Imm 0.
TEST(ExecutorSharedMemo, ImmResidueChangesTheBankGroups) {
  MemoRig Rig(gtx680(), /*TimingOnly=*/false);
  Rig.Warm.ActiveMask = 0x3;
  std::vector<uint32_t> Row(WarpSize, 0);
  Row[1] = 260;
  Rig.setRow(0, Row);
  std::string Diff;
  for (auto [Imm, Want] :
       {std::pair{0, 2.0}, {4, 1.0}, {8, 2.0}, {0, 2.0}, {12, 1.0}}) {
    EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, Imm), Diff), Want)
        << "Imm " << Imm;
    EXPECT_EQ(Diff, "") << "Imm " << Imm;
  }
  // Imm -8 keeps the residue of Imm 0 but puts lane 0 out of bounds.
  Rig.step(makeLDS(MemWidth::B32, 5, 0, -8), Diff);
  EXPECT_EQ(Diff, "");
}

// The same two lanes with Imm alternating between 0 (degree 2) and 4
// (degree 1): the first access of each class fills it, and from then on
// both classes are served from one slot, neither evicting the other.
TEST(ExecutorSharedMemo, AlternatingImmClassesShareOneSlot) {
  MemoRig Rig(gtx680(), /*TimingOnly=*/false);
  Rig.Warm.ActiveMask = 0x3;
  std::vector<uint32_t> Row(WarpSize, 0);
  Row[1] = 260;
  Rig.setRow(0, Row);
  std::string Diff;
  for (int Step = 0; Step < 8; ++Step) {
    const int32_t Imm = Step % 2 ? 4 : 0;
    EXPECT_EQ(Rig.step(makeLDS(MemWidth::B32, 5, 0, Imm), Diff),
              Imm ? 1.0 : 2.0)
        << "step " << Step;
    EXPECT_EQ(Diff, "") << "step " << Step;
  }
  EXPECT_EQ(Rig.Warm.SharedMemo[0].Filled, 0x3);
  // Steps 2..7 found their class filled.
  EXPECT_EQ(Rig.FilledClass[0], 3);
  EXPECT_EQ(Rig.FilledClass[1], 3);
}

// An aligned access fills class 0; Imm 2 is class 0 too, but misaligns
// every lane, so it must take the lane path and trap as a fresh warp
// does, at lane 0 and address 2; Imm 2 past a class-1 fill likewise.
TEST(ExecutorSharedMemo, MisalignedImmOfAFilledClassTraps) {
  for (const MachineDesc *M : {&gtx580(), &gtx680()}) {
    MemoRig Rig(*M, /*TimingOnly=*/false);
    std::vector<uint32_t> Row(WarpSize);
    for (int L = 0; L < WarpSize; ++L)
      Row[L] = 8 * L;
    Rig.setRow(0, Row);
    std::string Diff;
    for (int32_t Imm : {0, 2, 4, 6}) {
      Rig.step(makeLDS(MemWidth::B32, 5, 0, Imm), Diff);
      EXPECT_EQ(Diff, "") << M->Name << " Imm " << Imm;
    }
    Rig.step(makeLDS(MemWidth::B32, 5, 0, 2), Diff);
    EXPECT_EQ(Diff, "") << M->Name;
    // The trap itself, not only agreement with the fresh warp.
    WarpContext &W = Rig.Warm;
    const ExecEffects Fx = Rig.Exec.execute(
        makeLDS(MemWidth::B32, 5, 0, 2), W, 0, Rig.WarmShared);
    EXPECT_EQ(Fx.Trap, TrapKind::MisalignedAccess) << M->Name;
    EXPECT_EQ(Fx.TrapLane, 0) << M->Name;
    EXPECT_EQ(Fx.TrapAddress, 2u) << M->Name;
  }
}
