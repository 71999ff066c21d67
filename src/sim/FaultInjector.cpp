//===- sim/FaultInjector.cpp - systematic kernel mutation harness ---------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/FaultInjector.h"

#include "support/Format.h"
#include "support/LittleEndian.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace gpuperf;

namespace {

/// Small watchdog default for mutants: a corrupted kernel that loops
/// forever should trap in milliseconds of host time, not minutes.
constexpr uint64_t MutantWatchdogCycles = 1ull << 18;

/// First byte eligible for *code* bit flips: past the module
/// magic/version/arch/kernel-count header, so code flips exercise the
/// kernel-header and instruction decoders rather than the magic check.
constexpr size_t ModuleHeaderBytes = 16;

bool isMemoryOp(const Instruction &I) {
  OpClass C = opcodeInfo(I.Op).Class;
  return C == OpClass::SharedMem || C == OpClass::GlobalMem;
}

void flipRandomBits(std::vector<uint8_t> &Bytes, size_t First, size_t Last,
                    int Count, Rng &R) {
  if (First >= Last)
    return;
  for (int I = 0; I < Count; ++I) {
    size_t Byte = First + R.nextBelow(Last - First);
    Bytes[Byte] ^= static_cast<uint8_t>(1u << R.nextBelow(8));
  }
}

} // namespace

const char *gpuperf::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::CodeBitFlip:
    return "code-bit-flip";
  case FaultKind::HeaderBitFlip:
    return "header-bit-flip";
  case FaultKind::BranchRetarget:
    return "branch-retarget";
  case FaultKind::SharedShrink:
    return "shared-shrink";
  case FaultKind::AddressScramble:
    return "address-scramble";
  }
  return "unknown";
}

std::string InjectionRun::signature() const {
  switch (Result) {
  case Outcome::Rejected:
    return "rejected: " + RejectReason;
  case Outcome::Completed:
    return formatString("completed: cycles %llu hash %016llx",
                        static_cast<unsigned long long>(Cycles),
                        static_cast<unsigned long long>(ResultHash));
  case Outcome::Trapped:
    return "trapped: " + (Trap ? Trap->toString() : std::string("?"));
  }
  return "?";
}

std::string BatchSummary::toString() const {
  std::string S = formatString(
      "%zu runs: %zu completed, %zu rejected, %zu trapped", Total, Completed,
      Rejected, Trapped);
  if (!TrapCounts.empty()) {
    S += " (";
    bool First = true;
    for (const auto &[Kind, Count] : TrapCounts) {
      if (!First)
        S += ", ";
      First = false;
      S += formatString("%s x%zu", trapKindName(Kind), Count);
    }
    S += ")";
  }
  if (FirstFailureIndex >= 0)
    S += formatString("; first failure #%d: %s", FirstFailureIndex,
                      FirstFailureSignature.c_str());
  return S;
}

BatchSummary gpuperf::summarizeBatch(const std::vector<InjectionRun> &Runs) {
  BatchSummary Sum;
  Sum.Total = Runs.size();
  for (size_t I = 0; I < Runs.size(); ++I) {
    const InjectionRun &R = Runs[I];
    switch (R.Result) {
    case InjectionRun::Outcome::Completed:
      ++Sum.Completed;
      continue;
    case InjectionRun::Outcome::Rejected:
      ++Sum.Rejected;
      break;
    case InjectionRun::Outcome::Trapped:
      ++Sum.Trapped;
      if (R.Trap)
        ++Sum.TrapCounts[R.Trap->Kind];
      break;
    }
    if (Sum.FirstFailureIndex < 0) {
      Sum.FirstFailureIndex = static_cast<int>(I);
      Sum.FirstFailureSignature = R.signature();
    }
  }
  return Sum;
}

FaultInjector::FaultInjector(const MachineDesc &M, Module Base,
                             LaunchConfig Launch, size_t MemBytes)
    : M(M), Base(std::move(Base)), Launch(std::move(Launch)),
      MemBytes(MemBytes) {
  BaseBytes = this->Base.serialize();
}

InjectionRun FaultInjector::runBaseline() const {
  return runModuleBytes(BaseBytes);
}

InjectionRun FaultInjector::runOne(const FaultPlan &Plan) const {
  // Decorrelate (Kind, Seed) pairs so plans with equal seeds but
  // different kinds do not mutate "the same" random positions.
  Rng R(Plan.Seed * 0x9e3779b97f4a7c15ull +
        static_cast<uint64_t>(Plan.Kind) + 1);
  const int Count = std::max(1, Plan.NumMutations);

  switch (Plan.Kind) {
  case FaultKind::CodeBitFlip: {
    std::vector<uint8_t> Bytes = BaseBytes;
    flipRandomBits(Bytes, std::min(ModuleHeaderBytes, Bytes.size()),
                   Bytes.size(), Count, R);
    return runModuleBytes(Bytes);
  }
  case FaultKind::HeaderBitFlip: {
    std::vector<uint8_t> Bytes = BaseBytes;
    flipRandomBits(Bytes, 0, std::min<size_t>(32, Bytes.size()), Count, R);
    return runModuleBytes(Bytes);
  }
  case FaultKind::BranchRetarget:
  case FaultKind::SharedShrink:
  case FaultKind::AddressScramble:
    break;
  }

  // The remaining kinds are semantic mutations: edit a decoded copy,
  // then round-trip through serialize/deserialize so the mutant reaches
  // the simulator exactly the way a corrupted file would.
  Module Mod = Base;
  if (Mod.Kernels.empty()) {
    InjectionRun Run;
    Run.Result = InjectionRun::Outcome::Rejected;
    Run.RejectReason = "base module has no kernels";
    return Run;
  }
  Kernel &K = Mod.Kernels[0];

  if (Plan.Kind == FaultKind::SharedShrink) {
    K.SharedBytes =
        K.SharedBytes > 0
            ? static_cast<int>(
                  R.nextBelow(static_cast<uint64_t>(K.SharedBytes)))
            : 0;
    return runModuleBytes(Mod.serialize());
  }

  // Collect candidate instructions for the targeted mutations; fall back
  // to code bit flips when the kernel has no such instruction so every
  // plan still produces a mutant run.
  std::vector<size_t> Candidates;
  for (size_t I = 0; I < K.Code.size(); ++I) {
    bool Wanted = Plan.Kind == FaultKind::BranchRetarget
                      ? K.Code[I].Op == Opcode::BRA
                      : isMemoryOp(K.Code[I]);
    if (Wanted)
      Candidates.push_back(I);
  }
  if (Candidates.empty()) {
    std::vector<uint8_t> Bytes = BaseBytes;
    flipRandomBits(Bytes, std::min(ModuleHeaderBytes, Bytes.size()),
                   Bytes.size(), Count, R);
    return runModuleBytes(Bytes);
  }

  for (int Edit = 0; Edit < Count; ++Edit) {
    Instruction &I = K.Code[Candidates[R.nextBelow(Candidates.size())]];
    if (Plan.Kind == FaultKind::BranchRetarget) {
      // Anywhere from "far before the code" to "far past the end".
      int Range = static_cast<int>(K.Code.size()) + 16;
      I.Imm = static_cast<int32_t>(R.nextInRange(-Range, Range));
    } else if (R.nextBelow(2) == 0) {
      // AddressScramble: replace the base address register...
      I.Src[0] = static_cast<uint8_t>(R.nextBelow(64));
    } else {
      // ...or the byte offset (kept within the encodable 24-bit range).
      I.Imm =
          static_cast<int32_t>(R.nextInRange(-(1 << 22), (1 << 22) - 1));
    }
  }
  return runModuleBytes(Mod.serialize());
}

std::vector<InjectionRun>
FaultInjector::runBatch(const std::vector<FaultPlan> &Plans, int Jobs,
                        BatchSummary *Summary) const {
  std::vector<InjectionRun> Runs(Plans.size());
  parallelFor(Jobs, Plans.size(),
              [&](size_t I) { Runs[I] = runOne(Plans[I]); });
  if (Summary)
    *Summary = summarizeBatch(Runs);
  return Runs;
}

InjectionRun
FaultInjector::runModuleBytes(const std::vector<uint8_t> &Bytes) const {
  auto Mod = Module::deserialize(Bytes);
  if (!Mod) {
    InjectionRun Run;
    Run.Result = InjectionRun::Outcome::Rejected;
    Run.RejectReason = Mod.message();
    return Run;
  }
  return runModule(*Mod);
}

InjectionRun FaultInjector::runModule(const Module &Mod) const {
  InjectionRun Run;
  if (Mod.Kernels.empty()) {
    Run.Result = InjectionRun::Outcome::Rejected;
    Run.RejectReason = "module has no kernels";
    return Run;
  }
  const Kernel &K = Mod.Kernels[0];

  LaunchConfig LC = Launch;
  if (LC.WatchdogCycles == 0)
    LC.WatchdogCycles = MutantWatchdogCycles;

  // A fresh zero-filled memory per run keeps runs independent, so the
  // same mutant always sees the same initial state.
  GlobalMemory GM(MemBytes);

  TrapInfo Trap;
  auto LR = launchKernel(M, K, LC, GM, &Trap);
  if (!LR) {
    if (Trap.valid()) {
      Run.Result = InjectionRun::Outcome::Trapped;
      Run.Trap = Trap;
    } else {
      Run.Result = InjectionRun::Outcome::Rejected;
      Run.RejectReason = LR.message();
    }
    return Run;
  }

  Run.Result = InjectionRun::Outcome::Completed;
  Run.Cycles = static_cast<uint64_t>(LR->TotalCycles);
  Fnv1a Hash;
  for (size_t Addr = 0; Addr + 4 <= GM.size(); Addr += 4)
    Hash.u32(GM.load32(static_cast<uint32_t>(Addr)));
  Run.ResultHash = Hash.value();
  return Run;
}
