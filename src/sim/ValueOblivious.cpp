//===- sim/ValueOblivious.cpp - proof that timing ignores data ------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/ValueOblivious.h"

#include "support/Format.h"

#include <optional>
#include <vector>

using namespace gpuperf;

namespace {

/// Registers and predicates that may carry a loaded or float value.
struct Taint {
  uint64_t Regs = 0;  ///< Bit R for register R (RZ is never set).
  uint64_t Preds = 0; ///< Bit P for predicate P (PT is never set).

  bool operator==(const Taint &) const = default;
};

bool regTainted(const Taint &T, uint8_t Reg) {
  return Reg < RegRZ && ((T.Regs >> Reg) & 1);
}

bool guardTainted(const Taint &T, const Instruction &I) {
  return I.GuardPred < NumPredRegs && ((T.Preds >> I.GuardPred) & 1);
}

bool isGuarded(const Instruction &I) {
  return I.GuardPred != PredPT || I.GuardNeg;
}

bool isMemoryAccess(Opcode Op) {
  return Op == Opcode::LD || Op == Opcode::LDS || Op == Opcode::ST ||
         Op == Opcode::STS;
}

/// The taint after \p I executes on a state of \p T.
Taint transfer(const Instruction &I, Taint T) {
  bool Value = false;
  switch (I.Op) {
  case Opcode::LD:
  case Opcode::LDS:
  case Opcode::FFMA:
  case Opcode::FADD:
  case Opcode::FMUL:
    Value = true;
    break;
  default:
    for (uint8_t Reg : I.sourceRegs())
      Value |= regTainted(T, Reg);
    break;
  }
  // A guarded write leaves the lanes its guard masks off unchanged.
  const bool Kills = !isGuarded(I);
  auto Write = [&](uint64_t &Bits, unsigned Index) {
    const uint64_t Bit = uint64_t(1) << Index;
    if (Kills)
      Bits &= ~Bit;
    if (Value)
      Bits |= Bit;
  };
  if (I.Op == Opcode::ISETP) {
    if (I.Dst < NumPredRegs)
      Write(T.Preds, I.Dst);
  } else {
    for (uint8_t Reg : I.destRegs())
      if (Reg < RegRZ)
        Write(T.Regs, Reg);
  }
  return T;
}

} // namespace

Status gpuperf::proveValueOblivious(const Kernel &K) {
  const int64_t N = static_cast<int64_t>(K.Code.size());
  // The state on entry to each reachable instruction; registers and
  // predicates start untainted. The transfer is monotone and the join
  // is a union over finite sets, so sweeping in PC order until nothing
  // changes reaches the least fixed point.
  std::vector<std::optional<Taint>> In(K.Code.size());
  if (N > 0)
    In[0] = Taint{};
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (int64_t PC = 0; PC < N; ++PC) {
      if (!In[PC])
        continue;
      const Instruction &I = K.Code[PC];
      const Taint Out = transfer(I, *In[PC]);
      auto Flow = [&](int64_t To) {
        if (To < 0 || To >= N) // Off the code: the launch traps there.
          return;
        Taint Joined = Out;
        if (In[To]) {
          Joined.Regs |= In[To]->Regs;
          Joined.Preds |= In[To]->Preds;
        }
        if (!In[To] || Joined != *In[To]) {
          In[To] = Joined;
          Changed = true;
        }
      };
      if (I.Op == Opcode::EXIT) // Exits whatever its guard says.
        continue;
      if (I.Op == Opcode::BRA) {
        Flow(PC + 1 + I.Imm);
        if (isGuarded(I))
          Flow(PC + 1);
        continue;
      }
      Flow(PC + 1);
    }
  }

  for (int64_t PC = 0; PC < N; ++PC) {
    if (!In[PC])
      continue;
    const Instruction &I = K.Code[PC];
    if (guardTainted(*In[PC], I))
      return Status::error(formatString(
          "kernel '%s' PC %lld (%s): guard predicate P%d may carry a "
          "loaded or float value",
          K.Name.c_str(), static_cast<long long>(PC), I.toString().c_str(),
          I.GuardPred));
    if (isMemoryAccess(I.Op) && regTainted(*In[PC], I.Src[0]))
      return Status::error(formatString(
          "kernel '%s' PC %lld (%s): address register R%d may carry a "
          "loaded or float value",
          K.Name.c_str(), static_cast<long long>(PC), I.toString().c_str(),
          I.Src[0]));
  }
  return Status::success();
}
