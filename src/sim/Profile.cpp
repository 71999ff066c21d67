//===- sim/Profile.cpp - per-static-instruction counters ------------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Profile.h"

#include "probe/ProbeEngine.h"

#include <cassert>

namespace gpuperf {

void KernelProfile::record(ProbeEvent E, const ProbeEventRecord &R) {
  switch (E) {
  case ProbeEvent::InstIssued: {
    PCCounters &C = PCs[static_cast<size_t>(R.PC)];
    C.Issues += 1;
    C.DualIssues += R.Dual ? 1 : 0;
    break;
  }
  case ProbeEvent::Replay:
    PCs[static_cast<size_t>(R.PC)].Replays += 1;
    break;
  case ProbeEvent::SlotLost: {
    PCCounters &C = R.PC >= 0 ? PCs[static_cast<size_t>(R.PC)] : NoPC;
    C.StallSlots[static_cast<size_t>(R.Cause)] +=
        static_cast<uint64_t>(R.Slots);
    break;
  }
  default:
    break;
  }
}

void KernelProfile::add(const KernelProfile &O) {
  if (PCs.empty())
    PCs.resize(O.PCs.size());
  assert(PCs.size() == O.PCs.size() &&
         "merging profiles of different kernels");
  for (size_t I = 0; I < PCs.size(); ++I)
    PCs[I].add(O.PCs[I]);
  NoPC.add(O.NoPC);
}

uint64_t KernelProfile::total(uint64_t PCCounters::*Field) const {
  uint64_t T = NoPC.*Field;
  for (const PCCounters &C : PCs)
    T += C.*Field;
  return T;
}

StallBreakdown KernelProfile::breakdown() const {
  StallBreakdown B;
  auto Fold = [&B](const PCCounters &C) {
    B.Slots[static_cast<size_t>(SlotUse::Issued)] += C.issuedSlots();
    for (size_t U = 0; U < NumSlotUses; ++U)
      if (U != static_cast<size_t>(SlotUse::Issued))
        B.Slots[U] += C.StallSlots[U];
  };
  for (const PCCounters &C : PCs)
    Fold(C);
  Fold(NoPC);
  return B;
}

} // namespace gpuperf
