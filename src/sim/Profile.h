//===- sim/Profile.h - per-static-instruction counters ----------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-PC half of the observability layer. Where sim/Stats.h answers
/// "how many issue slots went to each cause", a KernelProfile answers
/// "at which static instruction" -- the source-counter view that perf
/// annotate gives on CPUs, and that the paper's whole argument is phrased
/// in (the FFMA/LDS.X mix, bank-conflict surcharges, and dual-issue
/// pairing are all properties of individual instructions).
///
/// The profile is a sink of the simulator's event stream
/// (sim/Observers.h): it counts inst_issued, replay and slot_lost
/// records. Attribution rules (mirroring the SlotUse taxonomy):
///  * an issued warp instruction counts one Issue at its PC (a dual-issue
///    second, fired with dual=1, counts an Issue *and* a DualIssue; the
///    pair still consumed one scheduler slot, owned by the first
///    instruction);
///  * a lost scheduler slot is charged to the PC of the *oldest*
///    non-eligible instruction among the scheduler's warps with the
///    winning (highest-priority) block reason -- the warp waiting longest
///    since its last issue, the likely head of the dependence chain;
///  * fast-forwarded idle spans reuse each scheduler's remembered reason
///    *and* PC from the cycle that proved no progress was possible;
///  * slots with no attributable PC (scheduler owns no live warp) land in
///    the NoPC bucket so the accounting identity stays exact:
///      profile.breakdown() == SimStats.Breakdown,  cause by cause.
///
/// Profiles are collected per SM and merged in SM index order, so -- like
/// the stats, traces and memory image -- the result is bit-identical for
/// every LaunchConfig::Jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_PROFILE_H
#define GPUPERF_SIM_PROFILE_H

#include "probe/ProbeSpec.h"
#include "sim/Stats.h"

#include <array>
#include <cstdint>
#include <vector>

namespace gpuperf {

struct ProbeEventRecord;

/// Counters of one static instruction (or of the NoPC bucket).
struct PCCounters {
  /// Warp instructions issued at this PC, dual-issue seconds included.
  uint64_t Issues = 0;
  /// Of Issues, how many rode the second slot of a Kepler pair.
  uint64_t DualIssues = 0;
  /// Replay penalties charged while this PC's operands were mis-hinted.
  uint64_t Replays = 0;
  /// Lost scheduler slots attributed to this PC, by cause. The Issued
  /// entry is unused (issued slots are counted by Issues/DualIssues).
  std::array<uint64_t, NumSlotUses> StallSlots = {};

  /// Scheduler slots this PC consumed by issuing (pairs share one slot).
  uint64_t issuedSlots() const { return Issues - DualIssues; }

  /// Lost slots attributed here, summed over causes.
  uint64_t lostSlots() const {
    uint64_t T = 0;
    for (uint64_t S : StallSlots)
      T += S;
    return T;
  }

  void add(const PCCounters &O) {
    Issues += O.Issues;
    DualIssues += O.DualIssues;
    Replays += O.Replays;
    for (size_t I = 0; I < StallSlots.size(); ++I)
      StallSlots[I] += O.StallSlots[I];
  }

  bool operator==(const PCCounters &O) const {
    return Issues == O.Issues && DualIssues == O.DualIssues &&
           Replays == O.Replays && StallSlots == O.StallSlots;
  }
};

/// Per-static-instruction profile of one kernel, one SM, or a whole
/// launch (the distinction is only what has been merged in).
class KernelProfile {
public:
  KernelProfile() = default;
  explicit KernelProfile(size_t CodeSize) : PCs(CodeSize) {}

  size_t codeSize() const { return PCs.size(); }
  bool empty() const { return PCs.empty(); }

  PCCounters &at(size_t PC) { return PCs[PC]; }
  const PCCounters &at(size_t PC) const { return PCs[PC]; }

  /// Slots (and replays) with no attributable static instruction.
  PCCounters &noPC() { return NoPC; }
  const PCCounters &noPC() const { return NoPC; }

  /// Counts one event of the simulator's stream: an inst_issued at R.PC
  /// (plus a DualIssue when R.Dual), a replay at R.PC, or R.Slots lost to
  /// R.Cause at R.PC (the NoPC bucket when R.PC is negative). Ignores
  /// every other event.
  void record(ProbeEvent E, const ProbeEventRecord &R);

  //===--------------------------------------------------------------------===//
  // Aggregation and identities
  //===--------------------------------------------------------------------===//

  /// Element-wise accumulation (SM merge / wave merge). An empty profile
  /// adopts \p O's shape; otherwise the code sizes must match.
  void add(const KernelProfile &O);

  /// Total warp instructions issued (== SimStats::WarpInstsIssued).
  uint64_t totalIssues() const { return total(&PCCounters::Issues); }
  /// Total dual-issue seconds (== SimStats::DualIssues).
  uint64_t totalDualIssues() const { return total(&PCCounters::DualIssues); }
  /// Total replay penalties (== SimStats::ReplayPenalties).
  uint64_t totalReplays() const { return total(&PCCounters::Replays); }

  /// Reconstructs the per-cause issue-slot breakdown from the per-PC
  /// counters: Issued slots are issuedSlots() summed over PCs, every
  /// other cause is StallSlots summed over PCs plus the NoPC bucket.
  /// For a successful launch this equals SimStats::Breakdown exactly
  /// (the identity profile_test pins).
  StallBreakdown breakdown() const;

  bool operator==(const KernelProfile &O) const {
    return PCs == O.PCs && NoPC == O.NoPC;
  }

private:
  /// Counter \p Field summed over every PC and the NoPC bucket.
  uint64_t total(uint64_t PCCounters::*Field) const;

  std::vector<PCCounters> PCs;
  PCCounters NoPC;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_PROFILE_H
