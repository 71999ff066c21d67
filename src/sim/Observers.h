//===- sim/Observers.h - one SM's set of observation sinks ------*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's one observation path. Each observable event is built
/// once, as a ProbeEventRecord, at its one firing site in the SM
/// simulator and handed to the SM's SMObservers, which passes it to the
/// sinks the launch enabled: trace (sim/Trace.h), per-PC profile
/// (sim/Profile.h) and probes (probe/ProbeEngine.h). SimStats is not a
/// sink: it is always on, updated inline at the same sites, and is what
/// the sinks are checked against. See DESIGN.md section 10.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SIM_OBSERVERS_H
#define GPUPERF_SIM_OBSERVERS_H

#include "probe/ProbeEngine.h"
#include "sim/Profile.h"
#include "sim/Trace.h"

#include <optional>

namespace gpuperf {

/// The launch-wide sinks one launch merges its observations into; a null
/// member (or a probe engine without probes) is off.
struct ObservationSinks {
  SimTrace *Trace = nullptr;
  KernelProfile *Profile = nullptr;
  ProbeEngine *Probes = nullptr;
};

/// One SM's private sinks: an optional trace recorder, per-PC profile and
/// probe engine clone, each fed from the same event records.
class SMObservers {
public:
  SMObservers() = default;
  /// Private sinks for each sink of \p Sinks that is on, for a kernel of
  /// \p CodeSize static instructions.
  SMObservers(const ObservationSinks &Sinks, size_t CodeSize);

  /// True when any sink is on.
  bool enabled() const { return Trace || Profile || Probes; }
  /// True when some enabled sink consumes \p E; the firing sites build a
  /// record only then.
  bool wants(ProbeEvent E) const {
    return Wanted[static_cast<size_t>(E)];
  }

  /// Starts a wave of \p NumWarps warps on \p NumSchedulers schedulers
  /// whose local cycle 0 is \p Offset on the SM's launch timeline.
  void beginWave(size_t NumWarps, int NumSchedulers, uint64_t Offset) {
    CycleOffset = Offset;
    if (Trace)
      Trace->beginWave(NumWarps, NumSchedulers);
  }
  /// Shifts \p R's wave-local cycle by the wave's offset and passes it to
  /// every enabled sink that consumes \p E.
  void fire(ProbeEvent E, ProbeEventRecord R) {
    R.Cycle += static_cast<int64_t>(CycleOffset);
    if (Trace)
      Trace->record(E, R);
    if (Profile)
      Profile->record(E, R);
    if (Probes)
      Probes->fire(E, R);
  }
  /// Ends the wave begun last (a trapped wave's events are kept).
  void endWave() {
    if (Trace)
      Trace->endWave();
  }

  /// Folds this SM's observations into the launch-wide \p Sinks, stamping
  /// its trace events with \p SMIndex. Called once, in SM index order.
  void mergeInto(const ObservationSinks &Sinks, int SMIndex);

private:
  std::optional<TraceRecorder> Trace;
  std::optional<KernelProfile> Profile;
  std::optional<ProbeEngine> Probes;
  bool Wanted[NumProbeEvents] = {};
  uint64_t CycleOffset = 0;
};

} // namespace gpuperf

#endif // GPUPERF_SIM_OBSERVERS_H
