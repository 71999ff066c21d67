//===- sim/Observers.cpp - one SM's set of observation sinks --------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Observers.h"

using namespace gpuperf;

SMObservers::SMObservers(const ObservationSinks &Sinks, size_t CodeSize) {
  auto Want = [this](ProbeEvent E) {
    Wanted[static_cast<size_t>(E)] = true;
  };
  // What each sink's record() consumes.
  if (Sinks.Trace) {
    Trace.emplace(Sinks.Trace->RingCapacity);
    Want(ProbeEvent::InstIssued);
    Want(ProbeEvent::SlotLost);
  }
  if (Sinks.Profile) {
    Profile.emplace(CodeSize);
    Want(ProbeEvent::InstIssued);
    Want(ProbeEvent::Replay);
    Want(ProbeEvent::SlotLost);
  }
  if (Sinks.Probes && Sinks.Probes->enabled()) {
    Probes.emplace(Sinks.Probes->emptyClone());
    for (size_t E = 0; E < NumProbeEvents; ++E)
      if (Probes->wants(static_cast<ProbeEvent>(E)))
        Want(static_cast<ProbeEvent>(E));
  }
}

void SMObservers::mergeInto(const ObservationSinks &Sinks, int SMIndex) {
  if (Trace) {
    std::vector<TraceEvent> Events = Trace->take();
    for (TraceEvent &E : Events)
      E.SM = static_cast<int16_t>(SMIndex);
    Sinks.Trace->Events.insert(Sinks.Trace->Events.end(), Events.begin(),
                               Events.end());
    Sinks.Trace->DroppedEvents += Trace->dropped();
  }
  if (Profile)
    Sinks.Profile->add(*Profile);
  if (Probes)
    Sinks.Probes->merge(*Probes);
}
