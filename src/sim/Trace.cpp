//===- sim/Trace.cpp - per-warp issue/stall event timeline ----------------===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//

#include "sim/Trace.h"

#include "arch/MachineDesc.h"
#include "isa/Opcode.h"
#include "probe/ProbeEngine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"

using namespace gpuperf;

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

TraceRecorder::TraceRecorder(size_t RingCapacity)
    : RingCapacity(RingCapacity < 1 ? 1 : RingCapacity) {}

void TraceRecorder::beginWave(size_t NumWarps, int NumSchedulers) {
  WarpRings.assign(NumWarps, Ring());
  SchedRings.assign(static_cast<size_t>(NumSchedulers), Ring());
  Open.assign(static_cast<size_t>(NumSchedulers), OpenStall());
}

void TraceRecorder::push(Ring &R, const TraceEvent &E) {
  if (R.Buf.size() < RingCapacity) {
    R.Buf.push_back(E);
    return;
  }
  R.Buf[R.Next] = E;
  R.Next = (R.Next + 1) % RingCapacity;
  R.Wrapped = true;
  ++Dropped;
}

void TraceRecorder::record(ProbeEvent Kind, const ProbeEventRecord &R) {
  if (Kind == ProbeEvent::InstIssued) {
    TraceEvent E;
    E.Cycle = static_cast<uint64_t>(R.Cycle);
    E.Dur = 1;
    E.PC = static_cast<int32_t>(R.PC);
    E.BlockId = static_cast<int32_t>(R.Block);
    E.Track = static_cast<uint16_t>(R.WarpSlot);
    E.IsStall = 0;
    E.Code = static_cast<uint8_t>(R.Op);
    E.WarpInBlock = static_cast<uint8_t>(R.Warp);
    push(WarpRings[static_cast<size_t>(R.WarpSlot)], E);
    return;
  }
  if (Kind != ProbeEvent::SlotLost)
    return;
  OpenStall &S = Open[static_cast<size_t>(R.Scheduler)];
  uint64_t Start = static_cast<uint64_t>(R.Cycle);
  uint64_t Cycles = static_cast<uint64_t>(R.Slots);
  SlotUse Use = static_cast<SlotUse>(R.Cause);
  if (S.Valid && S.Use == Use && S.Start + S.Dur == Start) {
    S.Dur += Cycles;
    return;
  }
  if (S.Valid)
    flushStall(R.Scheduler);
  S.Start = Start;
  S.Dur = Cycles;
  S.Use = Use;
  S.Valid = true;
}

void TraceRecorder::flushStall(int Sched) {
  OpenStall &S = Open[static_cast<size_t>(Sched)];
  if (!S.Valid)
    return;
  TraceEvent E;
  E.Cycle = S.Start;
  E.Dur = S.Dur;
  E.Track = static_cast<uint16_t>(SchedTrackBase + Sched);
  E.IsStall = 1;
  E.Code = static_cast<uint8_t>(S.Use);
  push(SchedRings[static_cast<size_t>(Sched)], E);
  S.Valid = false;
}

void TraceRecorder::endWave() {
  for (size_t S = 0; S < Open.size(); ++S)
    flushStall(static_cast<int>(S));
  // Unroll each ring oldest-first onto the finished list so waves stay in
  // chronological, track-major order.
  auto Drain = [&](Ring &R) {
    if (R.Wrapped)
      Finished.insert(Finished.end(), R.Buf.begin() + R.Next,
                      R.Buf.end());
    Finished.insert(Finished.end(), R.Buf.begin(),
                    R.Buf.begin() + (R.Wrapped ? R.Next : R.Buf.size()));
    R = Ring();
  };
  for (Ring &R : WarpRings)
    Drain(R);
  for (Ring &R : SchedRings)
    Drain(R);
}

std::vector<TraceEvent> TraceRecorder::take() {
  endWave();
  std::vector<TraceEvent> Out = std::move(Finished);
  Finished.clear();
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace_event JSON
//===----------------------------------------------------------------------===//

std::string gpuperf::chromeTraceJson(const SimTrace &Trace,
                                     const MachineDesc &M) {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();

  // Metadata: name the processes (SMs) and scheduler tracks.
  int MaxSM = -1;
  for (const TraceEvent &E : Trace.Events)
    MaxSM = E.SM > MaxSM ? E.SM : MaxSM;
  for (int SM = 0; SM <= MaxSM; ++SM) {
    W.beginObject();
    W.kv("name", "process_name");
    W.kv("ph", "M");
    W.kv("pid", SM);
    W.key("args");
    W.beginObject();
    W.kv("name", formatString("%s SM %d", M.Name.c_str(), SM));
    W.endObject();
    W.endObject();
  }

  // Surface ring evictions inside the timeline itself (in addition to
  // the top-level key below): viewers and scripts that read only
  // traceEvents still learn the timeline is truncated.
  W.beginObject();
  W.kv("name", "dropped_events");
  W.kv("ph", "M");
  W.kv("pid", 0);
  W.key("args");
  W.beginObject();
  W.kv("dropped_events", Trace.DroppedEvents);
  W.endObject();
  W.endObject();

  for (const TraceEvent &E : Trace.Events) {
    W.beginObject();
    if (E.IsStall) {
      W.kv("name", slotUseName(static_cast<SlotUse>(E.Code)));
      W.kv("cat", "stall");
    } else {
      W.kv("name", opcodeMnemonic(static_cast<Opcode>(E.Code)));
      W.kv("cat", "issue");
    }
    W.kv("ph", "X");
    W.kv("ts", E.Cycle);
    W.kv("dur", E.Dur);
    W.kv("pid", static_cast<int>(E.SM));
    W.kv("tid", static_cast<unsigned>(E.Track));
    if (!E.IsStall) {
      W.key("args");
      W.beginObject();
      W.kv("pc", E.PC);
      W.kv("block", E.BlockId);
      W.kv("warp", static_cast<int>(E.WarpInBlock));
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.kv("displayTimeUnit", "ns");
  W.kv("machine", M.Name);
  W.kv("dropped_events", Trace.DroppedEvents);
  W.endObject();
  return W.take();
}

Status gpuperf::writeChromeTrace(const SimTrace &Trace,
                                 const MachineDesc &M,
                                 const std::string &Path) {
  return writeTextFile(Path, chromeTraceJson(Trace, M));
}
