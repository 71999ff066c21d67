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

#include <array>
#include <charconv>
#include <cstring>

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
  if (++R.Next == RingCapacity)
    R.Next = 0;
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

namespace {

/// Copies \p S to \p P; returns the end of the copy.
char *put(char *P, std::string_view S) {
  std::memcpy(P, S.data(), S.size());
  return P + S.size();
}

/// Writes \p V's decimal digits at \p P, before \p End; returns their end.
template <typename Int> char *putInteger(char *P, char *End, Int V) {
  return std::to_chars(P, End, V).ptr;
}

/// Longest event tail after the prefix, separators included: ts and dur
/// (20 digits each), pid (6), tid (5) and the closing brace; an issue
/// adds the args object with pc and block (11 each) and warp (3).
constexpr size_t MaxStallTail = 20 + 7 + 20 + 7 + 6 + 7 + 5 + 1;
constexpr size_t MaxIssueTail = MaxStallTail + 14 + 11 + 9 + 11 + 8 + 3 + 1;

} // namespace

std::string gpuperf::chromeTraceJson(const SimTrace &Trace,
                                     const MachineDesc &M) {
  // Each event starts with a prefix fixed by its (IsStall, Code) pair,
  //   {"name":"<mnemonic|slot cause>","cat":"issue|stall","ph":"X","ts":
  // rendered once per call through a JsonWriter; the event is then that
  // prefix, its integers and constant separators, handed to the writer
  // as one value.
  std::array<std::string, 256> Prefixes[2];
  auto PrefixOf = [&](const TraceEvent &E) -> const std::string & {
    std::string &P = Prefixes[E.IsStall != 0][E.Code];
    if (!P.empty())
      return P;
    JsonWriter PW;
    PW.beginObject();
    if (E.IsStall) {
      PW.kv("name", slotUseName(static_cast<SlotUse>(E.Code)));
      PW.kv("cat", "stall");
    } else {
      PW.kv("name", opcodeMnemonic(static_cast<Opcode>(E.Code)));
      PW.kv("cat", "issue");
    }
    PW.kv("ph", "X");
    PW.key("ts");
    P = PW.take();
    return P;
  };

  // One pass for the SM count, the longest prefix and a bound on the
  // output size, so the output is never regrown; the bound's untouched
  // tail costs no memory.
  int MaxSM = -1;
  size_t MaxPrefix = 0;
  size_t Bytes = 256 + M.Name.size();
  for (const TraceEvent &E : Trace.Events) {
    MaxSM = E.SM > MaxSM ? E.SM : MaxSM;
    size_t Prefix = PrefixOf(E).size();
    MaxPrefix = Prefix > MaxPrefix ? Prefix : MaxPrefix;
    Bytes += 1 + Prefix + (E.IsStall ? MaxStallTail : MaxIssueTail);
  }
  Bytes += static_cast<size_t>(MaxSM + 1) * (128 + M.Name.size());

  JsonWriter W;
  W.reserve(Bytes);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();

  // Metadata: name the processes (SMs) and scheduler tracks.
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

  // Each event is written into one scratch buffer that holds the
  // longest prefix and the longest tail.
  std::string Event(MaxPrefix + MaxIssueTail, '\0');
  char *const End = Event.data() + Event.size();
  for (const TraceEvent &E : Trace.Events) {
    char *P = put(Event.data(), PrefixOf(E));
    P = putInteger(P, End, E.Cycle);
    P = put(P, ",\"dur\":");
    P = putInteger(P, End, E.Dur);
    P = put(P, ",\"pid\":");
    P = putInteger(P, End, static_cast<int>(E.SM));
    P = put(P, ",\"tid\":");
    P = putInteger(P, End, static_cast<unsigned>(E.Track));
    if (!E.IsStall) {
      P = put(P, ",\"args\":{\"pc\":");
      P = putInteger(P, End, E.PC);
      P = put(P, ",\"block\":");
      P = putInteger(P, End, E.BlockId);
      P = put(P, ",\"warp\":");
      P = putInteger(P, End, static_cast<int>(E.WarpInBlock));
      P = put(P, "}");
    }
    P = put(P, "}");
    W.rawValue(
        std::string_view(Event.data(), static_cast<size_t>(P - Event.data())));
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
