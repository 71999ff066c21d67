//===- benchmark/Spans.h - in-memory layer spans ----------------*- C++ -*-===//
//
// Part of the gpuperf host-performance benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark opens one root span per
/// operation and one child span around each call it makes into a layer's
/// public functions; spans stay in memory and are written once, as Chrome
/// trace JSON, when the run ends. A layer's self time is its span's
/// duration minus the part of that interval its child spans cover.
///
/// Spans are recorded from the client thread only (the one issuing
/// operations); work the library runs on its own worker threads is inside
/// the span of the call that started it. A disabled recorder reads no
/// clock, so the untraced run pays one branch per call site.
///
/// Dependency-free: selftest.cpp checks this header without the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_SPANS_H
#define HOSTBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hostbench {

struct Span {
  std::string Name;
  int64_t StartNs = 0; ///< Relative to the recorder's creation.
  int64_t EndNs = 0;
  int Parent = -1; ///< Index of the enclosing span; -1 for an op's root.
  int Op = -1;     ///< Which operation execution the span belongs to.
  /// Set on spans under a root named "calibrate...": measurement work the
  /// per-layer shares and the traced wall_s leave out.
  bool Calibration = false;

  int64_t durationNs() const { return EndNs - StartNs; }
};

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled)
      : Enabled(Enabled), Epoch(std::chrono::steady_clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a span nested in the innermost open one (a new op root when
  /// none is open) and returns its index, or -1 when disabled.
  int begin(std::string_view Name) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = std::string(Name);
    S.Parent = Open.empty() ? -1 : Open.back();
    if (S.Parent < 0) {
      S.Op = NextOp++;
      S.Calibration = Name.substr(0, 9) == "calibrate";
    } else {
      S.Op = Spans[S.Parent].Op;
      S.Calibration = Spans[S.Parent].Calibration;
    }
    S.StartNs = nowNs();
    Spans.push_back(std::move(S));
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }

  /// Closes span \p Id, which must be the innermost open span.
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = nowNs();
    Open.pop_back();
  }

  /// Closes the span it opened when it goes out of scope.
  class Scope {
  public:
    Scope(SpanRecorder &R, std::string_view Name) : R(R), Id(R.begin(Name)) {}
    ~Scope() { R.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int Id;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Chrome trace_event JSON ("X" events, microseconds), loadable in
  /// chrome://tracing or Perfetto; args carry the op id and parent index.
  std::string chromeTraceJson() const {
    std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char Buf[160];
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out += I ? ",{\"name\":\"" : "{\"name\":\"";
      for (char C : S.Name) {
        if (C == '"' || C == '\\')
          Out += '\\';
        Out += C;
      }
      std::snprintf(Buf, sizeof(Buf),
                    "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d,"
                    "\"calibration\":%s}}",
                    S.StartNs / 1e3, S.durationNs() / 1e3, S.Op, S.Parent,
                    S.Calibration ? "true" : "false");
      Out += Buf;
    }
    Out += "]}\n";
    return Out;
  }

private:
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  bool Enabled;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open; ///< Stack of open span indices.
  int NextOp = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span), indexed like \p Spans.
inline std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
      Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    int64_t Covered = 0;
    int64_t Reach = Spans[I].StartNs; // End of the covered prefix so far.
    for (auto [Start, End] : C) {
      Start = std::max(Start, Reach);
      End = std::min(End, Spans[I].EndNs);
      if (End > Start) {
        Covered += End - Start;
        Reach = End;
      }
    }
    Self[I] = Spans[I].durationNs() - Covered;
  }
  return Self;
}

} // namespace hostbench

#endif // HOSTBENCH_SPANS_H
