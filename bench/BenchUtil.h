//===- bench/BenchUtil.h - shared helpers for the paper benches -*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared bench plumbing: section headers, the common command line
/// (--jobs/--json/--cache/--no-cache), machine-readable run metrics, and
/// the one sweep runner. Every figure/table bench constructs one
/// BenchRun so the whole suite speaks the same flags and
/// tools/run_benches.sh can collect uniform JSON. Crash safety comes
/// from the PerfDatabase journal: a killed bench re-run with the same
/// --cache serves every acknowledged measurement from it.
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_BENCH_BENCHUTIL_H
#define GPUPERF_BENCH_BENCHUTIL_H

#include "analysis/HotspotReport.h"
#include "kernelgen/Scheduler.h"
#include "probe/ProbeEngine.h"
#include "probe/ProbeSpec.h"
#include "sim/SMSimulator.h"
#include "support/Args.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "ubench/PerfDatabase.h"
#include "ubench/SweepRunner.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace gpuperf {

/// Prints a bench section header.
inline void benchHeader(const std::string &Title) {
  std::string Bar(Title.size(), '=');
  std::printf("%s\n%s\n", Title.c_str(), Bar.c_str());
}

inline void benchPrint(const std::string &Text) {
  std::fputs(Text.c_str(), stdout);
}

/// Per-bench run context: parses the shared flags, times the run, and on
/// destruction emits a one-line JSON metrics record when --json was
/// given, then exits 1 if any recorded sweep left a point incomplete.
/// Construct exactly one at the top of main().
///
/// Flags:
///   --jobs N     worker threads for sweeps/launches (0 = one per
///                hardware thread, the default; 1 = fully serial)
///   --json PATH  write {"schema_version","record":"bench","bench",
///                "machines","schedule","jobs","sim_cycles",
///                "wall_seconds","sim_cycles_per_sec","issue_slots":
///                {per-cause slot counts over the whole run}} to PATH
///                on exit -- the shape tools/perfdiff gates on; a
///                failed write is reported and exits 1
///   --cache PATH persistent PerfDatabase file (default:
///                PerfDatabase::defaultCachePath())
///   --no-cache   in-memory PerfDatabase only; force remeasurement
///   --schedule drip|list
///                main-loop ordering for the generated kernels the bench
///                measures: the fixed drip interleave (default) or the
///                kernelgen list scheduler
///   --probe FILE attach the probe specs in FILE to every kernel launch
///                the bench simulates and add a versioned "probes"
///                object to the --json record; implies --no-cache,
///                because a warm cache hit skips simulation and would
///                silently undercount every probe
class BenchRun {
public:
  BenchRun(std::string BenchName, int Argc, char **Argv)
      : Name(std::move(BenchName)),
        CachePath(PerfDatabase::defaultCachePath()),
        Start(std::chrono::steady_clock::now()),
        StartCycles(totalSimulatedCycles()),
        StartBreakdown(totalIssueSlotBreakdown()) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      auto needValue = [&]() -> const char * {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", Name.c_str(),
                       Arg.c_str());
          std::exit(2);
        }
        return Argv[++I];
      };
      if (Arg == "--jobs")
        Jobs = static_cast<int>(
            flagInt(Name.c_str(), "--jobs", needValue(), 0, 65536));
      else if (Arg == "--json")
        JsonPath = needValue();
      else if (Arg == "--cache")
        CachePath = needValue();
      else if (Arg == "--no-cache")
        CachePath.clear();
      else if (Arg == "--schedule") {
        auto Choice = parseChoice(needValue(), {"drip", "list"});
        if (!Choice) {
          std::fprintf(stderr, "%s: --schedule: %s\n", Name.c_str(),
                       Choice.message().c_str());
          std::exit(2);
        }
        Schedule =
            *Choice == 0 ? SgemmSchedule::Drip : SgemmSchedule::List;
      } else if (Arg == "--probe")
        ProbePath = needValue();
      else {
        std::fprintf(stderr,
                     "%s: unknown option '%s'\n"
                     "usage: %s [--jobs N] [--json PATH] [--cache PATH] "
                     "[--no-cache] [--schedule drip|list] "
                     "[--probe FILE]\n",
                     Name.c_str(), Arg.c_str(), Name.c_str());
        std::exit(2);
      }
    }
    if (!ProbePath.empty()) {
      auto Specs = loadProbeSpecFile(ProbePath);
      if (!Specs) {
        std::fprintf(stderr, "%s: --probe: %s\n", Name.c_str(),
                     Specs.message().c_str());
        std::exit(2);
      }
      Probes = ProbeEngine(Specs.take());
      // A warm cache hit returns a stored result without simulating, so
      // probes attached to this process would silently miss that
      // launch. Force remeasurement for the whole run instead.
      if (!CachePath.empty()) {
        std::fprintf(stderr,
                     "%s: --probe disables the perf cache (cached hits "
                     "skip simulation and would undercount probes)\n",
                     Name.c_str());
        CachePath.clear();
      }
      // Installed process-wide: every launchKernel in this process that
      // was not handed an explicit sink clones this engine, simulates,
      // and merges back under a lock (SM-index order within a launch
      // keeps per-launch results deterministic; cross-launch merge
      // order does not matter because every aggregation is commutative
      // and associative).
      setProcessProbeEngine(&Probes);
    }
  }

  ~BenchRun() {
    // Uninstall before anything else so no launch can race the engine
    // while (or after) we read it out below.
    if (!ProbePath.empty()) {
      setProcessProbeEngine(nullptr);
      std::printf("\nprobe results (%s)\n%s", ProbePath.c_str(),
                  Probes.report().c_str());
    }
    bool AnyIncomplete = false;
    for (const SweepReport &R : Sweeps)
      AnyIncomplete |= !R.complete();
    if (!JsonPath.empty())
      writeJsonRecord(AnyIncomplete);
    // A bench missing a row fails after its record is written, with or
    // without --json, so tools/run_benches.sh cannot count it complete.
    if (AnyIncomplete)
      std::exit(1);
  }

  BenchRun(const BenchRun &) = delete;
  BenchRun &operator=(const BenchRun &) = delete;

  /// Raw --jobs value for LaunchConfig::Jobs (0 = hardware).
  int jobs() const { return Jobs; }

  /// Main-loop ordering requested with --schedule (default: drip).
  SgemmSchedule schedule() const { return Schedule; }

  /// PerfDatabase cache path; empty means --no-cache (in-memory only).
  const std::string &cachePath() const { return CachePath; }

  /// The database benches should measure through: persistent unless the
  /// user said --no-cache.
  PerfDatabase makeDatabase(const MachineDesc &M) const {
    return PerfDatabase(M, CachePath);
  }

  /// Bench name (for diagnostics).
  const std::string &name() const { return Name; }

  /// Records \p R for the --json record's "incomplete" array and the
  /// exit status, and reports each failed point on stderr. Called by
  /// runSweepSupervised.
  void recordSweep(const SweepReport &R) {
    for (const SweepPointFailure &F : R.Incomplete)
      std::fprintf(stderr, "%s: sweep %s: point %zu failed: %s\n",
                   Name.c_str(), R.Name.c_str(), F.Point, F.Reason.c_str());
    Sweeps.push_back(R);
  }

private:
  void writeJsonRecord(bool AnyIncomplete) const {
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    uint64_t Cycles = totalSimulatedCycles() - StartCycles;
    StallBreakdown End = totalIssueSlotBreakdown();
    JsonWriter W;
    W.beginObject();
    // perfdiff refuses to compare records across schema versions or
    // across differing simulated-machine sets, so both are part of
    // every record.
    W.kv("schema_version", MetricsSchemaVersion);
    W.kv("record", "bench");
    W.kv("bench", Name);
    W.key("machines");
    W.beginArray();
    for (const std::string &MachineName : simulatedMachineNames())
      W.value(MachineName);
    W.endArray();
    W.kv("schedule",
         Schedule == SgemmSchedule::Drip ? "drip" : "list");
    W.kv("jobs", resolveJobs(Jobs));
    W.kv("sim_cycles", Cycles);
    W.key("wall_seconds");
    W.value(Wall, 3);
    W.key("sim_cycles_per_sec");
    W.value(Wall > 0 ? Cycles / Wall : 0.0, 0);
    // Per-cause issue-slot totals over everything this process simulated
    // during the run -- the same counters gpurun --metrics reports for a
    // single launch.
    W.key("issue_slots");
    W.beginObject();
    for (size_t I = 0; I < NumSlotUses; ++I)
      W.kv(slotUseName(static_cast<SlotUse>(I)),
           End.Slots[I] - StartBreakdown.Slots[I]);
    W.endObject();
    // Probe totals over the same scope as issue_slots: everything this
    // process simulated while the engine was installed. Only present
    // when --probe was given, so plain records keep the exact shape the
    // committed perfdiff baselines pin.
    if (!ProbePath.empty()) {
      W.key("probes");
      Probes.writeProbesValue(W);
    }
    // Failed points ride along only when there were any, so records from
    // plain runs keep the exact shape the committed perfdiff baselines
    // pin.
    if (AnyIncomplete) {
      W.key("incomplete");
      W.beginArray();
      for (const SweepReport &R : Sweeps)
        for (const SweepPointFailure &F : R.Incomplete) {
          W.beginObject();
          W.kv("sweep", R.Name);
          W.kv("point", static_cast<uint64_t>(F.Point));
          // Every point runs once and a failure is final, so "result"
          // and "attempts" are constants, kept for the record's shape.
          W.kv("result", "quarantined");
          W.kv("attempts", 1);
          W.kv("reason", F.Reason);
          W.endObject();
        }
      W.endArray();
    }
    W.endObject();
    // A record that was asked for but not written in full fails the
    // run, so a full disk cannot pass for a completed bench.
    if (Status St = writeTextFile(JsonPath, W.str() + "\n"); !St) {
      std::fprintf(stderr, "%s: --json: %s\n", Name.c_str(),
                   St.message().c_str());
      std::exit(1);
    }
  }

  std::string Name;
  std::string JsonPath;
  std::string CachePath;
  std::string ProbePath;
  ProbeEngine Probes;
  int Jobs = 0; ///< 0 = one worker per hardware thread.
  SgemmSchedule Schedule = SgemmSchedule::Drip;
  std::vector<SweepReport> Sweeps;
  std::chrono::steady_clock::time_point Start;
  uint64_t StartCycles;
  StallBreakdown StartBreakdown;
};

/// Prints the per-cause issue-slot breakdown of \p S as a table plus the
/// accounting identity it satisfies: every simulated cycle each of the
/// machine's warp schedulers owned exactly one slot, so the per-cause
/// counts sum to aggregate SM-cycles x schedulers. This is the bench-side
/// rendering of the same counters gpurun --metrics prints.
inline void benchIssueSlotReport(const MachineDesc &M, const SimStats &S) {
  std::printf("issue_slot_report\n");
  uint64_t Total = S.Breakdown.total();
  Table T;
  T.setHeader({"cause", "slots", "share"});
  for (size_t I = 0; I < NumSlotUses; ++I) {
    uint64_t N = S.Breakdown.Slots[I];
    T.addRow({slotUseName(static_cast<SlotUse>(I)),
              formatString("%llu", static_cast<unsigned long long>(N)),
              formatString("%5.1f%%",
                           Total ? 100.0 * N / Total : 0.0)});
  }
  benchPrint(T.render());
  int Scheds = M.WarpSchedulersPerSM > 1 ? M.WarpSchedulersPerSM : 1;
  std::printf("total %llu slots = %llu aggregate SM-cycles x %d "
              "scheduler%s%s\n",
              static_cast<unsigned long long>(Total),
              static_cast<unsigned long long>(S.perSMCycles()), Scheds,
              Scheds == 1 ? "" : "s",
              Total == S.perSMCycles() * static_cast<uint64_t>(Scheds)
                  ? ""
                  : "  ** INVARIANT VIOLATION **");
}

/// The bench sweep runner: evaluates \p Point(0..N-1) once each across
/// up to --jobs threads and records the sweep report on \p Run. Returns
/// the rows indexed by point, identical for every --jobs value; nullopt
/// marks a failed point (listed in "incomplete", on stderr and in the
/// exit status -- render only the completed rows, so stdout is unchanged
/// whenever nothing fails). \p Point must be safe to call concurrently
/// (the simulator and PerfDatabase are; stdout printing is not, so
/// format rows here and print after). \p Name must be unique within the
/// bench (one entry per machine, e.g. "fig4_GTX580"): it names the sweep
/// in diagnostics and in the JSON record.
inline std::vector<std::optional<std::vector<std::string>>>
runSweepSupervised(BenchRun &Run, const std::string &Name, size_t N,
                   const SweepPointFn &Point) {
  SweepResult R =
      runSupervisedSweep(SweepOptions{Run.jobs()}, Name, N, Point);
  Run.recordSweep(R.Report);
  return std::move(R.Rows);
}

} // namespace gpuperf

#endif // GPUPERF_BENCH_BENCHUTIL_H
